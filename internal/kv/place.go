package kv

import (
	"cmp"
	"fmt"
	"slices"
)

// Column grouping and placement: how a column reduce turns one round's
// shuffle chunks into groups (DESIGN §5, "Canonical order and the slot
// map"). A round's records are grouped in canonical order — by source map,
// then by the chunk's slot (its index among the chunks that map sent this
// reduce in the round), then by position in the chunk — so the groups do
// not depend on the order the network delivered the chunks in. An
// iterative job's static data is fixed, so its rounds repeat the same
// chunks with the same keys: the grouping of one round, kept as a
// ColLayout, says where every record of the next round goes, and a
// ColPlacement writes each chunk's values straight there as it arrives.

// ColGroups is a column batch grouped by key: Keys holds the distinct
// keys ascending, and group i's values are Vals[Ends[i-1]:Ends[i]] (from
// 0 for the first group). Groups that a ColPlacement hit produced share
// Keys and Ends with its ColLayout: they are read, never written.
type ColGroups[V any] struct {
	Keys []int64
	Ends []int32
	Vals []V
}

// Values returns group i's values.
func (g ColGroups[V]) Values(i int) []V {
	lo := int32(0)
	if i > 0 {
		lo = g.Ends[i-1]
	}
	return g.Vals[lo:g.Ends[i]:g.Ends[i]]
}

// ColGrouper is Grouper for column batches: the same groups, in the same
// order, with no key boxed. Ownership is Grouper's: one
// goroutine, scratch kept from call to call, a result valid until the
// next Group. The zero value is ready to use.
type ColGrouper[V any] struct {
	count  []int32 // per key offset of a dense batch: its count, then its cursor
	sorted []keyAt[int64]
	slots  []int32 // each record's value slot in the last index
	cat    []int64 // a regrouped round's keys in canonical order
	out    ColGroups[V]
}

// Group groups c by key and leaves c untouched: keys ascending, each
// key's values in the order c holds them.
func (g *ColGrouper[V]) Group(c *Cols[V]) ColGroups[V] {
	out := g.index(c.Keys)
	out.Vals = grown(out.Vals, len(g.slots))
	vals := c.Vals[:len(g.slots)]
	for i, s := range g.slots {
		out.Vals[s] = vals[i]
	}
	return *out
}

// index groups keys: it fills the result's Keys and Ends and writes into
// g.slots the value slot of every record — its place in the grouped
// values, records of one key in input order. Keys over a dense range (a
// span under denseSpanFactor × the records, as Grouper chooses for
// int64-keyed pairs) are counted into a table by key offset; others take
// the comparison sort.
func (g *ColGrouper[V]) index(keys []int64) *ColGroups[V] {
	n := len(keys)
	g.slots = grown(g.slots, n)
	if n == 0 {
		return g.reset(0)
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	span := uint64(hi) - uint64(lo)
	if span >= uint64(n)*denseSpanFactor {
		return g.indexSorted(keys)
	}
	g.count = grown(g.count, int(span)+1)
	count := g.count
	clear(count)
	distinct := 0
	for _, k := range keys {
		c := &count[uint64(k)-uint64(lo)]
		if *c == 0 {
			distinct++
		}
		*c++
	}
	out := g.reset(distinct)
	off := int32(0)
	for s, c := range count {
		if c == 0 {
			continue
		}
		count[s] = off
		off += c
		out.Keys = append(out.Keys, lo+int64(s))
		out.Ends = append(out.Ends, off)
	}
	slots := g.slots
	for i, k := range keys {
		c := &count[uint64(k)-uint64(lo)]
		slots[i] = *c
		*c++
	}
	return out
}

// indexSorted is index for keys whose span is too wide for the count
// table, by the comparison sort Grouper uses.
func (g *ColGrouper[V]) indexSorted(keys []int64) *ColGroups[V] {
	g.sorted = grown(g.sorted, len(keys))
	ks := g.sorted
	for i, k := range keys {
		ks[i] = keyAt[int64]{k, int32(i)}
	}
	out := g.reset(sortKeys(ks))
	for j := range ks {
		g.slots[ks[j].i] = int32(j)
		if j+1 == len(ks) || ks[j+1].k != ks[j].k {
			out.Keys = append(out.Keys, ks[j].k)
			out.Ends = append(out.Ends, int32(j+1))
		}
	}
	return out
}

// reset empties the result's key and end columns, with room for
// distinct groups.
func (g *ColGrouper[V]) reset(distinct int) *ColGroups[V] {
	out := &g.out
	if cap(out.Keys) < distinct {
		out.Keys = make([]int64, 0, distinct)
		out.Ends = make([]int32, 0, distinct)
	}
	out.Keys, out.Ends = out.Keys[:0], out.Ends[:0]
	return out
}

// ColChunk is one shuffle chunk as a column reduce places it: the map
// that sent it, its slot, and its values, with their keys or without.
//
// Epoch names the round whose chunk from (Map, Slot) carried these keys:
// the chunk's own round when it carries keys its sender had not sent
// there before, an earlier round's otherwise. A chunk with Same set
// repeats the keys (Map, Slot) carried at Epoch; it may still carry them
// (Keys, as long as Vals), or travel values-only (Keys nil).
type ColChunk[V any] struct {
	Map, Slot int
	Epoch     int
	Same      bool
	Keys      []int64
	Vals      []V
}

// ColLayout is what one round's grouping teaches the next: the round's
// distinct keys ascending and their value windows (Keys and Ends, as in
// ColGroups), and for each of its chunks that held records — by source
// map, slot and key epoch — the slot map: the value slot every record of
// the chunk took. It stands in for the keys too: a record's key is the
// key of the window its slot falls in.
//
// A layout is immutable once made, so any number of placements — rounds
// in flight side by side — may share it.
type ColLayout struct {
	keys []int64
	ends []int32
	src  []colSource // by (map, slot)
	maps []colMap    // by map: each map's run of src
}

// colSource is one chunk of the round a layout was learned from.
type colSource struct {
	m, slot, epoch int
	slots          []int32 // the value slot of each of its records
}

// colMap is one source map's run of a layout's chunks, src[lo:hi].
type colMap struct {
	m      int
	lo, hi int
}

// records is the number of records the layout holds.
func (l *ColLayout) records() int { return int(l.ends[len(l.ends)-1]) }

// find returns the index in l.src of the chunk from map m at slot, or -1.
// Maps and slots are numbered from 0, so each is at its own index unless
// one before it is missing; then a binary search finds it.
func (l *ColLayout) find(m, slot int) int {
	i := m
	if i < 0 || i >= len(l.maps) || l.maps[i].m != m {
		var ok bool
		if i, ok = slices.BinarySearchFunc(l.maps, m, func(e colMap, m int) int { return cmp.Compare(e.m, m) }); !ok {
			return -1
		}
	}
	src := l.src[l.maps[i].lo:l.maps[i].hi]
	j := slot
	if j < 0 || j >= len(src) || src[j].slot != slot {
		var ok bool
		if j, ok = slices.BinarySearchFunc(src, slot, func(e colSource, s int) int { return cmp.Compare(e.slot, s) }); !ok {
			return -1
		}
	}
	return l.maps[i].lo + j
}

// keyOf is the key of the record at value slot v: the key of the window
// v falls in.
func (l *ColLayout) keyOf(v int32) int64 {
	g, _ := slices.BinarySearch(l.ends, v+1)
	return l.keys[g]
}

// sameKeys reports whether keys are the keys of the records slots maps.
func (l *ColLayout) sameKeys(slots []int32, keys []int64) bool {
	for i, k := range keys {
		if l.keyOf(slots[i]) != k {
			return false
		}
	}
	return true
}

// renewed returns a copy of l whose chunks have the key epochs epochs.
func (l *ColLayout) renewed(epochs []int) *ColLayout {
	c := *l
	c.src = slices.Clone(l.src)
	for i := range c.src {
		c.src[i].epoch = epochs[i]
	}
	return &c
}

// ColPlacement is one round of a column reduce, placed as it arrives into
// the layout the round started on. A chunk the layout knows — the same
// source map and slot, and either the key epoch the layout learned or
// keys equal to the layout's — is scattered by its slot map: each value
// written to its final place in the grouped values, no key looked at. Any
// other chunk is kept, a copy as it came. Group then hands out the
// round's groups: at once when every chunk of the layout was placed, and
// otherwise by regrouping the whole round exactly, which teaches the next
// layout. Its placed values array is kept from round to round, the kept
// copies only until the round is grouped. Ownership is ColGrouper's; the
// zero value is not started.
type ColPlacement[V any] struct {
	started bool
	layout  *ColLayout
	vals    []V    // the layout's records, placed by their slot maps
	placed  int    // records placed
	hit     []bool // per chunk of the layout: placed this round
	epochs  []int  // per chunk of the layout, its epoch once a keyed chunk renewed one; nil until then
	miss    []colMiss[V]
}

// colMiss is a chunk a placement kept, in arrival order: its source, slot
// and key epoch, and copies of its keys (nil for a values-only chunk) and
// its values.
type colMiss[V any] struct {
	m, slot, epoch int
	keys           []int64
	vals           []V
}

// Start begins a round on layout l, which the round keeps whatever
// layout later rounds learn; nil keeps every chunk for Group.
func (p *ColPlacement[V]) Start(l *ColLayout) {
	p.started, p.layout, p.placed, p.epochs = true, l, 0, nil
	p.dropMisses()
	if l == nil {
		return
	}
	p.hit = grown(p.hit, len(l.src))
	clear(p.hit)
	p.vals = grown(p.vals, l.records())
}

// Rebase moves a round that started on another layout, and has placed
// nothing by its slot map yet, onto layout l: the chunks it kept are
// placed again, by l's slot maps where l knows them, and kept otherwise.
// A kept chunk that came values-only counts as Same. A round started
// before the layout of the round ahead of it was learned so still hits.
// A round that has placed chunks, and a nil l, change nothing.
func (p *ColPlacement[V]) Rebase(l *ColLayout) {
	if !p.started || p.placed > 0 || l == nil || p.layout == l {
		return
	}
	kept := p.miss
	p.miss = nil
	p.Start(l)
	p.miss = kept[:0]
	for _, m := range kept {
		if !p.scatter(ColChunk[V]{Map: m.m, Slot: m.slot, Epoch: m.epoch, Same: m.keys == nil, Keys: m.keys, Vals: m.vals}) {
			p.miss = append(p.miss, m)
		}
	}
	clear(kept[len(p.miss):])
}

// Started reports whether Start has been called since the last Reset.
func (p *ColPlacement[V]) Started() bool { return p.started }

// Place takes one chunk of the round, after Start, and leaves it
// untouched. A chunk with no values adds nothing.
func (p *ColPlacement[V]) Place(c ColChunk[V]) {
	if len(c.Vals) == 0 || p.scatter(c) {
		return
	}
	// Each kept chunk is a copy of its own size: a round kept whole (the
	// first) allocates its records once, where one growing batch would
	// allocate them at least twice over.
	m := colMiss[V]{m: c.Map, slot: c.Slot, epoch: c.Epoch, vals: slices.Clone(c.Vals)}
	if len(c.Keys) == len(c.Vals) {
		m.keys = slices.Clone(c.Keys)
	}
	p.miss = append(p.miss, m)
}

// scatter places c by its slot map when the round's layout knows it, and
// reports whether it did.
func (p *ColPlacement[V]) scatter(c ColChunk[V]) bool {
	l, n := p.layout, len(c.Vals)
	if l == nil {
		return false
	}
	id := l.find(c.Map, c.Slot)
	if id < 0 || p.hit[id] || len(l.src[id].slots) != n {
		return false
	}
	s := &l.src[id]
	if !(c.Same && c.Epoch == s.epoch || len(c.Keys) == n && l.sameKeys(s.slots, c.Keys)) {
		return false
	}
	if c.Epoch != s.epoch {
		p.renew(id, c.Epoch)
	}
	vals, slots := p.vals, s.slots[:n]
	for i, v := range c.Vals {
		vals[slots[i]] = v
	}
	p.hit[id] = true
	p.placed += n
	return true
}

// dropMisses lets go of the kept chunks' copies and keeps the list.
func (p *ColPlacement[V]) dropMisses() {
	clear(p.miss)
	p.miss = p.miss[:0]
}

// renew records that the layout's chunk id now carries the keys of epoch.
func (p *ColPlacement[V]) renew(id, epoch int) {
	if p.epochs == nil {
		p.epochs = make([]int, len(p.layout.src))
		for i, s := range p.layout.src {
			p.epochs[i] = s.epoch
		}
	}
	p.epochs[id] = epoch
}

// Group returns the round's groups — exactly what ColGrouper.Group gives
// for the round's records in canonical order — and the layout the next
// round should start on. cur is the task's current layout: the one the
// round before this one taught, in which the keys of a values-only chunk
// the round's own layout did not know are looked up. The groups are valid
// until p's next Start or Reset, or g's next Group.
//
// A hit — every chunk placed and the layout's records all written, which
// the count proves since each chunk is placed once — returns the
// layout's keys and windows over p's values, and the layout again (a copy
// with new epochs when a keyed chunk renewed one). It also drops g's
// scratch, which a task whose layout holds does not need again. Anything
// else regroups the round exactly and returns the layout it teaches. A
// values-only chunk whose keys neither layout holds fails the round.
func (p *ColPlacement[V]) Group(g *ColGrouper[V], cur *ColLayout) (ColGroups[V], *ColLayout, error) {
	l := p.layout
	if len(p.miss) == 0 && p.placed > 0 && p.placed == l.records() {
		if p.epochs != nil {
			l = l.renewed(p.epochs)
		}
		*g = ColGrouper[V]{}
		return ColGroups[V]{Keys: l.keys, Ends: l.ends, Vals: p.vals[:p.placed]}, l, nil
	}
	return p.regroup(g, cur)
}

// colPart is one chunk of a round being regrouped: its source, slot and
// key epoch, its record count, and the layout chunk it was placed as (or
// -1) or else the kept chunk it is.
type colPart struct {
	m, slot, epoch, n int
	src, miss         int
}

// regroup groups the round's chunks, placed or kept, in canonical order
// and learns their layout. The values go straight to their slots in p's
// values array, from the kept copies and, for chunks placed by the old
// layout, from copies gathered out of that array first.
func (p *ColPlacement[V]) regroup(g *ColGrouper[V], cur *ColLayout) (ColGroups[V], *ColLayout, error) {
	l := p.layout
	parts := make([]colPart, 0, len(p.miss)+len(p.hit))
	if l != nil {
		for id, s := range l.src {
			if p.hit[id] {
				epoch := s.epoch
				if p.epochs != nil {
					epoch = p.epochs[id]
				}
				parts = append(parts, colPart{m: s.m, slot: s.slot, epoch: epoch, n: len(s.slots), src: id, miss: -1})
			}
		}
	}
	for i, m := range p.miss {
		parts = append(parts, colPart{m: m.m, slot: m.slot, epoch: m.epoch, n: len(m.vals), src: -1, miss: i})
	}
	slices.SortStableFunc(parts, func(a, b colPart) int {
		return cmp.Or(cmp.Compare(a.m, b.m), cmp.Compare(a.slot, b.slot))
	})
	total := 0
	for _, pt := range parts {
		total += pt.n
	}
	keys := slices.Grow(g.cat[:0], total)
	vals := make([][]V, len(parts))
	for i, pt := range parts {
		if pt.src >= 0 {
			slots := l.src[pt.src].slots
			vals[i] = make([]V, len(slots))
			for j, v := range slots {
				keys = append(keys, l.keyOf(v))
				vals[i][j] = p.vals[v]
			}
			continue
		}
		m := p.miss[pt.miss]
		if m.keys != nil {
			keys = append(keys, m.keys...)
		} else if err := appendKnownKeys(&keys, pt, cur, l); err != nil {
			return ColGroups[V]{}, nil, err
		}
		vals[i] = m.vals
	}
	g.cat = keys
	out := g.index(keys)
	p.vals = grown(p.vals, total)
	at := 0
	for _, vs := range vals {
		slots := g.slots[at : at+len(vs)]
		for j, v := range vs {
			p.vals[slots[j]] = v
		}
		at += len(vs)
	}
	p.dropMisses()
	next := learnLayout(out, g.slots, parts)
	if next == nil {
		return ColGroups[V]{Keys: out.Keys, Ends: out.Ends, Vals: p.vals[:total]}, nil, nil
	}
	return ColGroups[V]{Keys: next.keys, Ends: next.ends, Vals: p.vals[:total]}, next, nil
}

// appendKnownKeys appends the keys of values-only chunk m, looked up in
// the first of the layouts that holds its source at its epoch.
func appendKnownKeys(dst *[]int64, m colPart, layouts ...*ColLayout) error {
	for _, l := range layouts {
		if l == nil {
			continue
		}
		if id := l.find(m.m, m.slot); id >= 0 && l.src[id].epoch == m.epoch && len(l.src[id].slots) == m.n {
			for _, v := range l.src[id].slots {
				*dst = append(*dst, l.keyOf(v))
			}
			return nil
		}
	}
	return fmt.Errorf("kv: values-only chunk %d of map %d names the keys of round %d, which no layout holds", m.slot, m.m, m.epoch)
}

// learnLayout makes the layout of a regrouped round: its groups out, the
// value slots of its records in canonical order, and its chunks. A round
// with no records, or with two chunks from one map at one slot — no sender
// does that — teaches none.
func learnLayout[V any](out *ColGroups[V], slots []int32, parts []colPart) *ColLayout {
	if len(parts) == 0 {
		return nil
	}
	l := &ColLayout{
		keys: slices.Clone(out.Keys),
		ends: slices.Clone(out.Ends),
		src:  make([]colSource, len(parts)),
	}
	all := slices.Clone(slots)
	at := 0
	for i, pt := range parts {
		if i > 0 && pt.m == parts[i-1].m && pt.slot == parts[i-1].slot {
			return nil
		}
		l.src[i] = colSource{m: pt.m, slot: pt.slot, epoch: pt.epoch, slots: all[at : at+pt.n : at+pt.n]}
		at += pt.n
		if i == 0 || pt.m != parts[i-1].m {
			l.maps = append(l.maps, colMap{m: pt.m, lo: i})
		}
		l.maps[len(l.maps)-1].hi = i + 1
	}
	return l
}

// Reset ends the round: p is not started again until Start, and keeps its
// scratch. The groups Group returned are invalid afterwards.
func (p *ColPlacement[V]) Reset() {
	p.started, p.layout, p.placed, p.epochs = false, nil, 0, nil
	p.dropMisses()
}
