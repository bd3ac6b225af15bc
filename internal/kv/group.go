package kv

import (
	"cmp"
	"slices"
)

// Grouper is the grouping kernel with its scratch memory attached: the
// key index, the shared values array and the group headers survive from
// one Group call to the next, so a long-lived caller (a persistent map
// or reduce task grouping a same-sized input every iteration) pays for
// them once. The zero value is ready to use.
//
// Ownership: a Grouper belongs to one goroutine and dies with its owner;
// it is never parked in a pool. Its scratch is sized by the largest
// input it has grouped. The groups returned by Group — the slice, every
// Values slice cut from the shared array — are valid only until the next
// Group or Reset call on the same Grouper.
type Grouper struct {
	vals   []any   // every group's Values is a window of this array
	groups []Group // backing array of the returned group headers

	dense denseScratch // integer-key scratch (see groupInts)

	// Comparison-path scratch, a *keyScratch[K] for the key type last
	// grouped.
	typed interface{ reset() }
}

// GroupPairs groups pairs by key and returns the groups sorted by key.
// Within a group, values keep the order in which their pairs appeared,
// so grouping is deterministic for a deterministic input order. It is
// the one-shot form of Grouper.Group: fresh scratch, result owned by the
// caller.
func GroupPairs(pairs []Pair, ops Ops) []Group {
	var g Grouper
	return g.Group(pairs, ops)
}

// Group groups pairs by key exactly as GroupPairs documents, reusing the
// Grouper's scratch, and leaves pairs untouched. The result is
// invalidated by the next Group or Reset call.
//
// Integer keys over a dense range are ordered by counting scatter with
// no comparisons (see groupInts), everything else by a hash probe or a
// sort over (key, index).
func (g *Grouper) Group(pairs []Pair, ops Ops) []Group {
	if len(pairs) == 0 {
		return nil
	}
	return ops.group(g, pairs)
}

// Reset drops every reference the scratch holds to the last input's keys
// and values (they would otherwise pin the decode arenas those boxes
// live in until the next Group call overwrote them) and keeps the
// capacity. The last result is invalid afterwards.
func (g *Grouper) Reset() {
	// To capacity, not length: a smaller call after a larger one leaves
	// the larger one's tail behind.
	clear(g.vals[:cap(g.vals)])
	clear(g.groups[:cap(g.groups)])
	if g.typed != nil {
		g.typed.reset()
	}
}

// result returns the values array at length n and an empty group-header
// slice with room for distinct groups, so appending them never leaves
// the scratch.
func (g *Grouper) result(n, distinct int) ([]any, []Group) {
	g.vals = grown(g.vals, n)
	if cap(g.groups) < distinct {
		g.groups = make([]Group, 0, distinct)
	}
	return g.vals, g.groups[:0]
}

// grown returns s at length n, reallocating only when its capacity is
// too small. The contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// groupFor picks the typed grouping OpsFor installs for key type K.
func groupFor[K cmp.Ordered]() func(*Grouper, []Pair) []Group {
	var zero K
	switch any(zero).(type) {
	case int:
		return groupInts[int]
	case int32:
		return groupInts[int32]
	case int64:
		return groupInts[int64]
	case uint64:
		return groupInts[uint64]
	}
	return groupCompared[K]
}

// denseSpanFactor bounds the counting scatter's slot table: a key span
// of denseSpanFactor × n or more is left to the generic path. The bound
// is on memory, not speed — the table is scratch a persistent task keeps,
// and at 2 × n slots it is 16 bytes per pair, the size of the sort's key
// index; measured against the sort the scatter stays ahead up to a span
// of some 50 × n.
const denseSpanFactor = 2

// bucket is one key's slot in the counting scatter: its pair count —
// turned into the write cursor of its values window once offsets are
// known — and the index of the first pair that carried the key.
type bucket struct {
	n, first int32
}

// groupInts groups pairs keyed by a builtin integer type. Every key is
// mapped to a uint64 whose unsigned order is the key order (signed types
// get their sign bit flipped) and one pass records the images and their
// range. When the range is dense — node ids, cluster ids, matrix rows:
// what a partition of an id space looks like — the pairs are grouped in
// O(n) by counting scatter (scatterDense), with no comparison sort; it is
// ahead of the sort from the first pair, so there is no size cutoff.
// Sparse ranges take groupCompared like any other ordered key.
func groupInts[K int | int32 | int64 | uint64](g *Grouper, pairs []Pair) []Group {
	n := len(pairs)
	var flip uint64
	if ^K(0) < 0 {
		flip = 1 << 63
	}
	d := &g.dense
	d.u = grown(d.u, n)
	u := d.u
	lo, hi := ^uint64(0), uint64(0)
	for i, p := range pairs {
		k := uint64(int64(p.Key.(K))) ^ flip
		u[i] = k
		lo, hi = min(lo, k), max(hi, k)
	}
	span := hi - lo
	if span >= uint64(n)*denseSpanFactor {
		return groupCompared[K](g, pairs)
	}
	vals, groups := g.result(n, d.count(lo, int(span)+1))
	scatterDense(d, vals, func(_ int, first int32, window []any) {
		groups = append(groups, Group{Key: pairs[first].Key, Values: window})
	})
	at := d.cursor(lo)
	for i, k := range d.u {
		vals[at.place(k)] = pairs[i].Value
	}
	return groups
}

// denseScratch is the counting scatter's scratch: the order-preserving
// image of every record's key and one bucket per key in the input's
// range. Both groupings of integer keys — pairs (groupInts) and columns
// (ColGrouper) — run it.
type denseScratch struct {
	u       []uint64 // order-preserving image of each record's key
	buckets []bucket // one slot per key in [lo, lo+slots)
}

// count sizes the bucket table for keys in [lo, lo+slots), counts every
// key of s.u into it, and returns the number of distinct keys.
func (s *denseScratch) count(lo uint64, slots int) (distinct int) {
	s.buckets = grown(s.buckets, slots)
	bk := s.buckets
	clear(bk)
	for i, k := range s.u {
		b := &bk[k-lo]
		if b.n == 0 {
			b.first = int32(i)
			distinct++
		}
		b.n++
	}
	return distinct
}

// scatterDense is the counting scatter, after count: it prefix-sums the
// counts into offsets in vals and hands every distinct key to group in
// key order — its slot, the index of its first record and its window of
// vals — leaving each bucket's count turned into its window's write
// cursor. The caller then visits its records in arrival order and writes
// record i's value to vals[s.cursor(lo).place(s.u[i])]. Equal keys are
// never reordered, so the output is what a stable sort + cut produces:
// groups key-ascending, values in arrival order. (The value loop is the
// caller's own so that reading a value is a field load, not a call.)
func scatterDense[V any](s *denseScratch, vals []V, group func(slot int, first int32, window []V)) {
	off := int32(0)
	for i := range s.buckets {
		b := &s.buckets[i]
		if b.n == 0 {
			continue
		}
		end := off + b.n
		group(i, b.first, vals[off:end:end])
		b.n, off = off, end
	}
}

// scatterCursor holds scatterDense's write cursors by value, so that the
// caller's value stores do not make it reload them.
type scatterCursor struct {
	bk []bucket
	lo uint64
}

func (s *denseScratch) cursor(lo uint64) scatterCursor {
	return scatterCursor{bk: s.buckets, lo: lo}
}

// place returns where the next value of the key whose image is k goes,
// and advances that key's cursor.
func (c scatterCursor) place(k uint64) int32 {
	b := &c.bk[k-c.lo]
	p := b.n
	b.n++
	return p
}

// keyAt pairs a concrete key with the index of its record, so grouping
// can sort 16-byte typed entries instead of 32-byte interface pairs.
type keyAt[K cmp.Ordered] struct {
	k K
	i int32
}

// keyScratch is the comparison path's key index for one key type.
type keyScratch[K cmp.Ordered] struct {
	ks []keyAt[K]
}

func (s *keyScratch[K]) reset() { clear(s.ks[:cap(s.ks)]) }

// groupCompared is the generic typed grouping — what OpsFor installs for
// non-integer keys and where integer keys over a sparse range end up:
// the hash probe when many pairs collapse onto few keys, otherwise the
// comparison sort.
func groupCompared[K cmp.Ordered](g *Grouper, pairs []Pair) []Group {
	if len(pairs) >= fewKeysMinPairs {
		if gs, ok := groupFewKeys[K](g, pairs); ok {
			return gs
		}
	}
	return groupSorted[K](g, pairs)
}

// groupSorted groups by a comparison sort over (key, index). It leaves
// pairs in their original order; the index tie-break keeps within-group
// value order identical to a stable sort.
func groupSorted[K cmp.Ordered](g *Grouper, pairs []Pair) []Group {
	s, _ := g.typed.(*keyScratch[K])
	if s == nil {
		s = new(keyScratch[K])
		g.typed = s
	}
	s.ks = grown(s.ks, len(pairs))
	ks := s.ks
	for i, p := range pairs {
		ks[i] = keyAt[K]{p.Key.(K), int32(i)}
	}
	vals, groups := g.result(len(ks), sortKeys(ks))
	for i := range ks {
		vals[i] = pairs[ks[i].i].Value
	}
	start := 0
	for i := 1; i <= len(ks); i++ {
		if i == len(ks) || ks[i].k != ks[start].k {
			// Reuse the already-boxed key from the source pair instead of
			// re-boxing ks[start].k.
			groups = append(groups, Group{Key: pairs[ks[start].i].Key, Values: vals[start:i:i]})
			start = i
		}
	}
	return groups
}

// sortKeys orders ks by key and, within a key, by record index — what a
// stable sort by key produces — and returns the number of distinct keys.
// It sorts by key alone so pdqsort's equal-element handling kicks in on
// duplicate-heavy input, then restores arrival order within each
// equal-key run: much cheaper than the index tie-break in one sort.
func sortKeys[K cmp.Ordered](ks []keyAt[K]) (distinct int) {
	slices.SortFunc(ks, func(a, b keyAt[K]) int { return cmp.Compare(a.k, b.k) })
	runStart := 0
	for i := 1; i <= len(ks); i++ {
		if i == len(ks) || ks[i].k != ks[runStart].k {
			if i-runStart > 1 {
				run := ks[runStart:i]
				slices.SortFunc(run, func(a, b keyAt[K]) int { return cmp.Compare(a.i, b.i) })
			}
			distinct++
			runStart = i
		}
	}
	return distinct
}

// Few-keys grouping thresholds: the probe path wins when many pairs
// collapse onto few distinct keys (combiner chunks keyed by strings),
// where the sort path's n·log n comparisons dwarf one hash probe per
// pair. Past the distinct cap the probe's map grows and the advantage
// inverts, so it bails to the sort. Integer keys over a dense range
// never come here: few keys are the counting scatter's best case.
const (
	fewKeysMinPairs    = 512
	fewKeysMaxDistinct = 128
)

// groupFewKeys groups by single-pass hash probe. ok=false means the
// input has more than fewKeysMaxDistinct distinct keys and the caller
// should take the sort path. Output is identical to the sort path:
// groups ordered by key, values in arrival order, Group.Key reusing the
// first-seen boxed key.
func groupFewKeys[K cmp.Ordered](g *Grouper, pairs []Pair) ([]Group, bool) {
	type keyMeta struct {
		key   K
		first int32 // index of the first pair holding this key
		count int32
	}
	idx := make(map[K]int32, fewKeysMaxDistinct)
	metas := make([]keyMeta, 0, fewKeysMaxDistinct)
	groupOf := make([]int32, len(pairs))
	for i, p := range pairs {
		k := p.Key.(K)
		gi, ok := idx[k]
		if !ok {
			if len(metas) == fewKeysMaxDistinct {
				return nil, false
			}
			gi = int32(len(metas))
			idx[k] = gi
			metas = append(metas, keyMeta{key: k, first: int32(i)})
		}
		metas[gi].count++
		groupOf[i] = gi
	}
	// Order the (few) groups by key, prefix-sum their value offsets, and
	// fill the shared values array positionally — no comparison touches
	// the n pairs again.
	order := make([]int32, len(metas))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(metas[a].key, metas[b].key) })
	rank := make([]int32, len(metas))   // group id → sorted position
	offs := make([]int32, len(metas)+1) // sorted position → values offset
	for pos, gi := range order {
		rank[gi] = int32(pos)
		offs[pos+1] = metas[gi].count
	}
	for pos := range metas {
		offs[pos+1] += offs[pos]
	}
	fill := make([]int32, len(metas))
	copy(fill, offs[:len(metas)])
	vals, groups := g.result(len(pairs), len(metas))
	for i, p := range pairs {
		pos := rank[groupOf[i]]
		vals[fill[pos]] = p.Value
		fill[pos]++
	}
	for pos, gi := range order {
		groups = append(groups, Group{Key: pairs[metas[gi].first].Key, Values: vals[offs[pos]:offs[pos+1]:offs[pos+1]]})
	}
	return groups, true
}

// ColGroups is a column batch grouped by key: Keys holds the distinct
// keys ascending, and group i's values, in arrival order, are
// Vals[Ends[i-1]:Ends[i]] (from 0 for the first group).
type ColGroups[V Scalar] struct {
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
// order, with no key or value boxed. Ownership is Grouper's: one
// goroutine, scratch kept from call to call, a result valid until the
// next Group. The zero value is ready to use.
type ColGrouper[V Scalar] struct {
	dense  denseScratch
	sorted []keyAt[int64]
	out    ColGroups[V]
}

// Group groups c by key and leaves c untouched. Keys over a dense range
// take the counting scatter, others the comparison sort, exactly as
// Grouper chooses for int64-keyed pairs.
func (g *ColGrouper[V]) Group(c *Cols[V]) ColGroups[V] {
	n := c.Len()
	if n == 0 {
		return ColGroups[V]{}
	}
	const flip = 1 << 63
	d := &g.dense
	d.u = grown(d.u, n)
	lo, hi := ^uint64(0), uint64(0)
	for i, k := range c.Keys {
		x := uint64(k) ^ flip
		d.u[i] = x
		lo, hi = min(lo, x), max(hi, x)
	}
	span := hi - lo
	if span >= uint64(n)*denseSpanFactor {
		return g.groupSorted(c)
	}
	distinct := d.count(lo, int(span)+1)
	out := g.reset(n, distinct)
	end := int32(0)
	scatterDense(d, out.Vals, func(slot int, _ int32, window []V) {
		end += int32(len(window))
		out.Keys = append(out.Keys, int64((lo+uint64(slot))^flip))
		out.Ends = append(out.Ends, end)
	})
	at, vals := d.cursor(lo), out.Vals
	for i, k := range d.u {
		vals[at.place(k)] = c.Vals[i]
	}
	return *out
}

// groupSorted groups a batch whose keys span too wide a range for the
// scatter, by the comparison sort Grouper uses.
func (g *ColGrouper[V]) groupSorted(c *Cols[V]) ColGroups[V] {
	g.sorted = grown(g.sorted, c.Len())
	ks := g.sorted
	for i, k := range c.Keys {
		ks[i] = keyAt[int64]{k, int32(i)}
	}
	out := g.reset(len(ks), sortKeys(ks))
	for i := range ks {
		out.Vals[i] = c.Vals[ks[i].i]
		if i+1 == len(ks) || ks[i+1].k != ks[i].k {
			out.Keys = append(out.Keys, ks[i].k)
			out.Ends = append(out.Ends, int32(i+1))
		}
	}
	return *out
}

// reset sizes the result for n records in distinct groups and empties
// its key and end columns.
func (g *ColGrouper[V]) reset(n, distinct int) *ColGroups[V] {
	out := &g.out
	out.Vals = grown(out.Vals, n)
	if cap(out.Keys) < distinct {
		out.Keys = make([]int64, 0, distinct)
		out.Ends = make([]int32, 0, distinct)
	}
	out.Keys, out.Ends = out.Keys[:0], out.Ends[:0]
	return out
}
