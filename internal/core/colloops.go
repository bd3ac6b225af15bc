package core

import (
	"fmt"
	"slices"

	"imapreduce/internal/kv"
)

// The column loops: the record loops of every job, instantiated per value
// type (DESIGN §5, "One loop source"). A job's records stay in an int64
// key column and a V column the whole way round the loop — V the state
// type of a typed job (a ScalarJob that typedLoops picks), any for every
// other job, whose values stay boxed. What the map emits is partitioned
// by kv.PartitionInt64 (the reduce Ops.Partition picks for the boxed
// key), crosses the network as a column batch (a column frame on a
// socket) — values-only when the reduce already holds its keys — and is
// placed as it arrives by the slot map of the reduce's last grouping
// (kv.ColPlacement), so the reduce's groups are ready at the barrier;
// where the layout does not hold, the round is regrouped exactly in
// canonical order. A termination reduce merges each new state into a
// previous-state run (colRun) and sends it back to the map as a column
// batch too, where it is joined with the static partition, unboxed once
// into a key column and an S column when the task loads it. Records are
// boxed into pairs only where the state meets the DFS or the master: the
// checkpoint writer, the final output and the auxiliary output box the
// state, and the initial, recovery and rollback loads unbox it.

// colMapLoops are the column loops of a map task.
type colMapLoops[V, S any] struct {
	t *mapTask
	// mapFn runs the user map on one record, emitting through emit.
	mapFn func(k int64, v V, s S, emit func(int64, V)) error
	// staticOf makes a static record's S, or reports that it cannot.
	staticOf func(p kv.Pair) (S, bool)
	// size is what records with the values vals are charged: what Ops
	// charges their pairs.
	size func(vals []V) int64
	emit func(int64, V) // the map's emit, made once
	// The static partition, unboxed: skeys[i]'s static value is svals[i],
	// the keys ascending and unique.
	skeys []int64
	svals []S
	// keyCols[r][slot] is the key column the task last sent reduce r at
	// slot, its own copy: a chunk with the same keys goes values-only.
	keyCols [][]sentKeys
}

// sentKeys is a key column a map sent one reduce at one slot, and the
// iteration that sent it (its key epoch). valid is false once the slot
// has carried no records, or a generation has passed.
type sentKeys struct {
	keys  []int64
	epoch int
	valid bool
}

// newColMapLoops returns t's column loops without their mapFn, staticOf
// and size, which the instantiation sets.
func newColMapLoops[V, S any](t *mapTask) *colMapLoops[V, S] {
	l := &colMapLoops[V, S]{t: t, keyCols: make([][]sentKeys, t.numReduce)}
	// Made once per task — a method value per map pass would cost an
	// allocation per pass.
	l.emit = l.emitRecord
	return l
}

// emitRecord is the map's emit: it files a record under t.iter — a task
// only ever maps the iteration it is on — and sends its reduce's chunk
// buffer when it reaches BufferThreshold.
func (l *colMapLoops[V, S]) emitRecord(k int64, v V) {
	t := l.t
	r := kv.PartitionInt64(k, t.numReduce)
	c := t.out(r).records.(*kv.Cols[V])
	c.Append(k, v)
	if c.Len() >= t.bufThresh {
		t.sendShuffle(t.iter, r, false)
	}
}

func (l *colMapLoops[V, S]) setStatic(run []kv.Pair) error {
	l.skeys, l.svals = make([]int64, len(run)), make([]S, len(run))
	for i, p := range run {
		k, ok := p.Key.(int64)
		s, sok := l.staticOf(p)
		if !ok || !sok {
			return fmt.Errorf("core: static record (%T, %T), want (int64, %T)", p.Key, p.Value, s)
		}
		l.skeys[i], l.svals[i] = k, s
	}
	return nil
}

func (l *colMapLoops[V, S]) unbox(pairs []kv.Pair) (records, error) {
	c := kv.NewCols[V](len(pairs))
	if err := c.Unbox(pairs); err != nil {
		return nil, err
	}
	return c, nil
}

func (l *colMapLoops[V, S]) accumulate(a *accum, in records, presize int) error {
	return addCols[V](a, in, presize)
}

// addCols is the column loops' accumulate. It makes room for presize
// records when a has none yet: iterative jobs move nearly the same record
// count every round.
func addCols[V any](a *accum, in records, presize int) error {
	src, err := colsIn[V](in)
	if src == nil {
		return err
	}
	dst, _ := a.records.(*kv.Cols[V])
	if dst == nil {
		dst = kv.NewCols[V](max(presize, src.Len()))
		a.records = dst
	}
	dst.AppendRange(src, 0, src.Len())
	return nil
}

// colsIn returns in's column batch: nil and no error for a chunk with no
// records, errMixedLoops for a batch of another value type.
func colsIn[V any](in records) (*kv.Cols[V], error) {
	src, ok := in.(*kv.Cols[V])
	if !ok && recLen(in) > 0 {
		return nil, errMixedLoops
	}
	return src, nil
}

func (l *colMapLoops[V, S]) mapState(in records) error {
	src, err := colsIn[V](in)
	if src == nil {
		return err
	}
	// Each record is joined with the static value of its key (S's zero
	// value when it has none).
	keys, vals, sk, cur := src.Keys, src.Vals, l.skeys, 0
	for i, k := range keys {
		var s S
		if len(sk) > 0 {
			var found bool
			if cur, found = seekInt64(sk, cur, k); found {
				s = l.svals[cur]
				cur++
			}
		}
		if err := l.mapFn(k, vals[i], s, l.emit); err != nil {
			return fmt.Errorf("map %d/%d key %v: %w", l.t.phase, l.t.idx, k, err)
		}
	}
	return nil
}

// seekInt64 looks key up in keys, ascending and unique, with the cursor
// at cur: it returns where key is (or would be) and whether it is there.
// Input arriving in key order hits at the cursor itself; anything else
// (the first iteration's DFS order, a streamed chunk's first record)
// costs one binary search of the side of the cursor the key lies on.
func seekInt64(keys []int64, cur int, key int64) (int, bool) {
	lo, hi := 0, len(keys)
	if cur < len(keys) {
		switch k := keys[cur]; {
		case k == key:
			return cur, true
		case k < key:
			lo = cur + 1
		default:
			hi = cur
		}
	}
	i, found := slices.BinarySearch(keys[lo:hi], key)
	return lo + i, found
}

func (l *colMapLoops[V, S]) pack(r int, c shuffleChunk, b *chunkBuf) (shuffleChunk, int64, error) {
	var cols *kv.Cols[V]
	if b != nil {
		cols = b.records.(*kv.Cols[V])
	}
	c, size := l.packCols(r, c, cols)
	return c, size, nil
}

// packCols returns c with cols — none when nil — as its payload, and the
// bytes they are charged.
func (l *colMapLoops[V, S]) packCols(r int, c shuffleChunk, cols *kv.Cols[V]) (shuffleChunk, int64) {
	var keys []int64
	var size int64
	if cols != nil {
		c.Cols, keys, size = cols, cols.Keys, l.size(cols.Vals)
	}
	l.elide(r, &c, keys)
	return c, size
}

// elide marks c SameKeys when keys, its key column, is the one the task
// last sent reduce r at c's slot, with that column's epoch; otherwise it
// keeps a copy of keys as the slot's column, of c's epoch. An End chunk
// forgets the slots past the iteration's last: the reduce learns its next
// layout from this iteration's chunks alone, so a chunk at a slot this
// iteration left empty must carry its keys again.
func (l *colMapLoops[V, S]) elide(r int, c *shuffleChunk, keys []int64) {
	ks := l.keyCols[r]
	for len(ks) <= c.Slot {
		ks = append(ks, sentKeys{})
	}
	l.keyCols[r] = ks
	switch k := &ks[c.Slot]; {
	case len(keys) == 0:
		k.valid = false
	case k.valid && slices.Equal(k.keys, keys):
		c.KeyEpoch, c.SameKeys = k.epoch, true
	default:
		k.keys = append(k.keys[:0], keys...)
		k.epoch, k.valid = c.KeyEpoch, true
	}
	if c.End > 0 {
		for s := c.End; s < len(ks); s++ {
			ks[s].valid = false
		}
	}
}

func (l *colMapLoops[V, S]) forget() {
	for _, ks := range l.keyCols {
		for s := range ks {
			ks[s].valid = false
		}
	}
}

// colReduceLoops are the column loops of a reduce task.
//
// Its input is never copied into the accumulator. The static data is
// fixed, so an iteration shuffles the chunks the last one did, with the
// same keys, and each chunk is placed, as handleShuffle takes it, by the
// slot map of the last grouping: each value goes to its final place in
// the grouped values. At the barrier a hit — every chunk of the layout
// placed — leaves group nothing to do; anything else regroups the round
// exactly in canonical order and learns the layout again (DESIGN §5).
type colReduceLoops[V any] struct {
	t *reduceTask
	// reduceFn runs the user reduce on one group and distFn, nil when
	// the job has none, the user Distance; box is the key's box on the
	// boxed loops (boxKeys) — the previous-state run's when it holds the
	// key — and nil on the typed ones.
	reduceFn func(k int64, box any, vals []V) (V, error)
	distFn   func(k int64, box any, prev, cur V) float64
	size     func(vals []V) int64 // see colMapLoops
	boxKeys  bool
	// Task-lifetime scratch: the grouping kernel of a miss and the groups
	// of the iteration being reduced.
	grouper kv.ColGrouper[V]
	groups  kv.ColGroups[V]
	// prev is a termination phase's previous-state run.
	prev colRun[V]
	// layout is the layout of the last grouping, nil before the first
	// and after a generation change. An iteration keeps the layout it
	// started placing into: a new one is published, never written, so the
	// next iteration's chunks, which can arrive before this one's barrier,
	// keep a layout of their own.
	layout *kv.ColLayout
}

// accumulate places a chunk's records into a's placement.
func (l *colReduceLoops[V]) accumulate(a *accum, c shuffleChunk) error {
	src, err := colsIn[V](c.Cols)
	if src == nil {
		return err
	}
	if c.FromMap < 0 || c.FromMap >= l.t.numMaps {
		return fmt.Errorf("core: shuffle chunk from map %d of %d", c.FromMap, l.t.numMaps)
	}
	ch := kv.ColChunk[V]{Map: c.FromMap, Slot: c.Slot, Epoch: c.KeyEpoch, Same: c.SameKeys, Vals: src.Vals}
	if len(src.Keys) == len(src.Vals) {
		ch.Keys = src.Keys
	}
	l.placement(a).Place(ch)
	return nil
}

// group finishes a's placement: its groups, in the order and with the
// values kv.ColGrouper gives the iteration's records in canonical order,
// and the layout the next iteration starts on. A later iteration whose
// chunks arrived before this barrier, and which has placed none by the
// older layout it started on, is rebased onto the new one.
func (l *colReduceLoops[V]) group(a *accum) (int, error) {
	groups, layout, err := l.placement(a).Group(&l.grouper, l.layout)
	if err != nil {
		return 0, err
	}
	l.groups, l.layout = groups, layout
	for iter, next := range l.t.pend {
		if p, _ := next.placed.(*kv.ColPlacement[V]); p != nil && iter > l.t.iter {
			p.Rebase(layout)
		}
	}
	return len(groups.Keys), nil
}

func (l *colReduceLoops[V]) forget() { l.layout = nil }

// placement returns a's placement, started on the task's layout when the
// iteration has placed nothing yet.
func (l *colReduceLoops[V]) placement(a *accum) *kv.ColPlacement[V] {
	p, _ := a.placed.(*kv.ColPlacement[V])
	if p == nil {
		p = new(kv.ColPlacement[V])
		a.placed = p
	}
	if !p.Started() {
		p.Start(l.layout)
	}
	return p
}

func (l *colReduceLoops[V]) reduce(iter int) (float64, error) {
	t, g := l.t, l.groups
	l.groups = kv.ColGroups[V]{}
	whole, _ := t.whole.(*kv.Cols[V])
	var dist float64
	for i, k := range g.Keys {
		var old V
		var box any
		var had bool
		if t.isTermination {
			old, box, had = l.prev.find(k)
		}
		if box == nil && l.boxKeys {
			box = k
		}
		ns, err := l.reduceFn(k, box, g.Values(i))
		if err != nil {
			return 0, t.reduceErr(k, err)
		}
		if t.isTermination {
			// Groups are key-ascending: one merge pass over the run.
			l.prev.put(k, box, ns, had)
			if had && l.distFn != nil {
				dist += l.distFn(k, box, old, ns)
			}
		}
		if whole != nil {
			whole.Append(k, ns)
		}
		if !t.gated {
			l.send(iter, k, ns)
		}
	}
	if t.isTermination {
		l.prev.end()
	}
	return dist, nil
}

// send adds one key's new state to the loop-back chunk buffer.
func (l *colReduceLoops[V]) send(iter int, k int64, v V) {
	t := l.t
	if t.outBuf == nil {
		t.outBuf = t.bufs.get()
	}
	out := t.outBuf.records.(*kv.Cols[V])
	out.Append(k, v)
	if out.Len() >= t.bufThresh {
		t.flushStreaming(iter, false)
	}
}

func (l *colReduceLoops[V]) bytes(r records) int64 {
	if c, _ := r.(*kv.Cols[V]); c != nil {
		return l.size(c.Vals)
	}
	return 0
}

func (l *colReduceLoops[V]) loadPrev(pairs []kv.Pair) error {
	return l.prev.load(keyedRun(pairs, l.t.job.Ops))
}

func (l *colReduceLoops[V]) final() []kv.Pair {
	out := l.prev.pairs()
	l.prev = colRun[V]{boxed: l.prev.boxed}
	return out
}

// colRun is the state a termination reduce carries from one iteration to
// the next for the Distance test and the final output: a key column and
// a value column, keys ascending and unique, merged with an iteration's
// key-ascending reduce results in one pass (find and put per group, then
// end) that writes a second pair of columns, recycled across iterations.
// A key absent from an iteration survives with its last value. On the
// boxed loops (boxed) the run keeps each key's box beside it, so the
// reduce hands the user the box the run holds instead of boxing the key
// every iteration.
type colRun[V any] struct {
	run, next        kv.Cols[V]
	boxes, nextBoxes []any
	boxed            bool
	pos              int // first record of run the pass has not consumed
}

// load replaces the run with a key-ordered run of pairs.
func (s *colRun[V]) load(ps []kv.Pair) error {
	s.run.Reset()
	s.next.Reset()
	clear(s.boxes)
	s.boxes, s.pos = s.boxes[:0], 0
	if err := s.run.Unbox(ps); err != nil {
		return err
	}
	if s.boxed {
		for _, p := range ps {
			s.boxes = append(s.boxes, p.Key)
		}
	}
	return nil
}

// find carries the records of the run before k into the pass and returns
// k's previous state and key box, if it had one. Keys must arrive in
// ascending order within a pass, each followed by its put.
func (s *colRun[V]) find(k int64) (old V, box any, had bool) {
	keys, i := s.run.Keys, s.pos
	for i < len(keys) && keys[i] < k {
		i++
	}
	if i > s.pos {
		s.next.AppendRange(&s.run, s.pos, i)
		if s.boxed {
			s.nextBoxes = append(s.nextBoxes, s.boxes[s.pos:i]...)
		}
		s.pos = i
	}
	if i < len(keys) && keys[i] == k {
		old, had = s.run.Vals[i], true
		if s.boxed {
			box = s.boxes[i]
		}
	}
	return old, box, had
}

// put records v as k's new state, with its key box on the boxed loops;
// had is what find reported for k.
func (s *colRun[V]) put(k int64, box any, v V, had bool) {
	if had {
		s.pos++
	}
	s.next.Append(k, v)
	if s.boxed {
		s.nextBoxes = append(s.nextBoxes, box)
	}
}

// end closes the pass: the records past the last put carry over and the
// merged columns become the run. The recycled columns pin no state of
// two iterations ago.
func (s *colRun[V]) end() {
	s.next.AppendRange(&s.run, s.pos, s.run.Len())
	s.run, s.next = s.next, s.run
	s.next.Reset()
	if s.boxed {
		s.nextBoxes = append(s.nextBoxes, s.boxes[s.pos:]...)
		clear(s.boxes)
		s.boxes, s.nextBoxes = s.nextBoxes, s.boxes[:0]
	}
	s.pos = 0
}

// pairs returns the run as key-ordered pairs, keys in the boxes the run
// holds on the boxed loops.
func (s *colRun[V]) pairs() []kv.Pair {
	out := s.run.Box(nil)
	for i, box := range s.boxes {
		out[i].Key = box
	}
	return out
}
