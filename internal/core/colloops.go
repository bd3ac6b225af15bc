package core

import (
	"fmt"
	"slices"

	"imapreduce/internal/kv"
)

// The column loops: the record loops of a job columnLoops picks. Its
// records stay in int64 and V columns the whole way round the loop. What
// the typed map emits is partitioned by kv.PartitionInt64 (the reduce
// Ops.Partition picks for the boxed key), crosses the network as a column
// batch (a column frame on a socket) — values-only when the reduce already
// holds its keys — and is placed as it arrives by the slot map of the
// reduce's last grouping (kv.ColPlacement), so the typed reduce's groups
// are ready at the barrier; where the layout does not hold, the round is
// regrouped exactly in canonical order. The reduce merges each new
// state into a typed previous-state run (colRun) and sends it back to the
// map as a column batch too, where it is joined with the static
// partition, unboxed once into a key column and an S column when the task
// loads it. Records are boxed into pairs only where the state meets the
// DFS: the checkpoint writer and the final output box the state, and the
// initial, recovery and rollback loads unbox it, so every file reads as
// the pair loops'.

// colRecords is a column batch of a job's state type: a *kv.Cols[V].
type colRecords interface {
	Len() int
	Cap() int
	Reset()
	Release()
	Box(dst []kv.Pair) []kv.Pair
}

// colMapLoops are the column loops of a map task.
type colMapLoops[V kv.Scalar, S any] struct {
	t *mapTask
	d *scalarDef[V, S]
	// recSize is what a record is charged: what Ops charges its pair, so
	// the byte counters read as they do on the pair loops.
	recSize int64
	emit    func(int64, V) // the map's emit, made once
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

func newColMapLoops[V kv.Scalar, S any](d *scalarDef[V, S], t *mapTask) *colMapLoops[V, S] {
	l := &colMapLoops[V, S]{
		t: t, d: d,
		recSize: colRecSize[V](&t.job.Ops),
		keyCols: make([][]sentKeys, t.numReduce),
	}
	l.emit = func(k int64, v V) {
		r := kv.PartitionInt64(k, t.numReduce)
		c := t.out(r).cols.(*kv.Cols[V])
		c.Append(k, v)
		if c.Len() >= t.bufThresh {
			t.sendShuffle(t.iter, r, false)
		}
	}
	return l
}

// colRecSize is what a column record of V is charged: what ops charges
// its pair.
func colRecSize[V kv.Scalar](ops *kv.Ops) int64 {
	var zero V
	return int64(ops.PairSize(kv.Pair{Key: int64(0), Value: zero}))
}

func (l *colMapLoops[V, S]) setStatic(static []kv.Pair) error {
	l.skeys, l.svals = make([]int64, len(static)), make([]S, len(static))
	for i, p := range static {
		k, ok := p.Key.(int64)
		if !ok {
			return scalarRecordErr[V](p.Key, nil)
		}
		s, ok := p.Value.(S)
		if !ok && p.Value != nil {
			return fmt.Errorf("core: scalar job static value %T, want %T", p.Value, s)
		}
		l.skeys[i], l.svals[i] = k, s
	}
	return nil
}

func (l *colMapLoops[V, S]) unbox(pairs []kv.Pair) (records, error) {
	c := kv.NewCols[V](len(pairs))
	if err := c.Unbox(pairs); err != nil {
		return records{}, err
	}
	return records{cols: c}, nil
}

func (l *colMapLoops[V, S]) accumulate(a *accum, in records, presize int) error {
	return addCols[V](a, in, presize)
}

// addCols is the column map loops' accumulate. It presizes as addPairs
// does.
func addCols[V kv.Scalar](a *accum, in records, presize int) error {
	src, err := colsIn[V](in)
	if src == nil {
		return err
	}
	dst, _ := a.cols.(*kv.Cols[V])
	if dst == nil {
		dst = kv.NewCols[V](max(presize, src.Len()))
		a.cols = dst
	}
	dst.AppendRange(src, 0, src.Len())
	return nil
}

// colsIn returns in's column batch: nil and no error for a chunk with no
// records (an End chunk may travel as an empty pair chunk), errMixedLoops
// for one of pairs.
func colsIn[V kv.Scalar](in records) (*kv.Cols[V], error) {
	src, ok := in.cols.(*kv.Cols[V])
	if !ok && (in.cols != nil || len(in.pairs) > 0) {
		return nil, errMixedLoops
	}
	return src, nil
}

func (l *colMapLoops[V, S]) mapState(in records) error {
	src, ok := in.cols.(*kv.Cols[V])
	if !ok {
		if len(in.pairs) > 0 {
			return errMixedLoops
		}
		return nil
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
		if err := l.d.mapFn(k, vals[i], s, l.emit); err != nil {
			return fmt.Errorf("map %d/%d key %v: %w", l.t.phase, l.t.idx, k, err)
		}
	}
	return nil
}

// seekInt64 is seek over a key column: it returns where key is in keys
// (or would be), whether it is there, looking at the cursor cur first.
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
	var keys []int64
	if b != nil {
		cols := b.cols.(*kv.Cols[V])
		c.Cols, keys = cols, cols.Keys
	}
	l.elide(r, &c, keys)
	return c, int64(len(keys)) * l.recSize, nil
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

// colReduceLoops are the column loops of a reduce task. A column job has
// one phase, so its reduce is always the termination phase's.
//
// Its input is never copied into the accumulator. The static data is
// fixed, so an iteration shuffles the chunks the last one did, with the
// same keys, and each chunk is placed, as handleShuffle takes it, by the
// slot map of the last grouping: each value goes to its final place in
// the grouped values. At the barrier a hit — every chunk of the layout
// placed — leaves group nothing to do; anything else regroups the round
// exactly in canonical order and learns the layout again (DESIGN §5).
type colReduceLoops[V kv.Scalar, S any] struct {
	t       *reduceTask
	d       *scalarDef[V, S]
	recSize int64 // see colMapLoops
	// Task-lifetime scratch: the grouping kernel of a miss and the groups
	// of the iteration being reduced.
	grouper kv.ColGrouper[V]
	groups  kv.ColGroups[V]
	prev    colRun[V]
	// layout is the layout of the last grouping, nil before the first
	// and after a generation change. An iteration keeps the layout it
	// started placing into: a new one is published, never written, so the
	// next iteration's chunks, which can arrive before this one's barrier,
	// keep a layout of their own.
	layout *kv.ColLayout
}

func newColReduceLoops[V kv.Scalar, S any](d *scalarDef[V, S], t *reduceTask) *colReduceLoops[V, S] {
	return &colReduceLoops[V, S]{t: t, d: d, recSize: colRecSize[V](&t.job.Ops)}
}

// accumulate places a chunk's records into a's placement.
func (l *colReduceLoops[V, S]) accumulate(a *accum, c shuffleChunk) error {
	src, err := colsIn[V](c.records())
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
func (l *colReduceLoops[V, S]) group(a *accum) (int, error) {
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

func (l *colReduceLoops[V, S]) forget() { l.layout = nil }

// placement returns a's placement, started on the task's layout when the
// iteration has placed nothing yet.
func (l *colReduceLoops[V, S]) placement(a *accum) *kv.ColPlacement[V] {
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

func (l *colReduceLoops[V, S]) reduce(iter int) (float64, error) {
	t, g := l.t, l.groups
	l.groups = kv.ColGroups[V]{}
	var whole *kv.Cols[V]
	if t.whole != nil {
		whole = t.whole.cols.(*kv.Cols[V])
	}
	var dist float64
	for i, k := range g.Keys {
		ns, err := l.d.reduceFn(k, g.Values(i))
		if err != nil {
			return 0, t.reduceErr(k, err)
		}
		if old, had := l.prev.put(k, ns); had && l.d.distFn != nil {
			dist += l.d.distFn(k, old, ns)
		}
		if whole != nil {
			whole.Append(k, ns)
		}
		if !t.gated {
			l.send(iter, k, ns)
		}
	}
	l.prev.end()
	return dist, nil
}

// send adds one key's new state to the loop-back chunk buffer.
func (l *colReduceLoops[V, S]) send(iter int, k int64, v V) {
	t := l.t
	if t.outBuf == nil {
		t.outBuf = t.bufs.get()
	}
	out := t.outBuf.cols.(*kv.Cols[V])
	out.Append(k, v)
	if out.Len() >= t.bufThresh {
		t.flushStreaming(iter, false)
	}
}

func (l *colReduceLoops[V, S]) bytes(r records) int64 { return int64(r.len()) * l.recSize }

func (l *colReduceLoops[V, S]) loadPrev(pairs []kv.Pair) error {
	l.prev.run.Reset()
	l.prev.next.Reset()
	l.prev.pos = 0
	return l.prev.run.Unbox(keyedRun(pairs, l.t.job.Ops))
}

func (l *colReduceLoops[V, S]) final() []kv.Pair { return l.prev.run.Box(nil) }

// colRun is stateRun on the column loops: the previous state as a key
// column and a value column, merged with an iteration's key-ascending
// reduce results in one pass (put per group, then end) that writes a
// second pair of columns, recycled across iterations.
type colRun[V kv.Scalar] struct {
	run, next kv.Cols[V]
	pos       int // first record of run the pass has not consumed
}

// put records v as k's new state and returns its previous state, if it
// had one. Keys must arrive in ascending order within a pass: the records
// of the run it passes over carry into the pass.
func (s *colRun[V]) put(k int64, v V) (old V, existed bool) {
	keys, i := s.run.Keys, s.pos
	for i < len(keys) && keys[i] < k {
		i++
	}
	if i > s.pos {
		s.next.AppendRange(&s.run, s.pos, i)
		s.pos = i
	}
	if i < len(keys) && keys[i] == k {
		old, existed = s.run.Vals[i], true
		s.pos++
	}
	s.next.Append(k, v)
	return old, existed
}

// end closes the pass: the records past the last put carry over and the
// merged columns become the run.
func (s *colRun[V]) end() {
	s.next.AppendRange(&s.run, s.pos, s.run.Len())
	s.run, s.next = s.next, s.run
	s.next.Reset()
	s.pos = 0
}
