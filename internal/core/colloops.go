package core

import (
	"cmp"

	"imapreduce/internal/kv"
)

// The column loops: the record loops of a job columnLoops picks. What
// the typed map emits goes into int64 and V columns, is partitioned by
// kv.PartitionInt64 (the reduce Ops.Partition picks for the boxed key),
// crosses the network as a column batch (a column frame on a socket),
// and is grouped by kv.ColGrouper for the typed reduce. No record is
// boxed between the user map and the user reduce; the state path — the
// reduce→map chunks, checkpoints and the final output — stays on pairs.

// colRecords is a column batch of a job's state type: a *kv.Cols[V].
type colRecords interface {
	Len() int
	Cap() int
	Reset()
	Release()
}

// colMapLoops are the column loops of a map task.
type colMapLoops[V kv.Scalar, S any] struct {
	t *mapTask
	d *scalarDef[V, S]
	// recSize is what a record is charged: what Ops charges its pair, so
	// the byte counters read as they do on the pair loops.
	recSize int64
	emit    func(int64, V) // the serial loop's emit, made once
	rows    colRows[V]
}

func newColMapLoops[V kv.Scalar, S any](d *scalarDef[V, S], t *mapTask) *colMapLoops[V, S] {
	var zero V
	l := &colMapLoops[V, S]{
		t: t, d: d,
		recSize: int64(t.job.Ops.PairSize(kv.Pair{Key: int64(0), Value: zero})),
		rows:    colRows[V]{nred: t.numReduce},
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

func (l *colMapLoops[V, S]) mapState(iter int, pairs []kv.Pair) error {
	t := l.t
	if t.run.pool.shardsFor(len(pairs)) > 1 {
		return t.runSharded(iter, len(pairs), &l.rows, func(sh, lo, hi int) error {
			return l.mapRange(pairs[lo:hi], l.rows.emits[sh])
		})
	}
	return l.mapRange(pairs, l.emit)
}

// mapRange runs the typed map over one range of state pairs, each joined
// with the static record of its key.
func (l *colMapLoops[V, S]) mapRange(pairs []kv.Pair, emit func(int64, V)) error {
	return l.t.joinStatic(pairs, func(p kv.Pair, static any) error {
		k, v, s, err := l.d.unbox(p.Key, p.Value, static)
		if err != nil {
			return err
		}
		return l.d.mapFn(k, v, s, emit)
	})
}

func (l *colMapLoops[V, S]) pack(c shuffleChunk, b *chunkBuf) (shuffleChunk, int64, error) {
	if b == nil {
		return c, 0, nil
	}
	c.Cols = b.cols
	return c, int64(b.cols.Len()) * l.recSize, nil
}

// colRows are the column loops' shardRows: a batch per (shard, reduce),
// and per shard an emit into its batches, made once.
type colRows[V kv.Scalar] struct {
	rows  []kv.Cols[V] // [shard*nred + r]
	emits []func(int64, V)
	nred  int
}

func (cr *colRows[V]) size(shards int) {
	for sh := len(cr.emits); sh < shards; sh++ {
		base := sh * cr.nred
		cr.emits = append(cr.emits, func(k int64, v V) {
			cr.rows[base+kv.PartitionInt64(k, cr.nred)].Append(k, v)
		})
	}
	if need := shards * cr.nred; len(cr.rows) < need {
		cr.rows = append(cr.rows, make([]kv.Cols[V], need-len(cr.rows))...)
	}
}

func (cr *colRows[V]) drain(t *mapTask, iter, r int) {
	for s := 0; s*cr.nred < len(cr.rows); s++ {
		row := &cr.rows[s*cr.nred+r]
		t.fill(iter, r, row.Len(), func(b *chunkBuf, lo, hi int) {
			b.cols.(*kv.Cols[V]).AppendRange(row, lo, hi)
		})
	}
}

func (cr *colRows[V]) recycle() {
	for i := range cr.rows {
		cr.rows[i].Reset()
	}
}

// colReduceLoops are the column loops of a reduce task. A column job has
// one phase, so its reduce is always the termination phase's.
type colReduceLoops[V kv.Scalar, S any] struct {
	t *reduceTask
	d *scalarDef[V, S]
	// Task-lifetime scratch: the grouping kernel, the groups of the
	// iteration being reduced, and the parallel reduce's result slots.
	grouper kv.ColGrouper[V]
	groups  kv.ColGroups[V]
	nvals   []V
}

func (l *colReduceLoops[V, S]) accumulate(a *accum, c shuffleChunk) error {
	src, ok := c.Cols.(*kv.Cols[V])
	if !ok {
		if c.Cols != nil || len(c.Pairs) > 0 {
			return errMixedLoops
		}
		return nil // an End chunk with no records travels as an empty pair chunk
	}
	dst, _ := a.cols.(*kv.Cols[V])
	if dst == nil {
		dst = kv.NewCols[V](max(l.t.lastIn, src.Len()))
		a.cols = dst
	}
	dst.AppendRange(src, 0, src.Len())
	return nil
}

func (l *colReduceLoops[V, S]) group(a *accum) int {
	l.groups = kv.ColGroups[V]{}
	if cols, _ := a.cols.(*kv.Cols[V]); cols != nil {
		l.groups = l.grouper.Group(cols)
	}
	return len(l.groups.Keys)
}

func (l *colReduceLoops[V, S]) reduce(iter int) (float64, error) {
	t, g := l.t, l.groups
	l.groups = kv.ColGroups[V]{}
	var nvals []V
	if t.run.pool.shardsFor(len(g.Keys)) > 1 {
		l.nvals = grown(l.nvals, len(g.Keys))
		nvals = l.nvals
		err := reduceSharded(t, nvals, func(i int) (V, error) {
			ns, err := l.d.reduceFn(g.Keys[i], g.Values(i))
			if err != nil {
				return ns, t.reduceErr(g.Keys[i], err)
			}
			return ns, nil
		})
		if err != nil {
			return 0, err
		}
	}
	var dist float64
	for i, k := range g.Keys {
		var ns V
		if nvals != nil {
			ns = nvals[i]
		} else {
			var err error
			if ns, err = l.d.reduceFn(k, g.Values(i)); err != nil {
				return 0, t.reduceErr(k, err)
			}
		}
		// The new state leaves as a pair. Its key is boxed once, in the
		// previous-state run; its value is boxed only when it changed.
		p, had := t.prev.seek(func(rk any) int { return cmp.Compare(rk.(int64), k) })
		if had {
			old, _ := p.Value.(V)
			if !kv.SameBits(old, ns) {
				p.Value = ns
			}
			if l.d.distFn != nil {
				dist += l.d.distFn(k, old, ns)
			}
		} else {
			p = kv.Pair{Key: k, Value: ns}
		}
		t.prev.add(p)
		t.newState(iter, p)
	}
	return dist, nil
}
