package core

import (
	"fmt"
	"sync"
	"unsafe"

	"imapreduce/internal/kv"
)

// ScalarJob defines a job whose keys are int64 and whose state is one
// fixed-width scalar per key — PageRank's ranks, SSSP's distances,
// connected components' labels — with typed map, reduce and distance
// functions. Build makes it an ordinary *Job; while its functions stand
// as Build left them, the engine runs it on the typed instantiation of
// the column loops, its values unboxed (see typedLoops and DESIGN §5).
type ScalarJob[V kv.Scalar, S any] struct {
	// Job carries the usual fields. Build sets its Map, Reduce, Distance
	// and Ops.
	Job Job
	// Map is the typed MapFunc: k's state, k's static record (S's zero
	// value when k has none) and the emit for the records it shuffles.
	Map func(k int64, state V, static S, emit func(int64, V)) error
	// Reduce is the typed ReduceFunc, under the same contract: vals is
	// the engine's scratch, to read or reorder but not to keep.
	Reduce func(k int64, vals []V) (V, error)
	// Distance is the typed DistFunc; nil when only MaxIter stops the
	// job.
	Distance func(k int64, prev, cur V) float64
}

// Build returns the job. Its Map, Reduce and Distance are adapters over
// the typed functions, so whatever calls or wraps them sees an ordinary
// Job; its Ops is kv.OpsFor[int64, V](nil).
func (s ScalarJob[V, S]) Build() *Job {
	j := s.Job
	d := &scalarDef[V, S]{mapFn: s.Map, reduceFn: s.Reduce, distFn: s.Distance}
	d.scratch.New = func() any { return new([]V) }
	j.Map, j.Reduce, j.Distance = d.mapAny, d.reduceAny, nil
	if s.Distance != nil {
		j.Distance = d.distAny
	}
	j.Ops = kv.OpsFor[int64, V](nil)
	d.mapID, d.reduceID, d.distID = funcID(j.Map), funcID(j.Reduce), funcID(j.Distance)
	j.scalar = d
	return &j
}

// scalarLoops is what Build leaves on a Job for the engine: whether the
// adapters still stand, and the typed instantiation of the column loops
// over the typed functions.
type scalarLoops interface {
	loopsDef
	adapters(j *Job) bool
}

// typedLoops reports whether job runs the typed instantiation of the
// column loops. It must have been built by ScalarJob.Build, with its Map,
// Reduce and Distance still the adapters Build set — a wrapper put in
// their place must take effect, and only the boxed instantiation calls
// it — and have the one shape the typed loops serve: a single OneToOne
// phase, no auxiliary phase and no combiner. Every other job runs the
// boxed instantiation.
func typedLoops(job *Job) bool {
	return job.scalar != nil && job.successor == nil && job.auxiliary == nil &&
		job.Mapping == OneToOne && job.Combine == nil && job.scalar.adapters(job)
}

// scalarDef holds a ScalarJob's typed functions and the identities of
// the adapters Build made over them.
type scalarDef[V kv.Scalar, S any] struct {
	mapFn    func(int64, V, S, func(int64, V)) error
	reduceFn func(int64, []V) (V, error)
	distFn   func(int64, V, V) float64

	mapID, reduceID, distID unsafe.Pointer
	// scratch holds the *[]V reduceAny unboxes a group's values into:
	// the reduce tasks of a run share the job, so the adapter may run on
	// several of them at once.
	scratch sync.Pool
}

// funcID is the identity of a func value: the closure it points to. Two
// func values share it only when one is a copy of the other.
func funcID[F any](f F) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&f)) }

func (d *scalarDef[V, S]) adapters(j *Job) bool {
	return funcID(j.Map) == d.mapID && funcID(j.Reduce) == d.reduceID && funcID(j.Distance) == d.distID
}

// typedSize charges a typed record what ops charges its pair: one size
// for every record.
func typedSize[V kv.Scalar](ops *kv.Ops) func([]V) int64 {
	var zero V
	per := int64(ops.PairSize(kv.Pair{Key: int64(0), Value: zero}))
	return func(vals []V) int64 { return int64(len(vals)) * per }
}

func (d *scalarDef[V, S]) mapLoops(t *mapTask) mapLoops {
	l := newColMapLoops[V, S](t)
	l.mapFn, l.size = d.mapFn, typedSize[V](&t.job.Ops)
	l.staticOf = func(p kv.Pair) (S, bool) {
		s, ok := p.Value.(S)
		return s, ok || p.Value == nil // no static value: S's zero value
	}
	return l
}

func (d *scalarDef[V, S]) reduceLoops(t *reduceTask) reduceLoops {
	l := &colReduceLoops[V]{t: t, size: typedSize[V](&t.job.Ops)}
	l.reduceFn = func(k int64, _ any, vals []V) (V, error) { return d.reduceFn(k, vals) }
	if d.distFn != nil {
		l.distFn = func(k int64, _ any, prev, cur V) float64 { return d.distFn(k, prev, cur) }
	}
	return l
}

func (d *scalarDef[V, S]) newCols(n int) records { return kv.NewCols[V](n) }

// scalarRecordErr reports a record the typed functions cannot take.
func scalarRecordErr[V kv.Scalar](key, state any) error {
	var v V
	return fmt.Errorf("core: scalar job record (%T, %T), want (int64, %T)", key, state, v)
}

// unbox returns a state record's key and value as the typed functions
// take them, and its static value as S (the zero S when there is none).
func (d *scalarDef[V, S]) unbox(key, state, static any) (int64, V, S, error) {
	k, kok := key.(int64)
	v, vok := state.(V)
	s, sok := static.(S)
	if !kok || !vok {
		return 0, v, s, scalarRecordErr[V](key, state)
	}
	if !sok && static != nil {
		return 0, v, s, fmt.Errorf("core: scalar job static value %T, want %T", static, s)
	}
	return k, v, s, nil
}

// mapAny is the MapFunc adapter: it unboxes the record and boxes what
// the typed map emits.
func (d *scalarDef[V, S]) mapAny(key, state, static any, emit kv.Emit) error {
	k, v, s, err := d.unbox(key, state, static)
	if err != nil {
		return err
	}
	return d.mapFn(k, v, s, func(k int64, v V) { emit(k, v) })
}

// reduceAny is the ReduceFunc adapter: it unboxes the values into pooled
// scratch, so a call allocates only the box of the state it returns.
func (d *scalarDef[V, S]) reduceAny(key any, states []any) (any, error) {
	k, ok := key.(int64)
	if !ok {
		return nil, scalarRecordErr[V](key, nil)
	}
	buf := d.scratch.Get().(*[]V)
	vals := (*buf)[:0]
	for _, s := range states {
		v, ok := s.(V)
		if !ok {
			d.scratch.Put(buf)
			return nil, scalarRecordErr[V](key, s)
		}
		vals = append(vals, v)
	}
	ns, err := d.reduceFn(k, vals)
	*buf = vals[:0]
	d.scratch.Put(buf)
	if err != nil {
		return nil, err
	}
	return ns, nil
}

// distAny is the DistFunc adapter.
func (d *scalarDef[V, S]) distAny(key, prev, cur any) float64 {
	k, _ := key.(int64)
	p, _ := prev.(V)
	c, _ := cur.(V)
	return d.distFn(k, p, c)
}
