// Package mapreduce is the from-scratch baseline engine: a Hadoop-like
// batch MapReduce with a job tracker, per-worker task slots,
// locality-aware split scheduling, sort/partition/shuffle, combiners
// and task retry. It is the comparator the paper evaluates iMapReduce
// against, including the iterative-driver pattern (one job per iteration
// plus a convergence-check job) whose overheads iMapReduce eliminates.
package mapreduce

import (
	"fmt"
	"time"

	"imapreduce/internal/kv"
)

// MapFunc is the user map operation: called once per input record.
type MapFunc func(key, value any, emit kv.Emit) error

// SourceMapFunc is a map operation that also receives the input path of
// its split, the way Hadoop mappers can read their InputSplit. The
// iterative driver uses it to tag records by originating file in the
// convergence-check job.
type SourceMapFunc func(path string, key, value any, emit kv.Emit) error

// ReduceFunc is the user reduce (and combine) operation: called once per
// key group. The values slice belongs to the grouping that produced it
// (kv.Grouper's shared values array): the function may read it, reorder
// it and keep its elements, but must not retain the slice itself past
// its return — Hadoop's contract for the values iterator. The array
// outlives the job: it is cleared when the attempt ends and regrouped
// by later attempts of the same chain, so a retained slice would read
// nils or another job's values.
type ReduceFunc func(key any, values []any, emit kv.Emit) error

// Job configures one MapReduce job.
type Job struct {
	Name string
	// Input paths in the DFS; one map task is created per block of each
	// input file, as in Hadoop.
	Input []string
	// Output is the DFS directory; reduce task r writes
	// Output + "/part-<r>".
	Output string

	// Exactly one of Map, MapSrc and MapCnt must be set; MapCnt
	// additionally receives attempt-local Counters.
	Map    MapFunc
	MapSrc SourceMapFunc
	MapCnt MapCounterFunc
	// Combine, if set, runs over each map task's local output per
	// partition before the shuffle (Hadoop's Combiner).
	Combine ReduceFunc
	// Exactly one of Reduce and ReduceCnt must be set.
	Reduce    ReduceFunc
	ReduceCnt ReduceCounterFunc

	NumReduce int
	Ops       kv.Ops
}

func (j *Job) validate() error {
	if j.Name == "" {
		return fmt.Errorf("mapreduce: job without a name")
	}
	if len(j.Input) == 0 {
		return fmt.Errorf("mapreduce: job %s has no input", j.Name)
	}
	if j.Output == "" {
		return fmt.Errorf("mapreduce: job %s has no output path", j.Name)
	}
	mapVariants := 0
	for _, set := range []bool{j.Map != nil, j.MapSrc != nil, j.MapCnt != nil} {
		if set {
			mapVariants++
		}
	}
	if mapVariants != 1 {
		return fmt.Errorf("mapreduce: job %s must set exactly one of Map, MapSrc and MapCnt", j.Name)
	}
	if (j.Reduce == nil) == (j.ReduceCnt == nil) {
		return fmt.Errorf("mapreduce: job %s must set exactly one of Reduce and ReduceCnt", j.Name)
	}
	if j.NumReduce <= 0 {
		return fmt.Errorf("mapreduce: job %s needs NumReduce > 0", j.Name)
	}
	if !j.Ops.Valid() {
		return fmt.Errorf("mapreduce: job %s: Ops not built by kv.OpsFor", j.Name)
	}
	return nil
}

// JobResult reports one job's execution.
type JobResult struct {
	Name string
	// Wall is the total job time including scheduling overheads.
	Wall time.Duration
	// Init is the initialization share of Wall: job submission overhead
	// plus the average delay until map tasks begin their map operations
	// (the paper's §4.2 measurement).
	Init time.Duration
	// ShuffleBytes is the map→reduce volume; ShuffleRemote the part
	// that crossed worker boundaries.
	ShuffleBytes  int64
	ShuffleRemote int64
	// OutputRecords counts reduce output records across partitions.
	OutputRecords int
	OutputPath    string
	// MapAttempts / ReduceAttempts include retries.
	MapAttempts    int
	ReduceAttempts int
	// Counters aggregates the user counters of the winning task
	// attempts (never nil; empty unless MapCnt/ReduceCnt were used).
	Counters *Counters
}

// IterValue is the baseline's combined record layout for iterative
// algorithms (paper §2.1): the iterated state and the static data travel
// together through map, shuffle, reduce and DFS on every iteration. This
// is precisely the redundancy iMapReduce's static/state separation
// removes.
type IterValue struct {
	State  any
	Static any
}

// Bytes implements kv.Sized.
func (v IterValue) Bytes() int {
	return kv.DefaultSize(v.State) + kv.DefaultSize(v.Static)
}

// Tagged marks a record with the input it came from; the iterative
// driver's convergence-check job uses it to pair previous and current
// states under one key.
type Tagged struct {
	Src int // 0 = previous iteration, 1 = current
	Val any
}

// Bytes implements kv.Sized.
func (t Tagged) Bytes() int { return 1 + kv.DefaultSize(t.Val) }

func init() {
	// The nested any fields encode through the kv value registry; a
	// payload type without a codec refuses the record, which fails the
	// write with an error naming that type.
	kv.Register(func(f *kv.Fields, v *IterValue) { f.Value(&v.State); f.Value(&v.Static) })
	kv.Register(func(f *kv.Fields, t *Tagged) { f.Int(&t.Src); f.Value(&t.Val) })
}
