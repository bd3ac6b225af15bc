// Package core implements iMapReduce, the paper's contribution: a
// MapReduce-style engine with built-in iteration support.
//
// Compared to the baseline engine (internal/mapreduce), core provides:
//
//   - Persistent tasks (§3.1.1): map/reduce task pairs are created once
//     and stay alive across every iteration, eliminating per-iteration
//     job and task scheduling.
//   - Static/state separation (§3.2): the unchanged data (graph
//     adjacency, point coordinates, the multiplicand matrix) is
//     partitioned and loaded once; only the iterated state is shuffled.
//     The engine joins state and static records automatically before
//     each map invocation.
//   - Persistent reduce→map connections (§3.2.1): reduce task i streams
//     its output directly to map task i over one persistent connection;
//     the pair is placed on the same worker so the transfer is local.
//   - Asynchronous map execution (§3.3): a map task starts as soon as
//     state data arrives from its reduce task, without waiting for the
//     other reduce tasks; sends are buffered to avoid eager-trigger
//     context switching.
//   - Termination (§3.1.2): by iteration bound or by a user Distance
//     function whose per-task sums the master merges each iteration.
//   - Fault tolerance (§3.4.1): reduce tasks checkpoint state to DFS
//     every few iterations; recovery rolls every task back to the last
//     checkpoint and relaunches lost pairs elsewhere.
//   - Load balancing (§3.4.2): per-iteration completion reports let the
//     master migrate a task pair from the slowest worker to the fastest.
//   - Extensions (§5): one-to-all broadcast from reduces to maps
//     (K-means), multiple map-reduce phases per iteration via
//     AddSuccessor (matrix power), and auxiliary map-reduce phases via
//     AddAuxiliary (convergence detection).
package core

import (
	"fmt"

	"imapreduce/internal/kv"
)

// MapFunc is the iMapReduce map interface (§3.5): one input key with its
// state value and its joined static value. In OneToOne mapping it is
// invoked once per arriving state record, with static the record joined
// by key (nil when the key has no static record). In OneToAll mapping it
// is invoked once per *static* record, and state carries []kv.Pair — the
// full broadcast state set from all reduce tasks (§5.1.2).
type MapFunc func(key, state, static any, emit kv.Emit) error

// ReduceFunc is the iMapReduce reduce interface (§3.5): the input values
// are state data only (static data never reaches reduce), and the return
// value is the key's new state.
//
// The states slice is a window of the task's grouping scratch, reused
// for the next iteration's groups: a reduce may read it, reorder it and
// keep any of its elements, but must not retain the slice itself past
// its return (Hadoop's contract for the values iterator). Copy it to
// keep it.
type ReduceFunc func(key any, states []any) (any, error)

// DistFunc measures a key's change between consecutive iterations
// (§3.5); the engine sums it across keys and tasks and the master
// compares the total against the job's DistThreshold.
type DistFunc func(key, prev, curr any) float64

// Mapping selects how reduce output reaches the next map (§5.1).
type Mapping int

const (
	// OneToOne connects reduce task i to map task i; state records stay
	// in their partition. The default, used by the graph algorithms.
	OneToOne Mapping = iota
	// OneToAll broadcasts every reduce task's output to every map task;
	// map execution is necessarily synchronous. Used by K-means.
	OneToAll
)

func (m Mapping) String() string {
	if m == OneToAll {
		return "one2all"
	}
	return "one2one"
}

// Job configures one iMapReduce computation. The field set mirrors the
// paper's JobConf parameters (mapred.iterjob.*).
type Job struct {
	Name string

	// StatePath is the DFS path of the initial state records
	// (mapred.iterjob.statepath). Required on the first phase.
	StatePath string
	// StaticPath is the DFS path of the static records
	// (mapred.iterjob.staticpath); empty means the phase has no static
	// data and map's static argument is always nil.
	StaticPath string
	// OutputPath receives the final state when the iteration
	// terminates; it is written once (§3.1).
	OutputPath string

	Map    MapFunc
	Reduce ReduceFunc
	// Combine, if set, aggregates each outgoing shuffle chunk per key on
	// the map side before it is sent — Hadoop's Combiner, which the
	// paper applies to K-means (§5.1.3) to cut shuffle volume. Its
	// output values must be acceptable reduce inputs. Like a ReduceFunc,
	// it must not retain the values slice past its return.
	Combine func(key any, values []any) (any, error)
	// Distance enables distance-based termination
	// (mapred.iterjob.disthresh); may be nil when only MaxIter is used.
	Distance DistFunc

	// MaxIter is the iteration bound (mapred.iterjob.maxiter); 0 means
	// unbounded (then DistThreshold or an auxiliary decision must stop
	// the job).
	MaxIter int
	// DistThreshold stops the job when the merged distance between two
	// consecutive iterations falls below it.
	DistThreshold float64

	// NumTasks is the number of persistent map-reduce task pairs;
	// 0 means one pair per worker. The engine verifies the cluster has
	// enough task slots for all pairs to start at once (§3.1.1).
	NumTasks int

	// Mapping selects one-to-one or one-to-all reduce→map connections
	// (mapred.iterjob.mapping).
	Mapping Mapping
	// SyncMap forces synchronous map execution
	// (mapred.iterjob.sync); implied by OneToAll.
	SyncMap bool

	// BufferThreshold is the number of output records a reduce task
	// buffers before flushing to its map task (§3.3); 0 means the
	// engine default (DefaultBufferThreshold).
	BufferThreshold int
	// CheckpointEvery dumps the state to DFS every this many iterations
	// for fault tolerance (§3.4.1); 0 disables periodic checkpoints
	// (the initial state is always checkpointed as iteration 0).
	CheckpointEvery int

	// Ops supplies hashing/ordering/sizing for this phase's keys and
	// values.
	Ops kv.Ops

	// AuxDecide, with AddAuxiliary, receives the auxiliary phase's
	// reduce output each iteration and returns true to terminate the
	// main job (§5.3).
	AuxDecide func(iter int, outputs []kv.Pair) bool

	// Registry and Params identify this job in the process-global job
	// registry so a remote worker can rebuild the identical definition
	// from a plan message (functions do not cross the wire). Builders in
	// internal/jobs set them; required for remote runs, ignored
	// in-process.
	Registry string
	Params   map[string]string

	successor *Job
	auxiliary *Job
	// scalar is set by ScalarJob.Build (see columnLoops).
	scalar scalarLoops
}

// OutputDir is the directory a run of j writes its final state to:
// OutputPath, or /_imr/<Name>/output when that is empty.
func (j *Job) OutputDir() string {
	if j.OutputPath != "" {
		return j.OutputPath
	}
	return "/_imr/" + j.Name + "/output"
}

// AddSuccessor chains another map-reduce phase after this one inside
// each iteration (§5.2.2, job1.addSuccessor(job2)). The last phase
// implicitly feeds the first, closing the loop; do not add the first job
// as an explicit successor. Termination settings (MaxIter,
// DistThreshold, Distance, OutputPath, checkpoints) are taken from the
// chain's final phase.
func (j *Job) AddSuccessor(next *Job) { j.successor = next }

// AddAuxiliary attaches an auxiliary map-reduce phase (§5.3,
// job1.addAuxiliary(job2)): each iteration, the main chain's final
// reduce output is also fed to aux's map tasks; aux's reduce output is
// delivered to the main job's AuxDecide at the master, which can
// terminate the computation. The auxiliary phase runs in parallel with
// the main iteration.
func (j *Job) AddAuxiliary(aux *Job) { j.auxiliary = aux }

// Phases returns the main chain starting at j.
func (j *Job) Phases() []*Job {
	var out []*Job
	for p := j; p != nil; p = p.successor {
		out = append(out, p)
		if len(out) > 64 {
			panic("core: successor chain too long or cyclic")
		}
	}
	return out
}

// DefaultBufferThreshold is the reduce→map send buffer size in records
// when Job.BufferThreshold is zero.
const DefaultBufferThreshold = 512

func (j *Job) validate(phaseIdx int, isAux bool) error {
	where := fmt.Sprintf("core: job %s (phase %d)", j.Name, phaseIdx)
	if j.Name == "" {
		return fmt.Errorf("core: job without a name")
	}
	if j.Map == nil || j.Reduce == nil {
		return fmt.Errorf("%s: Map and Reduce are required", where)
	}
	if !j.Ops.Valid() {
		return fmt.Errorf("%s: Ops not built by kv.OpsFor", where)
	}
	if phaseIdx == 0 && !isAux && j.StatePath == "" {
		return fmt.Errorf("%s: first phase needs StatePath", where)
	}
	if j.Mapping == OneToAll && phaseIdx > 0 && !isAux {
		return fmt.Errorf("%s: OneToAll is only supported on the first phase", where)
	}
	if isAux && (j.successor != nil || j.auxiliary != nil) {
		return fmt.Errorf("%s: auxiliary phases cannot chain further phases", where)
	}
	return nil
}
