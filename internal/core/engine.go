package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// Options tunes the engine.
type Options struct {
	// LoadBalance enables per-iteration task-pair migration (§3.4.2).
	LoadBalance bool
	// LBThreshold is the relative deviation of the slowest worker from
	// the trimmed average that triggers a migration. Default 0.25.
	LBThreshold float64
	// LBMinIter is the first iteration at which migration may happen
	// (early iterations are noisy). Default 3.
	LBMinIter int
	// Timeout aborts a run whose master hears nothing for this long —
	// a deadlock/livelock backstop. Default 2 minutes.
	Timeout time.Duration

	// HeartbeatInterval enables heartbeat failure detection (§3.4.1
	// extended): every persistent task beats the master at this
	// interval, and a worker none of whose tasks has beaten for
	// HeartbeatInterval×HeartbeatMisses is declared failed and recovered
	// through the same rollback-to-checkpoint path an injected failure
	// takes. 0 (the default) disables detection; failures must then be
	// announced via FailWorker.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many consecutive silent intervals declare a
	// worker dead. Default 3.
	HeartbeatMisses int
	// SendRetries bounds how many times the engine retries a failed
	// transport send (control commands, data chunks, reports) before
	// abandoning the frame and counting it in metrics.SendFailures.
	// Retries back off exponentially from SendRetryBackoff. Default 3.
	SendRetries int
	// SendRetryBackoff is the initial retry backoff. Default 1ms.
	SendRetryBackoff time.Duration
	// CheckpointRetries bounds how many times a reduce task retries a
	// failed checkpoint DFS write (with exponential backoff and node
	// re-placement) before abandoning that checkpoint — the run then
	// continues with an older rollback target instead of dying. Default 4.
	CheckpointRetries int
	// CheckpointRetryBackoff is the initial checkpoint retry backoff.
	// Default 2ms.
	CheckpointRetryBackoff time.Duration

	// Parallelism bounds how many pair-loop shards one task may execute
	// concurrently (the task goroutine plus Parallelism-1 run-scoped pool
	// workers). 0 (the default) means runtime.GOMAXPROCS(0); 1 forces the
	// serial path. Sharding preserves output order exactly — shards are
	// contiguous ranges merged in order — so results are identical to the
	// serial execution for any value.
	Parallelism int

	// Trace receives the run's structured events: task lifecycle,
	// per-iteration spans per task pair, transport retries. nil (the
	// default) disables tracing; every emission site is behind a nil
	// check and reads no clock, so the off path is free.
	Trace *trace.Recorder
	// OnIteration, if set, is called from the master goroutine at every
	// committed iteration boundary with that iteration's merged info.
	// It must return quickly: the master loop blocks on it.
	OnIteration func(IterInfo)
}

// Engine executes iMapReduce jobs over a DFS, a transport network and a
// cluster spec. The file system is the dfs.FS interface: the master's
// engine holds the real *dfs.DFS, while the engine a WorkerHost builds
// as task context holds a *dfs.Client talking to the master's block
// service — task code cannot tell the difference.
type Engine struct {
	fs   dfs.FS
	net  transport.Network
	spec cluster.Spec
	m    *metrics.Set
	opts Options

	// rc, when set via AttachRemote, names registered worker processes
	// as the hosts a run's plans go to; otherwise the engine starts one
	// host per spec worker itself (see hosts).
	rc *RemoteCluster

	mu           sync.Mutex
	running      bool
	activeMaster transport.Endpoint
	// cancelRun cancels the active run's context; Kill uses it to
	// emulate a whole-process crash (master included).
	cancelRun context.CancelCauseFunc

	// stallMu guards stalls: per-worker wake-up times for injected
	// undetected hangs (StallWorker). Tasks consult it at every
	// processing and heartbeat point.
	stallMu sync.Mutex
	stalls  map[string]time.Time
}

// NewEngine creates an engine. m may be nil.
func NewEngine(fs dfs.FS, net transport.Network, spec cluster.Spec, m *metrics.Set, opts Options) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.LBThreshold <= 0 {
		opts.LBThreshold = 0.25
	}
	if opts.LBMinIter <= 0 {
		opts.LBMinIter = 3
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Minute
	}
	if opts.HeartbeatMisses <= 0 {
		opts.HeartbeatMisses = 3
	}
	if opts.SendRetries <= 0 {
		opts.SendRetries = 3
	}
	if opts.SendRetryBackoff <= 0 {
		opts.SendRetryBackoff = time.Millisecond
	}
	if opts.CheckpointRetries <= 0 {
		opts.CheckpointRetries = 4
	}
	if opts.CheckpointRetryBackoff <= 0 {
		opts.CheckpointRetryBackoff = 2 * time.Millisecond
	}
	return &Engine{fs: fs, net: net, spec: spec, m: m, opts: opts, stalls: make(map[string]time.Time)}, nil
}

// sendReliable sends through the endpoint with the engine's bounded
// retry policy, counting retries and abandoned frames. It returns the
// final error so callers that must not lose the frame can escalate;
// task-side callers escalate only transport.ErrUnencodable (shutdown
// races are expected).
func (e *Engine) sendReliable(ep transport.Endpoint, to string, msg transport.Message) error {
	attempts, err := transport.ReliableSend(ep, to, msg, e.opts.SendRetries, e.opts.SendRetryBackoff)
	if attempts > 1 {
		e.m.Add(metrics.SendRetries, int64(attempts-1))
		e.opts.Trace.Emit(trace.KindSendRetry, "", -1, 0, trace.Attr{Key: "to", Value: to})
	}
	if err != nil {
		e.m.Add(metrics.SendFailures, 1)
		e.opts.Trace.Emit(trace.KindSendFail, "", -1, 0, trace.Attr{Key: "to", Value: to})
	}
	return err
}

// FS returns the engine's file system.
func (e *Engine) FS() dfs.FS { return e.fs }

// Spec returns the engine's cluster spec.
func (e *Engine) Spec() cluster.Spec { return e.spec }

// stretch emulates a slow worker by padding a nominal compute duration.
func (e *Engine) stretch(worker string, d time.Duration) {
	if extra := e.spec.StretchFor(worker, d) - d; extra > 0 {
		time.Sleep(extra)
	}
}

// ErrKilled is the cause a killed run's error wraps: Kill emulates the
// whole engine process dying mid-run.
var ErrKilled = errors.New("core: engine killed")

// Kill tears the active run down as if the engine process crashed: the
// master stops coordinating, every task aborts *without* writing final
// output, and the run returns an error wrapping ErrKilled. The DFS
// contents — checkpoints and committed manifests — survive untouched,
// so a fresh engine over the same DFS can Resume the job.
func (e *Engine) Kill() error {
	e.mu.Lock()
	cancel := e.cancelRun
	e.mu.Unlock()
	if cancel == nil {
		return fmt.Errorf("core: no active run")
	}
	cancel(ErrKilled)
	return nil
}

// FailWorker injects a worker crash into the active run: the master
// recovers by re-placing the worker's task pairs and rolling every task
// back to the last durable checkpoint (§3.4.1).
func (e *Engine) FailWorker(id string) error {
	e.mu.Lock()
	ep := e.activeMaster
	e.mu.Unlock()
	if ep == nil {
		return fmt.Errorf("core: no active run")
	}
	return ep.Send(ep.Addr(), transport.Message{Kind: kindFail, Payload: failMsg{Worker: id}})
}

// StallWorker freezes every task currently bound to worker id for d: the
// tasks stop processing messages and stop heartbeating but announce
// nothing — an *undetected* hang (GC pause, swap storm, wedged runtime).
// With heartbeat detection enabled (Options.HeartbeatInterval > 0) the
// master notices the missed beats, declares the worker failed, and rolls
// back to the last checkpoint; the stalled goroutines wake afterwards
// and rejoin at the new generation. Without detection the run sits until
// the stall ends or the global Timeout fires.
func (e *Engine) StallWorker(id string, d time.Duration) {
	until := time.Now().Add(d)
	e.stallMu.Lock()
	if cur, ok := e.stalls[id]; !ok || until.After(cur) {
		e.stalls[id] = until
	}
	e.stallMu.Unlock()
}

// stallPoint blocks the calling task goroutine while its worker is
// inside an injected hang window.
func (e *Engine) stallPoint(worker string) {
	e.stallMu.Lock()
	until, ok := e.stalls[worker]
	if ok && !time.Now().Before(until) {
		delete(e.stalls, worker) // expired: clean up lazily
		ok = false
	}
	e.stallMu.Unlock()
	if ok {
		if d := time.Until(until); d > 0 {
			time.Sleep(d)
		}
	}
}

// IterInfo describes one completed iteration.
type IterInfo struct {
	Iter int
	// Dist is the merged distance against the previous iteration (0
	// when the job has no Distance function).
	Dist float64
	// CompletedAt is when the iteration's last reduce report arrived,
	// measured from Run start.
	CompletedAt time.Duration
	// MaxTaskElapsed is the slowest task's processing time this
	// iteration — the signal the load balancer works from.
	MaxTaskElapsed time.Duration
	// CumShuffleBytes and CumStateBytes are the engine's cumulative
	// traffic counters sampled at this iteration boundary. With
	// asynchronous maps the next iteration may already be in flight, so
	// per-iteration deltas are approximate.
	CumShuffleBytes int64
	CumStateBytes   int64
}

// Result reports a completed run.
type Result struct {
	Iterations    int
	Converged     bool // stopped by DistThreshold or the auxiliary decision
	InitTime      time.Duration
	PerIter       []IterInfo
	TotalWall     time.Duration
	OutputPath    string
	OutputRecords int
	Migrations    int
	Recoveries    int
}

// runState is the shared routing table for one run. Task goroutines
// consult worker bindings through it; the master updates them on
// migration and recovery.
type runState struct {
	name       string
	mainPhases int
	mainTasks  int
	auxTasks   int
	outputPath string

	// pool is the run-scoped worker pool tasks shard their pair loops
	// across; closed (and joined) at run teardown.
	pool *workerPool

	mu         sync.RWMutex
	pairWorker []string // main task pairs
	auxWorker  []string
}

// newRunState builds the routing table for the run meta describes, with
// meta's placement when it carries one.
func newRunState(meta runMeta, pool *workerPool) *runState {
	run := &runState{
		name:       meta.Name,
		mainPhases: meta.MainPhases,
		mainTasks:  meta.MainTasks,
		auxTasks:   meta.AuxTasks,
		outputPath: meta.OutputPath,
		pool:       pool,
		pairWorker: make([]string, meta.MainTasks),
		auxWorker:  make([]string, meta.AuxTasks),
	}
	copy(run.pairWorker, meta.Placement)
	copy(run.auxWorker, meta.AuxPlacement)
	return run
}

func (r *runState) ckptPath(iter, part int) string { return ckptPath(r.name, iter, part) }

// ckptPath is the checkpoint file of partition part at iteration iter of
// the job named name.
func ckptPath(name string, iter, part int) string {
	return fmt.Sprintf("/_imr/%s/ckpt-%06d/part-%d", name, iter, part)
}

func (r *runState) staticPartPath(phase, part int) string {
	return fmt.Sprintf("/_imr/%s/static-%d/part-%d", r.name, phase, part)
}

// workerOfPhasePair returns the worker currently hosting pair idx of the
// given global phase (auxiliary phases index their own table).
func (r *runState) workerOfPhasePair(phase, idx int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if phase >= r.mainPhases {
		return r.auxWorker[idx]
	}
	return r.pairWorker[idx]
}

func (r *runState) setPairWorker(idx int, w string, aux bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if aux {
		r.auxWorker[idx] = w
	} else {
		r.pairWorker[idx] = w
	}
}

// Run executes job to termination. One run at a time per engine:
// concurrent calls return an error rather than sharing endpoints.
func (e *Engine) Run(job *Job) (*Result, error) {
	return e.RunCtx(context.Background(), job)
}

// RunCtx is Run with cancellation: when ctx is done the master aborts
// every task and returns an error wrapping ctx's cause, so
// errors.Is(err, context.Canceled) (or DeadlineExceeded) holds. A
// canceled run writes no final output.
func (e *Engine) RunCtx(ctx context.Context, job *Job) (*Result, error) {
	return e.runCtx(ctx, job, false)
}

// Resume cold-restarts job from its newest durable checkpoint: the
// engine (typically a fresh one, after the previous engine died)
// discovers the newest complete manifest in the DFS, verifies it
// (partition files present with matching sizes and CRCs, job
// fingerprint matching the submitted definition), rebuilds the run
// state, and continues from the manifest's iteration. The completed
// run's output is identical to an uninterrupted run of the same job.
func (e *Engine) Resume(job *Job) (*Result, error) {
	return e.ResumeCtx(context.Background(), job)
}

// ResumeCtx is Resume with cancellation.
func (e *Engine) ResumeCtx(ctx context.Context, job *Job) (*Result, error) {
	return e.runCtx(ctx, job, true)
}

func (e *Engine) runCtx(ctx context.Context, job *Job, resume bool) (*Result, error) {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: engine already has an active run")
	}
	e.running = true
	e.mu.Unlock()
	ctx, cancel := context.WithCancelCause(ctx)
	e.mu.Lock()
	e.cancelRun = cancel
	e.mu.Unlock()
	defer func() {
		cancel(nil)
		e.mu.Lock()
		e.running = false
		e.cancelRun = nil
		e.mu.Unlock()
	}()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: job %s: %w", job.Name, err)
	}
	start := time.Now()
	e.opts.Trace.Emit(trace.KindRunStart, "master", -1, 0, trace.Attr{Key: "job", Value: job.Name})
	phases := job.Phases()
	aux := job.auxiliary
	for i, p := range phases {
		if err := p.validate(i, false); err != nil {
			return nil, err
		}
		if i > 0 && p.auxiliary != nil {
			return nil, fmt.Errorf("core: job %s: auxiliary phases attach to the first job only", p.Name)
		}
	}
	if aux != nil {
		if err := aux.validate(0, true); err != nil {
			return nil, err
		}
		if job.AuxDecide == nil {
			return nil, fmt.Errorf("core: job %s has an auxiliary phase but no AuxDecide", job.Name)
		}
	}
	last := phases[len(phases)-1]
	if last.MaxIter <= 0 && (last.DistThreshold <= 0 || last.Distance == nil) && aux == nil {
		return nil, fmt.Errorf("core: job %s has no termination condition", job.Name)
	}
	if last.Mapping == OneToAll && len(phases) > 1 {
		return nil, fmt.Errorf("core: job %s: OneToAll loop-back with multiple phases is unsupported", job.Name)
	}

	workers := e.spec.IDs()
	n := job.NumTasks
	if n <= 0 {
		n = len(workers)
	}
	auxN := 0
	if aux != nil {
		auxN = aux.NumTasks
		if auxN <= 0 {
			auxN = n
		}
		if aux.Mapping == OneToOne && auxN != n {
			return nil, fmt.Errorf("core: auxiliary phase with OneToOne mapping needs NumTasks == main (%d != %d)", auxN, n)
		}
		if aux.Mapping == OneToAll && aux.StaticPath == "" {
			return nil, fmt.Errorf("core: auxiliary OneToAll phase needs StaticPath")
		}
	}
	if job.Mapping == OneToAll && job.StaticPath == "" {
		return nil, fmt.Errorf("core: OneToAll job needs StaticPath")
	}

	// Persistent tasks need enough slots to all start at once (§3.1.1).
	perWorkerMain := (n + len(workers) - 1) / len(workers) * len(phases)
	perWorkerAux := 0
	if aux != nil {
		perWorkerAux = (auxN + len(workers) - 1) / len(workers)
	}
	if need := perWorkerMain + perWorkerAux; need > e.spec.MapSlots || need > e.spec.ReduceSlots {
		return nil, fmt.Errorf("core: job %s needs %d persistent task slots per worker, cluster provides %d map / %d reduce; lower NumTasks or raise slots",
			job.Name, need, e.spec.MapSlots, e.spec.ReduceSlots)
	}

	meta := runMeta{Name: job.Name, MainPhases: len(phases), MainTasks: n, AuxTasks: auxN, OutputPath: job.OutputDir()}
	run := newRunState(meta, newWorkerPool(e.opts.Parallelism))
	// The pool is owned here, where it is created: every return below —
	// a rejected manifest, a failed partition write, a failed deploy, the
	// end of the run — releases its workers. This defer runs after the
	// host teardown registered further down, so on a clean return the
	// tasks are already joined and the workers idle; a failed run may
	// leave a shard wedged inside a user function, hence the grace.
	defer run.pool.stop(500 * time.Millisecond)
	for i := 0; i < n; i++ {
		run.pairWorker[i] = workers[i%len(workers)]
	}
	for i := 0; i < auxN; i++ {
		run.auxWorker[i] = workers[i%len(workers)]
	}

	// Resume: locate and verify the newest durable manifest before
	// spending anything on initialization. Its placement is adopted when
	// every recorded worker is still in the cluster, so partitions land
	// where their data already is; otherwise the round-robin default
	// stands and reads go remote.
	resumeFrom := 0
	if resume {
		man, err := e.findManifest(job, n, auxN, len(phases))
		if err != nil {
			return nil, err
		}
		resumeFrom = man.Iter
		known := make(map[string]bool, len(workers))
		for _, w := range workers {
			known[w] = true
		}
		adopt := len(man.Placement) == n && len(man.AuxPlacement) == auxN
		for _, w := range append(append([]string(nil), man.Placement...), man.AuxPlacement...) {
			if !known[w] {
				adopt = false
			}
		}
		if adopt {
			copy(run.pairWorker, man.Placement)
			copy(run.auxWorker, man.AuxPlacement)
		}
		e.m.Add(metrics.RunsResumed, 1)
		e.opts.Trace.Emit(trace.KindResume, "master", -1, resumeFrom,
			trace.Attr{Key: "job", Value: job.Name})
	}

	e.m.Add(metrics.JobsLaunched, 1)

	// The one job submission and the one round of persistent-task
	// launches pay the scheduling overheads exactly once (§3.1.1).
	time.Sleep(e.spec.JobInitOverhead + e.spec.TaskStartOverhead)

	// One-time initialization (§3.1): partition the static data of every
	// phase and the initial state once, placing each part at its pair's
	// worker so subsequent loads are local. The initial state doubles as
	// checkpoint 0, the rollback base. A resumed run reuses the partition
	// files already in the DFS; a fresh run first clears the job's
	// checkpoint namespace so a stale manifest from an earlier run under
	// the same name can never satisfy a later Resume.
	staticPartsExist := func(phase, count int) bool {
		for i := 0; i < count; i++ {
			if !e.fs.Exists(run.staticPartPath(phase, i)) {
				return false
			}
		}
		return true
	}
	if !resume {
		e.gcCheckpoints(run, math.MaxInt)
	}
	for pi, p := range phases {
		if p.StaticPath == "" || (resume && staticPartsExist(pi, n)) {
			continue
		}
		if err := e.partitionToDFS(p.StaticPath, p.Ops, n, run, func(i int) string { return run.staticPartPath(pi, i) }, false); err != nil {
			return nil, fmt.Errorf("core: job %s: static init: %w", job.Name, err)
		}
	}
	if aux != nil && aux.StaticPath != "" && !(resume && staticPartsExist(len(phases), auxN)) {
		auxPhase := len(phases)
		if err := e.partitionToDFS(aux.StaticPath, aux.Ops, auxN, run, func(i int) string { return run.staticPartPath(auxPhase, i) }, true); err != nil {
			return nil, fmt.Errorf("core: job %s: aux static init: %w", job.Name, err)
		}
	}
	if !resume {
		if err := e.partitionToDFS(job.StatePath, last.Ops, n, run, func(i int) string { return run.ckptPath(0, i) }, false); err != nil {
			return nil, fmt.Errorf("core: job %s: state init: %w", job.Name, err)
		}
		// Checkpoint 0 is durable from the start: a run killed before its
		// first periodic checkpoint resumes from the initial state.
		if err := e.commitManifest(run, confFingerprint(job), 0, len(phases)); err != nil {
			return nil, fmt.Errorf("core: job %s: %w", job.Name, err)
		}
	}

	// Build and start the persistent tasks: every worker's host gets its
	// plan and the run begins once all of them have acknowledged.
	master, err := e.net.Endpoint(masterAddr(job.Name))
	if err != nil {
		return nil, err
	}
	plans := e.newPlanner(job, meta, run, master, buildTaskSet(job.Name, len(phases), n, auxN))
	stopHosts, err := e.hosts(job, plans)
	if err != nil {
		master.Close()
		return nil, err
	}
	ckpts := &ckptLedger{e: e, run: run, fp: confFingerprint(job), last: resumeFrom}
	var runErr error
	defer func() {
		stopHosts(runErr != nil)
		master.Close()
		if runErr == nil {
			ckpts.settle(master.Recv())
		}
		e.mu.Lock()
		e.activeMaster = nil
		e.mu.Unlock()
	}()
	if runErr = plans.deploy(workers); runErr != nil {
		return nil, runErr
	}
	e.mu.Lock()
	e.activeMaster = master
	e.mu.Unlock()

	initTime := time.Since(start)
	// The one-time init (§3.1) is charged to iteration 1, the way the
	// paper's first-iteration curves embed it.
	e.opts.Trace.RecordSpan(trace.SpanRunInit, "master", -1, 1, start, initTime)
	res, err := e.masterLoop(ctx, job, phases, aux, n, auxN, plans, start, ckpts)
	runErr = err
	e.opts.Trace.Emit(trace.KindRunFinish, "master", -1, 0, trace.Attr{Key: "job", Value: job.Name})
	if err != nil {
		return nil, err
	}
	res.InitTime = initTime
	res.TotalWall = time.Since(start)
	res.OutputPath = run.outputPath
	return res, nil
}

// partitionToDFS reads a DFS input file, partitions its records with ops
// into parts, and writes each part at the worker hosting that pair —
// reads happen at a replica holder (local), writes pin the first replica
// at the consuming worker.
func (e *Engine) partitionToDFS(path string, ops kv.Ops, parts int, run *runState, partPath func(int) string, aux bool) error {
	splits, err := e.fs.Splits(path)
	if err != nil {
		return err
	}
	out := make([][]kv.Pair, parts)
	for _, s := range splits {
		at := ""
		if len(s.Locations) > 0 {
			at = s.Locations[0]
		}
		recs, err := e.fs.ReadSplit(s, at)
		if err != nil {
			return err
		}
		for _, r := range recs {
			p := ops.Partition(r.Key, parts)
			out[p] = append(out[p], r)
		}
	}
	for i, recs := range out {
		w := run.pairWorker[i]
		if aux {
			w = run.auxWorker[i]
		}
		if err := e.fs.WriteFile(partPath(i), w, recs, ops); err != nil {
			return err
		}
	}
	return nil
}

// taskSet is the address bookkeeping of a run, for command fan-out.
type taskSet struct {
	all []string // every task endpoint address
	// phase0Maps are the self-loading maps that receive the go command.
	phase0Maps []string
	// termReds are the termination-phase reduces (proceed commands and
	// final output).
	termReds []string
}

// hosts is the one place the two deployments differ: where the run's
// plans go, and what ends the run there. With a RemoteCluster attached
// they go to the registered worker processes — found through its
// directory, started and stopped by someone else — and stop releases
// the run on each. Otherwise membership is the spec: the engine starts
// one host per worker over its own network and file system, handing
// each the submitted job itself (no registry, no join or ping, no
// dfs.Client hop); their control addresses carry the job name because
// several engines' runs may share the network. These hosts live as
// long as the run: stop closes their control endpoints, which tears
// each one's run down, and joins them — every task goroutine with its
// checkpoint writers, so nothing the run owns touches the DFS or the
// network after a completed Run returns. A failed run may hold a task
// wedged inside a user function (that is how silence timeouts arise),
// so its stop waits only a short grace before abandoning the
// stragglers, whose later shards run inline: runShards never blocks on
// the stopped pool.
func (e *Engine) hosts(job *Job, plans *planner) (stop func(failed bool), err error) {
	if rc := e.rc; rc != nil {
		plans.ctl, plans.dir = ctlAddr, rc.dir
		if hp, ok := rc.net.ListenAddr(plans.master.Addr()); ok {
			rc.dir.Set(plans.master.Addr(), hp)
		}
		return func(bool) { plans.release() }, nil
	}
	plans.ctl = func(worker string) string { return job.Name + "/" + ctlAddr(worker) }
	var ctls []transport.Endpoint
	var wg sync.WaitGroup
	for _, w := range e.spec.IDs() {
		ctl, err := e.net.Endpoint(plans.ctl(w))
		if err != nil {
			for _, c := range ctls {
				c.Close() // the hosts started so far exit on it
			}
			return nil, err
		}
		ctls = append(ctls, ctl)
		h := &host{id: w, net: e.net, ctl: ctl, open: func(planMsg) (*Job, *Engine, *workerPool, error) {
			return job, e, plans.run.pool, nil
		}}
		wg.Add(1)
		go func() { defer wg.Done(); h.serve() }()
	}
	return func(failed bool) {
		for _, c := range ctls {
			c.Close()
		}
		var grace time.Duration
		if failed {
			grace = 500 * time.Millisecond
		}
		joinWithin(&wg, grace)
	}, nil
}
