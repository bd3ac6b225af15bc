// Seeded chaos soak: one deterministic fault schedule interleaving
// worker crashes, undetected stalls, link partitions, DFS datanode
// failures, and full engine kills against an iterative job, asserting
// the final output is bit-identical to a fault-free run of the same
// job. The schedule, the graph, and the transport's drop/dup/reorder
// pattern are all derived from one seed, so any failure replays from
// that seed alone.
package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/algorithms/sssp"
	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/graph"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// Soak fault kinds. A schedule with at least five events covers every
// kind at least once.
const (
	SoakCrash      = "crash"      // announced worker failure (§3.4.1 rollback)
	SoakStall      = "stall"      // undetected hang, caught by heartbeats
	SoakPartition  = "partition"  // master<->task link severed, healed later
	SoakDFSFail    = "dfsfail"    // datanode loss, healed by re-replication
	SoakEngineKill = "enginekill" // whole-engine death, healed by Resume
)

// SoakEvent is one scheduled fault. AtIter is the committed-iteration
// threshold that triggers it; Worker names the victim (crash, stall,
// dfsfail), Task the reduce task whose master link is cut (partition),
// and Dur how long a stall, partition, or datanode outage lasts.
type SoakEvent struct {
	Kind   string
	AtIter int
	Worker string
	Task   int
	Dur    time.Duration
}

// SoakConfig parameterizes one soak run. The zero value is filled with
// small-but-meaningful defaults; Seed selects the entire fault pattern.
type SoakConfig struct {
	Seed    int64
	Algo    string // "sssp" (default) or "pagerank"
	Workers int    // cluster size (default 3)
	Nodes   int    // graph size (default 192)
	Iters   int    // fixed iteration count (default 12)
	Ckpt    int    // CheckpointEvery (default 2)
	Events  int    // scheduled faults (default 5, one per kind)
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Algo == "" {
		c.Algo = "sssp"
	}
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Nodes <= 0 {
		c.Nodes = 192
	}
	if c.Iters <= 0 {
		c.Iters = 12
	}
	if c.Ckpt <= 0 {
		c.Ckpt = 2
	}
	if c.Events <= 0 {
		c.Events = 5
	}
	return c
}

// SoakReport summarizes one soak run for the caller (and, on failure,
// for the reproduction message).
type SoakReport struct {
	Seed       int64
	Algo       string
	Schedule   []SoakEvent
	Restarts   int // engine kills survived via Resume
	Recoveries int // worker-failure rollbacks inside runs
	Iterations int
	Drops      int64
	Dups       int64
	Reorders   int64
	Keys       int
}

// SoakSchedule derives the deterministic fault schedule for cfg: same
// config, same schedule. With Events >= 5 every fault kind appears at
// least once; extra events draw kinds uniformly. Events are ordered by
// trigger iteration.
func SoakSchedule(cfg SoakConfig) []SoakEvent {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	kinds := []string{SoakCrash, SoakStall, SoakPartition, SoakDFSFail, SoakEngineKill}
	events := make([]SoakEvent, cfg.Events)
	perm := rng.Perm(len(kinds))
	span := cfg.Iters - 3
	if span < 1 {
		span = 1
	}
	for i := range events {
		kind := kinds[rng.Intn(len(kinds))]
		if i < len(kinds) {
			kind = kinds[perm[i]]
		}
		ev := SoakEvent{
			Kind:   kind,
			AtIter: 1 + rng.Intn(span),
			Worker: fmt.Sprintf("worker-%d", rng.Intn(cfg.Workers)),
			Task:   rng.Intn(cfg.Workers),
		}
		switch kind {
		case SoakStall:
			// Stalls must overshoot the heartbeat tolerance (200ms, see
			// soakOptions) by a wide margin so detection is certain while
			// honest scheduling jitter on a loaded machine stays far
			// below it.
			ev.Dur = 400*time.Millisecond + time.Duration(rng.Intn(300))*time.Millisecond
		case SoakPartition:
			// Kept well inside the ReliableSend retry envelope so cut
			// links heal before senders give up.
			ev.Dur = 10*time.Millisecond + time.Duration(rng.Intn(30))*time.Millisecond
		case SoakDFSFail:
			ev.Dur = 30*time.Millisecond + time.Duration(rng.Intn(50))*time.Millisecond
		}
		events[i] = ev
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].AtIter < events[j].AtIter })
	return events
}

// soakJob builds the iterative job under test. The reduce is paced a
// little so iterations are wide enough for the fault driver to land
// every scheduled event, and PageRank's floating-point sum is made
// order-independent by sorting contributions first (SSSP's min already
// is), so a chaotic run can be compared bit-for-bit with a calm one.
func soakJob(cfg SoakConfig, g *graph.Graph) *core.Job {
	var job *core.Job
	switch cfg.Algo {
	case "pagerank":
		job = pagerank.IMRJob(pagerank.IMRConfig{
			Name: "soak-pagerank", Nodes: g.N,
			StaticPath: "/static", StatePath: "/state",
			MaxIter: cfg.Iters, Checkpoint: cfg.Ckpt,
		})
	default:
		job = sssp.IMRJob(sssp.IMRConfig{
			Name:       "soak-sssp",
			StaticPath: "/static", StatePath: "/state",
			MaxIter: cfg.Iters, Checkpoint: cfg.Ckpt,
		})
	}
	base := job.Reduce
	job.Reduce = func(key any, states []any) (any, error) {
		time.Sleep(150 * time.Microsecond)
		if cfg.Algo == "pagerank" {
			slices.SortFunc(states, func(a, b any) int { return cmp.Compare(a.(float64), b.(float64)) })
		}
		return base(key, states)
	}
	return job
}

// soakGraph generates the (seeded, hence identical across the calm and
// chaotic runs) input graph.
func soakGraph(cfg SoakConfig) *graph.Graph {
	return graph.Generate(graph.GenConfig{
		Nodes:    cfg.Nodes,
		Degree:   graph.LogNormalParams{Mu: 0.8, Sigma: 0.8},
		Weighted: cfg.Algo != "pagerank",
		Weight:   graph.SSSPWeight,
		Seed:     cfg.Seed,
	})
}

func soakWriteInputs(cfg SoakConfig, fs *dfs.DFS, at string, g *graph.Graph) error {
	if cfg.Algo == "pagerank" {
		return pagerank.WriteInputs(fs, at, g, "/static", "/state")
	}
	return sssp.WriteInputs(fs, at, g, 0, "/static", "/state")
}

func soakOutput(fs *dfs.DFS, at, dir string) (map[int64]float64, error) {
	out := map[int64]float64{}
	for _, p := range fs.List(dir + "/") {
		recs, err := fs.ReadFile(p, at)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			out[r.Key.(int64)] = r.Value.(float64)
		}
	}
	return out, nil
}

// soakOptions: heartbeats on so stalls are *detected* faults, generous
// send retries so partitions inside the schedule's durations heal
// before any sender gives up. The 200ms miss tolerance sits a factor
// of two under the shortest injected stall (400ms) and far above the
// scheduling jitter of a loaded or single-CPU machine — tightening it
// reintroduces spurious all-workers-dead flakes.
func soakOptions(onIter func(core.IterInfo)) core.Options {
	return core.Options{
		Timeout:           time.Minute,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   10,
		SendRetries:       9,
		OnIteration:       onIter,
	}
}

// Soak runs cfg's deterministic fault schedule against a chaotic
// cluster and compares the final output bit-for-bit with a fault-free
// run of the same job on a calm cluster. A non-nil error means the
// soak failed; replaying with the same SoakConfig reproduces it
// exactly.
func Soak(cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	sched := SoakSchedule(cfg)
	g := soakGraph(cfg)
	rep := &SoakReport{Seed: cfg.Seed, Algo: cfg.Algo, Schedule: sched}

	// Calm reference run.
	refSpec := cluster.Uniform(cfg.Workers)
	refFS := dfs.New(dfs.Config{BlockSize: 1 << 16, Replication: 2}, refSpec.IDs(), nil)
	if err := soakWriteInputs(cfg, refFS, refSpec.IDs()[0], g); err != nil {
		return rep, err
	}
	// The reference run injects no faults, so aggressive failure
	// detection buys nothing and costs flake: on a loaded (or
	// single-CPU) machine a scheduling hiccup longer than the 50ms
	// chaotic-run tolerance spuriously kills every calm worker at once.
	// Keep heartbeats on but give the calm cluster two full seconds of
	// silence before declaring anyone dead.
	refOpts := soakOptions(nil)
	refOpts.HeartbeatInterval = 50 * time.Millisecond
	refOpts.HeartbeatMisses = 40
	refEng, err := core.NewEngine(refFS, transport.NewChanNetwork(), refSpec, nil, refOpts)
	if err != nil {
		return rep, err
	}
	refRes, err := refEng.Run(soakJob(cfg, g))
	if err != nil {
		return rep, fmt.Errorf("reference run: %w", err)
	}
	want, err := soakOutput(refFS, refSpec.IDs()[0], refRes.OutputPath)
	if err != nil {
		return rep, err
	}

	// Chaotic run: seeded lossy transport, replication 3 so a datanode
	// outage never makes a block unreachable.
	spec := cluster.Uniform(cfg.Workers)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 16, Replication: 3}, spec.IDs(), m)
	fnet := transport.NewFaultyNetwork(transport.NewChanNetwork(), transport.FaultyOptions{
		Seed: cfg.Seed, DropRate: 0.02, DupRate: 0.02, ReorderRate: 0.02,
	})
	if err := soakWriteInputs(cfg, fs, spec.IDs()[0], g); err != nil {
		return rep, err
	}
	job := soakJob(cfg, g)

	var iterNow atomic.Int64
	opts := soakOptions(func(it core.IterInfo) {
		for {
			cur := iterNow.Load()
			if int64(it.Iter) <= cur || iterNow.CompareAndSwap(cur, int64(it.Iter)) {
				return
			}
		}
	})
	// The current run's engine, and the cancel of its context; kill is
	// nil between runs.
	var engMu sync.Mutex
	var eng *core.Engine
	var kill context.CancelCauseFunc
	current := func() (*core.Engine, context.CancelCauseFunc) {
		engMu.Lock()
		defer engMu.Unlock()
		return eng, kill
	}
	newRun := func() (*core.Engine, context.Context, error) {
		e, err := core.NewEngine(fs, fnet, spec, m, opts)
		if err != nil {
			return nil, nil, err
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		engMu.Lock()
		eng, kill = e, cancel
		engMu.Unlock()
		return e, ctx, nil
	}
	endRun := func() {
		engMu.Lock()
		kill(nil)
		kill = nil
		engMu.Unlock()
	}

	done := make(chan struct{})
	var healers sync.WaitGroup
	fire := func(ev SoakEvent) {
		switch ev.Kind {
		case SoakCrash, SoakEngineKill:
			// The run may be mid-restart when the event fires: keep
			// trying until an active run accepts the fault.
			deadline := time.After(2 * time.Second)
			for {
				e, kill := current()
				if ev.Kind == SoakCrash {
					if e.FailWorker(ev.Worker) == nil {
						return
					}
				} else if kill != nil {
					kill(core.ErrKilled)
					return
				}
				select {
				case <-done:
					return
				case <-deadline:
					return
				case <-time.After(time.Millisecond):
				}
			}
		case SoakStall:
			e, _ := current()
			e.StallWorker(ev.Worker, ev.Dur)
		case SoakPartition:
			a := job.Name + "/master"
			b := fmt.Sprintf("%s/red/0/%d", job.Name, ev.Task)
			fnet.Partition(a, b)
			healers.Add(1)
			go func() {
				defer healers.Done()
				time.Sleep(ev.Dur)
				fnet.Heal(a, b)
			}()
		case SoakDFSFail:
			fs.FailNode(ev.Worker)
			healers.Add(1)
			go func() {
				defer healers.Done()
				time.Sleep(ev.Dur)
				fs.RestoreNode(ev.Worker)
			}()
		}
	}
	go func() {
		idx := 0
		for idx < len(sched) {
			select {
			case <-done:
				return
			default:
			}
			if iterNow.Load() >= int64(sched[idx].AtIter) {
				fire(sched[idx])
				idx++
				continue
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var res *core.Result
	resume := false
	for {
		e, ctx, err := newRun()
		if err != nil {
			close(done)
			return rep, err
		}
		if resume {
			res, err = e.ResumeCtx(ctx, job)
		} else {
			res, err = e.RunCtx(ctx, job)
		}
		endRun()
		if errors.Is(err, core.ErrKilled) {
			rep.Restarts++
			resume = true
			continue
		}
		if err != nil {
			close(done)
			return rep, fmt.Errorf("chaotic run: %w", err)
		}
		break
	}
	close(done)
	healers.Wait()

	rep.Iterations = res.Iterations
	rep.Recoveries = res.Recoveries
	rep.Drops = fnet.Drops()
	rep.Dups = fnet.Dups()
	rep.Reorders = fnet.Reorders()
	rep.Keys = len(want)

	got, err := soakOutput(fs, spec.IDs()[0], res.OutputPath)
	if err != nil {
		return rep, err
	}
	if len(got) != len(want) {
		return rep, fmt.Errorf("chaotic run produced %d keys, fault-free run %d", len(got), len(want))
	}
	for k, w := range want {
		gv, ok := got[k]
		if !ok {
			return rep, fmt.Errorf("key %d missing from chaotic output", k)
		}
		if gv != w {
			return rep, fmt.Errorf("key %d: chaotic %v != fault-free %v", k, gv, w)
		}
	}
	return rep, nil
}
