package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/algorithms/sssp"
	"imapreduce/internal/core"
	"imapreduce/internal/graph"
	"imapreduce/internal/imr"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// runSpec is one run's parameters.
type runSpec struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizing
	outDir   string // traced runs write their table and Chrome trace here; "" = nowhere
}

// closedDef describes one closed-loop workload: its graph, its
// transport, and how to write its inputs, build its job and check its
// output.
type closedDef struct {
	graphCfg func(sizing) graph.GenConfig
	tcp      bool
	iters    func(sizing) int
	warmIter func(sizing) int
	write    func(e *closedEnv) error
	job      func(e *closedEnv, iters int) imr.JobSpec
	// verify reads the job's output and compares it with the sequential
	// oracle at the same iteration count.
	verify func(e *closedEnv, res *imr.JobResult, iters int) error
	// chunk returns a real shuffle chunk of this workload's record shape
	// and the ops it is sorted and grouped with; statePart one partition
	// of the records it stores in the DFS.
	chunk     func(e *closedEnv) ([]kv.Pair, kv.Ops)
	statePart func(e *closedEnv) ([]kv.Pair, kv.Ops)
}

const (
	staticPath = "/in/static"
	statePath  = "/in/state"
	chainInput = "/in/combined"
	chainWork  = "/work"
)

var closedDefs = map[string]closedDef{
	wlPagerankTCP: {
		graphCfg: pagerankGraphCfg,
		tcp:      true,
		iters:    func(sz sizing) int { return sz.prIters },
		warmIter: func(sz sizing) int { return sz.prWarmIter },
		write: func(e *closedEnv) error {
			return pagerank.WriteInputs(e.c.FS, e.at(), e.g, staticPath, statePath)
		},
		job: func(e *closedEnv, iters int) imr.JobSpec {
			return imr.JobSpec{Iterative: pagerank.IMRJob(pagerank.IMRConfig{
				Name: wlPagerankTCP, Nodes: e.g.N,
				StaticPath: staticPath, StatePath: statePath, OutputPath: "/out/" + wlPagerankTCP,
				MaxIter: iters, Checkpoint: e.size.prCkpt,
			})}
		},
		verify: func(e *closedEnv, res *imr.JobResult, iters int) error {
			got, err := imr.ReadAllAs[int64, float64](e.c, res.Iterative.OutputPath)
			if err != nil {
				return err
			}
			return compareRanks(got, e.pagerankRef(iters))
		},
		chunk: func(e *closedEnv) ([]kv.Pair, kv.Ops) {
			job := e.def.job(e, 1).Iterative
			rank := 1 / float64(e.g.N)
			return collectChunk(e.g, func(u int32, adj graph.Adj, emit kv.Emit) error {
				return job.Map(int64(u), rank, adj, emit)
			}), job.Ops
		},
		statePart: func(e *closedEnv) ([]kv.Pair, kv.Ops) {
			return pagerank.StatePairs(e.g.N)[:e.g.N/workers], pagerank.StateOps()
		},
	},
	wlSSSPChan: {
		graphCfg: ssspGraphCfg,
		iters:    func(sz sizing) int { return sz.ssspIters },
		warmIter: func(sz sizing) int { return sz.ssspWarm },
		write: func(e *closedEnv) error {
			return sssp.WriteInputs(e.c.FS, e.at(), e.g, ssspSource(e.g), staticPath, statePath)
		},
		job: func(e *closedEnv, iters int) imr.JobSpec {
			return imr.JobSpec{Iterative: sssp.IMRJob(sssp.IMRConfig{
				Name:       wlSSSPChan,
				StaticPath: staticPath, StatePath: statePath, OutputPath: "/out/" + wlSSSPChan,
				MaxIter: iters,
			})}
		},
		verify: func(e *closedEnv, res *imr.JobResult, iters int) error {
			got, err := imr.ReadAllAs[int64, float64](e.c, res.Iterative.OutputPath)
			if err != nil {
				return err
			}
			want, _ := sssp.BellmanFord(e.g, ssspSource(e.g), iters)
			if len(got) != len(want) {
				return fmt.Errorf("output has %d nodes, want %d", len(got), len(want))
			}
			for u, w := range want {
				if g := got[int64(u)]; g != w {
					return fmt.Errorf("node %d: distance %v, want %v", u, g, w)
				}
			}
			return nil
		},
		chunk: func(e *closedEnv) ([]kv.Pair, kv.Ops) {
			job := e.def.job(e, 1).Iterative
			return collectChunk(e.g, func(u int32, adj graph.Adj, emit kv.Emit) error {
				return job.Map(int64(u), float64(u), adj, emit)
			}), job.Ops
		},
		statePart: func(e *closedEnv) ([]kv.Pair, kv.Ops) {
			return sssp.StatePairs(e.g.N, 0)[:e.g.N/workers], sssp.StateOps()
		},
	},
	wlMRChain: {
		graphCfg: pagerankGraphCfg,
		iters:    func(sz sizing) int { return sz.chainIters },
		warmIter: func(sizing) int { return 1 },
		write: func(e *closedEnv) error {
			return e.c.FS.WriteFile(chainInput, e.at(), pagerank.CombinedPairs(e.g), pagerank.CombinedOps())
		},
		job: func(e *closedEnv, iters int) imr.JobSpec {
			spec := pagerank.MRSpec(wlMRChain, chainInput, chainWork, e.g.N, workers, iters, 0)
			return imr.JobSpec{Chain: &spec}
		},
		verify: func(e *closedEnv, res *imr.JobResult, iters int) error {
			out, err := imr.ReadAllAs[int64, mapreduce.IterValue](e.c, res.Chain.OutputPath)
			if err != nil {
				return err
			}
			got := make(map[int64]float64, len(out))
			for k, v := range out {
				r, ok := v.State.(float64)
				if !ok {
					return fmt.Errorf("node %d: state is %T, want float64", k, v.State)
				}
				got[k] = r
			}
			return compareRanks(got, e.pagerankRef(iters))
		},
		chunk: func(e *closedEnv) ([]kv.Pair, kv.Ops) {
			spec := e.def.job(e, 1).Chain
			rank := 1 / float64(e.g.N)
			return collectChunk(e.g, func(u int32, adj graph.Adj, emit kv.Emit) error {
				return spec.Map(int64(u), mapreduce.IterValue{State: rank, Static: adj}, emit)
			}), spec.Ops
		},
		statePart: func(e *closedEnv) ([]kv.Pair, kv.Ops) {
			return pagerank.CombinedPairs(e.g)[:e.g.N/workers], pagerank.CombinedOps()
		},
	},
}

// chunkRecords is the engine's shuffle chunk size in records
// (core.DefaultBufferThreshold): the unit the codec and the sockets see.
const chunkRecords = core.DefaultBufferThreshold

// collectChunk runs a workload's own map function over the graph's
// first nodes until it has emitted one chunk's worth of records.
func collectChunk(g *graph.Graph, mapNode func(u int32, adj graph.Adj, emit kv.Emit) error) []kv.Pair {
	chunk := make([]kv.Pair, 0, chunkRecords)
	emit := func(k, v any) {
		if len(chunk) < chunkRecords {
			chunk = append(chunk, kv.Pair{Key: k, Value: v})
		}
	}
	for u := int32(0); int(u) < g.N && len(chunk) < chunkRecords; u++ {
		dst, w := g.Neighbors(u)
		if err := mapNode(u, graph.Adj{Dst: dst, W: w}, emit); err != nil {
			panic(err) // the catalogue's map functions cannot fail on their own graphs
		}
	}
	return chunk
}

// compareRanks checks a PageRank output against the sequential
// reference to a relative 1e-9 (the engines sum in arrival order, so the
// last bits differ).
func compareRanks(got map[int64]float64, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d nodes, want %d", len(got), len(want))
	}
	for u, w := range want {
		g, ok := got[int64(u)]
		if !ok {
			return fmt.Errorf("node %d missing from output", u)
		}
		if math.Abs(g-w) > 1e-9*math.Abs(w) {
			return fmt.Errorf("node %d: rank %.17g, want %.17g", u, g, w)
		}
	}
	return nil
}

// iterClock timestamps committed iteration boundaries from the master's
// OnIteration callback.
type iterClock struct {
	mu    sync.Mutex
	ticks []iterTick
	spans *spanLog
	job   string
	root  int
}

type iterTick struct {
	at   time.Time
	info core.IterInfo
}

func (k *iterClock) onIteration(info core.IterInfo) {
	now := time.Now()
	k.mu.Lock()
	k.ticks = append(k.ticks, iterTick{at: now, info: info})
	spans, job, root := k.spans, k.job, k.root
	k.mu.Unlock()
	spans.mark("iteration", job, root)
}

// arm clears the clock for the next job; spans (may be nil) receives one
// mark per boundary under the job's root span.
func (k *iterClock) arm(spans *spanLog, job string, root int) {
	k.mu.Lock()
	k.ticks, k.spans, k.job, k.root = nil, spans, job, root
	k.mu.Unlock()
}

func (k *iterClock) take() []iterTick {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.ticks
}

// closedEnv is one set-up closed-loop workload: inputs in the DFS of a
// 4-worker cluster, warmed up and ready for timed jobs.
type closedEnv struct {
	name  string
	def   closedDef
	size  sizing
	c     *imr.Cluster
	net   transport.Network
	tcp   *transport.TCPNetwork // nil on channel clusters
	g     *graph.Graph
	clock iterClock

	refs map[int][]float64 // PageRank reference by iteration count

	generate, newCluster time.Duration
}

func (e *closedEnv) at() string { return e.c.Spec.IDs()[0] }

// pagerankRef caches the sequential reference per iteration count (the
// warm-up and the timed jobs use two); one client, so no lock.
func (e *closedEnv) pagerankRef(iters int) []float64 {
	if r, ok := e.refs[iters]; ok {
		return r
	}
	r := pagerank.Reference(e.g, iters)
	e.refs[iters] = r
	return r
}

func (e *closedEnv) close() {
	_ = e.net.Close() // nothing is in flight: every job was waited for
}

// newCluster builds the common cluster: 4 workers, no emulated Hadoop
// sleeps (they cannot be optimised and hide what can), default DFS and
// core options, heartbeats off.
func newCluster(net transport.Network, onIter func(core.IterInfo)) (*imr.Cluster, error) {
	return imr.NewCluster(imr.Options{
		Workers: workers, Network: net, Metrics: metrics.NewSet(), OnIteration: onIter,
	})
}

// setupClosed performs one full set-up: input generation, NewCluster,
// DFS input write, and one untimed warm-up job (a short run of the same
// job over the same inputs, checked like a timed one).
func setupClosed(ctx context.Context, spec runSpec, spans *spanLog) (*closedEnv, error) {
	def, ok := closedDefs[spec.workload]
	if !ok {
		return nil, fmt.Errorf("bench: %q is not a closed-loop workload", spec.workload)
	}
	e := &closedEnv{name: spec.workload, def: def, size: spec.size, refs: make(map[int][]float64)}
	root := spans.begin("setup", "setup", 0)
	defer spans.end(root)

	sp := spans.begin("graph.Generate", "setup", root)
	e.g, e.generate = seededGraph(def.graphCfg(spec.size), spec.seed)
	spans.end(sp)

	sp = spans.begin("imr.NewCluster", "setup", root)
	start := time.Now()
	if def.tcp {
		e.tcp = transport.NewTCPNetwork()
		e.net = e.tcp
	} else {
		e.net = transport.NewChanNetwork()
	}
	c, err := newCluster(e.net, e.clock.onIteration)
	e.newCluster = time.Since(start)
	spans.end(sp)
	if err != nil {
		_ = e.net.Close()
		return nil, err
	}
	e.c = c

	sp = spans.begin("input-write", "setup", root)
	err = def.write(e)
	spans.end(sp)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("bench: %s: write inputs: %w", e.name, err)
	}

	sp = spans.begin("warm-up", "setup", root)
	_, err = e.runJob(ctx, def.warmIter(spec.size), nil, nil, "warm-up")
	spans.end(sp)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("bench: %s: warm-up job: %w", e.name, err)
	}
	return e, nil
}

// netCounters reads the transport's public accessors; the TCP-only ones
// read 0 on a channel network.
type netCounters struct {
	bytes, msgs, flushes, dials, compressed int64
}

func (e *closedEnv) netSnap() netCounters {
	n := netCounters{bytes: e.net.BytesSent(), msgs: e.net.Messages()}
	if e.tcp != nil {
		n.flushes, n.dials, n.compressed = e.tcp.Flushes(), e.tcp.Dials(), e.tcp.CompressedFrames()
	}
	return n
}

// jobSample is what one timed job yields.
type jobSample struct {
	traced     bool
	iterations int
	submitCall time.Duration // Submit returning a handle
	wall       time.Duration // Submit call → Result
	firstIter  time.Duration // Submit call → first committed iteration
	teardown   time.Duration // last committed iteration → Result
	initTime   time.Duration // core.Result.InitTime
	// deltas[i] is the time of iteration i+2 (iteration 1 carries the
	// init, static load and first dials and is reported on its own);
	// maxTask and jobInit align with it.
	deltas  []time.Duration
	maxTask []time.Duration
	jobInit []time.Duration // mapreduce.IterStats.JobInit, all iterations
	// counters are the deltas of the cluster's metrics over the job, net
	// those of the transport's accessors.
	counters map[string]int64
	net      netCounters
}

// runJob submits one job at the given iteration bound, waits for it and
// checks its output. rec, when set, traces the job (engine events via
// SubmitOptions.Trace, socket flushes via TCPNetwork.SetTrace).
func (e *closedEnv) runJob(ctx context.Context, iters int, rec *trace.Recorder, spans *spanLog, jobID string) (jobSample, error) {
	s := jobSample{traced: rec != nil}
	root := spans.begin("job", jobID, 0)
	defer spans.end(root)
	if e.tcp != nil {
		e.tcp.SetTrace(rec)
		defer e.tcp.SetTrace(nil)
	}
	e.clock.arm(spans, jobID, root)
	before, netBefore := e.c.Metrics.Snapshot(), e.netSnap()

	sp := spans.begin("imr.Submit", jobID, root)
	t0 := time.Now()
	h, err := e.c.Submit(ctx, e.def.job(e, iters), imr.SubmitOptions{Trace: rec})
	s.submitCall = time.Since(t0)
	spans.end(sp)
	if err != nil {
		return s, err
	}
	sp = spans.begin("JobHandle.Result", jobID, root)
	res, err := h.Result()
	done := time.Now()
	spans.end(sp)
	if err != nil {
		return s, err
	}
	s.wall = done.Sub(t0)

	netAfter := e.netSnap()
	s.net = netCounters{
		bytes: netAfter.bytes - netBefore.bytes, msgs: netAfter.msgs - netBefore.msgs,
		flushes: netAfter.flushes - netBefore.flushes, dials: netAfter.dials - netBefore.dials,
		compressed: netAfter.compressed - netBefore.compressed,
	}
	s.counters = e.c.Metrics.Snapshot()
	for name, v := range before {
		s.counters[name] -= v
	}

	switch {
	case res.Iterative != nil:
		ticks := e.clock.take()
		r := res.Iterative
		if len(ticks) != r.Iterations || r.Iterations != iters {
			return s, fmt.Errorf("ran %d iterations and reported %d boundaries, want %d", r.Iterations, len(ticks), iters)
		}
		s.iterations, s.initTime = r.Iterations, r.InitTime
		s.firstIter = ticks[0].at.Sub(t0)
		s.teardown = done.Sub(ticks[len(ticks)-1].at)
		for i := 1; i < len(ticks); i++ {
			s.deltas = append(s.deltas, ticks[i].at.Sub(ticks[i-1].at))
			s.maxTask = append(s.maxTask, ticks[i].info.MaxTaskElapsed)
		}
	case res.Chain != nil:
		r := res.Chain
		if r.Iterations != iters || len(r.Stats) != iters {
			return s, fmt.Errorf("chain ran %d iterations, want %d", r.Iterations, iters)
		}
		s.iterations = r.Iterations
		s.firstIter = r.Stats[0].JobWall + r.Stats[0].CheckWall
		s.teardown = s.wall - r.TotalWall
		for i, st := range r.Stats {
			s.jobInit = append(s.jobInit, st.JobInit)
			if i > 0 {
				s.deltas = append(s.deltas, st.JobWall+st.CheckWall)
			}
		}
	}

	sp = spans.begin("output-read+oracle-check", jobID, root)
	err = e.def.verify(e, res, iters)
	spans.end(sp)
	if err != nil {
		return s, fmt.Errorf("wrong output: %w", err)
	}
	return s, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// runClosed is one run of a closed-loop workload: one client, the next
// job submitted only after the previous one's result.
func runClosed(ctx context.Context, spec runSpec, host Host) (*RunResult, error) {
	res := newResult(spec, host)
	var spans *spanLog
	if spec.trace {
		spans = newSpanLog()
	}
	env, err := setUpRepeatedly(res, spec, func() (*closedEnv, error) { return setupClosed(ctx, spec, spans) })
	if err != nil {
		return nil, err
	}
	defer env.close()

	iters := env.def.iters(spec.size)
	var plain, traced []jobSample
	var lastRec *trace.Recorder
	var rt runtimeSnap // allocation and GC accounting summed over the untraced jobs
	rss := startRSSSampler()
	start := time.Now()
	for n := 0; ; n++ {
		enough := len(plain) >= 2 && (!spec.trace || len(traced) >= 1)
		if enough && time.Since(start).Seconds() >= spec.seconds {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", spec.workload, context.Cause(ctx))
		}
		// A traced run alternates untraced and traced jobs on the same
		// cluster, so the two iteration times it compares saw the same
		// heap, the same sockets and the same neighbours.
		var rec *trace.Recorder
		var before runtimeSnap
		if spec.trace && n%2 == 1 {
			rec = trace.NewRecorder(spec.size.traceRing)
		} else if spec.trace {
			before = snapRuntime()
		}
		res.Attempted++
		s, err := env.runJob(ctx, iters, rec, spans, fmt.Sprintf("job-%d", n))
		if err != nil {
			res.fail("job %d: %v", n, err)
			if res.Failed >= 3 {
				break
			}
			continue
		}
		switch {
		case rec != nil:
			traced, lastRec = append(traced, s), rec
		case spec.trace:
			rt.add(snapRuntime(), before)
			fallthrough
		default:
			plain = append(plain, s)
		}
	}
	rssMB := rss.finish(res)
	res.timing("rss_peak_mb", []float64{rssPeakMB()})
	res.Counts["timed_jobs"] = len(plain)
	res.Counts["traced_jobs"] = len(traced)
	if len(plain) == 0 {
		return res, nil
	}

	var walls, firsts, deltas []float64
	for _, s := range plain {
		walls = append(walls, ms(s.wall))
		firsts = append(firsts, ms(s.firstIter))
		deltas = append(deltas, msAll(s.deltas)...)
	}
	jobMS := res.timing("job_ms", walls)
	iterMS := res.timing("iter_ms", deltas)
	firstMS := res.timing("first_iter_ms", firsts)

	if !spec.trace {
		res.set("setup_s", res.Timings["setup_s"].Median)
		res.set("rss_mb", rssMB)
		res.set("job_ms", jobMS)
		res.set("medges_per_s", float64(env.g.Edges())*float64(iters)/(jobMS/1000)/1e6)
		return res, nil
	}

	res.set("iter_ms", iterMS)
	res.set("first_iter_ms", firstMS)
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted))
	layerMetrics(res, env, plain, traced, iterMS)
	rt.report(res, len(plain)*iters)
	res.set("graph.generate_ms", ms(env.generate))
	res.set("imr.newcluster_ms", ms(env.newCluster))

	chunk, ops := env.def.chunk(env)
	part, partOps := env.def.statePart(env)
	sp := spans.begin("layer-probes", "probes", 0)
	probeKV(res, chunk, ops)
	probeTransport(res, chunk, env.tcp != nil)
	probeDFS(res, part, partOps)
	spans.end(sp)

	var events []trace.Event
	var decomp *trace.Decomposition
	if lastRec != nil {
		events = lastRec.Events()
		d := decompositionMetrics(res, events)
		decomp = &d
		res.set("trace.dropped_events", float64(lastRec.Dropped()))
		events = append(events, spans.asTraceEvents(lastRec)...)
	}
	if err := writeTraceFiles(spec, res, decomp, events, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics that come from the timed
// jobs themselves: Result/IterInfo/IterStats fields, public counters,
// and the traced job's factor decomposition.
func layerMetrics(res *RunResult, env *closedEnv, plain, traced []jobSample, iterMS float64) {
	var inits, teardowns, submits, maxTasks, jobInits, ckptIters, otherIters []float64
	ckptEvery := 0
	if job := env.def.job(env, 1).Iterative; job != nil {
		ckptEvery = job.CheckpointEvery
	}
	for _, s := range plain {
		inits = append(inits, ms(s.initTime))
		teardowns = append(teardowns, ms(s.teardown))
		submits = append(submits, us(s.submitCall))
		maxTasks = append(maxTasks, msAll(s.maxTask)...)
		jobInits = append(jobInits, msAll(s.jobInit)...)
		for i, d := range s.deltas {
			if iter := i + 2; ckptEvery > 0 && iter%ckptEvery == 0 {
				ckptIters = append(ckptIters, ms(d))
			} else {
				otherIters = append(otherIters, ms(d))
			}
		}
	}
	res.set("imr.submit_call_us", res.timing("imr.submit_call_us", submits))
	res.set("core.teardown_ms", res.timing("core.teardown_ms", teardowns))
	tail := res.Timings["iter_ms"]
	res.set("core.iter_tail_ms", tail.Tail)
	res.set("core.iter_tail_pct", tail.TailPct)
	if len(plain[0].maxTask) > 0 { // iterative engine
		res.set("core.init_ms", res.timing("core.init_ms", inits))
		maxTask := res.timing("core.max_task_ms", maxTasks)
		res.set("core.max_task_ms", maxTask)
		res.set("core.barrier_gap_ms", iterMS-maxTask)
	}
	if len(ckptIters) > 0 {
		res.set("core.ckpt_iter_extra_ms", res.timing("ckpt_iter_ms", ckptIters)-res.timing("plain_iter_ms", otherIters))
	}
	if len(jobInits) > 0 { // baseline engine
		res.set("mapreduce.job_init_ms", res.timing("mapreduce.job_init_ms", jobInits))
	}

	// Counters: the median over the timed jobs, per job or per iteration
	// (every job runs the same number). They should repeat exactly from
	// job to job; where they do not, the range is noted.
	iterations := float64(plain[0].iterations)
	perJob := func(metric string, get func(jobSample) int64) float64 {
		vals := make([]float64, len(plain))
		for i, s := range plain {
			vals[i] = float64(get(s))
		}
		d := summarize(vals) // sorts vals
		if lo, hi := vals[0], vals[len(vals)-1]; lo != hi {
			res.note("%s did not repeat exactly across jobs: %g .. %g per job", metric, lo, hi)
		}
		return d.Median
	}
	perIter := func(metric string, get func(jobSample) int64) float64 {
		return perJob(metric, get) / iterations
	}
	counter := func(name string) func(jobSample) int64 {
		return func(s jobSample) int64 { return s.counters[name] }
	}
	share := func(part, whole string) float64 {
		var p, w int64
		for _, s := range plain {
			p += s.counters[part]
			w += s.counters[whole]
		}
		if w == 0 {
			return 0
		}
		return float64(p) / float64(w)
	}
	netBytes := perIter("transport bytes", func(s jobSample) int64 { return s.net.bytes })
	netMsgs := perIter("transport messages", func(s jobSample) int64 { return s.net.msgs })
	if env.tcp != nil {
		res.set("transport.tcp_bytes_per_iter", netBytes)
		res.set("transport.tcp_msgs_per_iter", netMsgs)
		res.set("transport.tcp_flushes_per_iter", perIter("tcp flushes", func(s jobSample) int64 { return s.net.flushes }))
		res.set("transport.tcp_compressed_frames", float64(plain[0].net.compressed))
		res.set("transport.tcp_dials", float64(plain[0].net.dials))
	} else {
		res.set("transport.chan_msgs_per_iter", netMsgs)
	}
	res.set("dfs.write_bytes_per_iter", perIter(metrics.DFSWriteBytes, counter(metrics.DFSWriteBytes)))
	res.set("dfs.read_bytes_per_iter", perIter(metrics.DFSReadBytes, counter(metrics.DFSReadBytes)))
	res.set("dfs.read_remote_share", share(metrics.DFSReadRemote, metrics.DFSReadBytes))
	if plain[0].jobInit == nil {
		res.set("core.shuffle_bytes_per_iter", perIter(metrics.ShuffleBytes, counter(metrics.ShuffleBytes)))
		res.set("core.state_bytes_per_iter", perIter(metrics.StateBytes, counter(metrics.StateBytes)))
		res.set("core.shuffle_remote_share", share(metrics.ShuffleRemote, metrics.ShuffleBytes))
		res.set("core.checkpoints", perJob(metrics.Checkpoints, counter(metrics.Checkpoints)))
	} else {
		res.set("mapreduce.shuffle_bytes_per_iter", perIter(metrics.ShuffleBytes, counter(metrics.ShuffleBytes)))
		res.set("mapreduce.tasks_per_iter", perIter(metrics.TasksLaunched, counter(metrics.TasksLaunched)))
		res.set("mapreduce.jobs_launched", perJob(metrics.JobsLaunched, counter(metrics.JobsLaunched)))
	}
	res.set("core.send_retries", perJob(metrics.SendRetries, counter(metrics.SendRetries)))
	res.set("core.send_failures", perJob(metrics.SendFailures, counter(metrics.SendFailures)))

	if len(traced) > 0 {
		var tracedDeltas []float64
		for _, s := range traced {
			tracedDeltas = append(tracedDeltas, msAll(s.deltas)...)
		}
		if iterMS > 0 {
			res.set("trace.overhead_share", res.timing("traced_iter_ms", tracedDeltas)/iterMS-1)
		}
	}
}

// decompositionMetrics reports the Fig. 10 factor shares of one traced
// job's event stream.
func decompositionMetrics(res *RunResult, events []trace.Event) trace.Decomposition {
	d := trace.Decompose(events)
	t := d.Totals()
	if covered := t.Covered(); covered > 0 {
		res.set("core.init_share", float64(t.Init)/float64(covered))
		res.set("core.shuffle_share", float64(t.Shuffle)/float64(covered))
		res.set("core.syncwait_share", float64(t.SyncWait)/float64(covered))
		res.set("core.compute_share", float64(t.Compute)/float64(covered))
	}
	res.set("core.decomp_coverage", d.Coverage())
	return d
}
