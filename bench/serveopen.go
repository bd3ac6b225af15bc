package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/core"
	"imapreduce/internal/graph"
	"imapreduce/internal/imr"
	"imapreduce/internal/jobs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/serve"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

const (
	serveSlots      = 4
	serveQueueLimit = 4096
	serveInputName  = "lgin" // every job reads /jobs/lgin/{static,state}
	// serveJobTimeout bounds one job's wait; a job that overruns it is
	// canceled and counts as failed.
	serveJobTimeout = 30 * time.Second
	// tracedSliceMax caps the traced slice at the middle rate.
	tracedSliceMax = 5 * time.Second
	// jobTraceRing is each traced job's recorder capacity (a 4-iteration
	// job on 256 nodes emits a few hundred events).
	jobTraceRing = 2048
)

var serveTenants = []string{"alpha", "beta"}

// servePhaseShare is the share of --seconds each phase's send window
// takes. The last quarter is for the drains, of which only the burst's
// is long: past saturation the service completes about two jobs for
// every three offered.
const servePhaseShare = 0.25

// serveEnv is one set-up serve-open workload: the shared input in the
// DFS of a 4-worker channel cluster, warmed up by the solo run whose
// output checksum every later job must reproduce.
type serveEnv struct {
	size   sizing
	c      *imr.Cluster
	net    transport.Network
	g      *graph.Graph
	params map[string]string
	sum    string // the solo run's output checksum
	// What the cluster's and the network's counters read when the set-up
	// was over: the phases' counts are taken from there.
	base     map[string]int64
	baseMsgs int64

	generate, newCluster time.Duration
}

func (e *serveEnv) close() { _ = e.net.Close() }

// job builds arrival i's job: the shared input, a collision-free name
// and its own output directory under the tenant's root.
func (e *serveEnv) job(tenant string, i int) (*core.Job, error) {
	job, err := jobs.Build("pagerank", e.params)
	if err != nil {
		return nil, err
	}
	job.Name = fmt.Sprintf("lg-%d", i)
	job.OutputPath = fmt.Sprintf("%s/lg-%d/out", serve.TenantRoot(tenant), i)
	return job, nil
}

// outputSum folds the checksums of a job's output parts, in path order,
// into one string, and removes the parts (a client that has consumed
// its result does not leave it in the DFS).
func (e *serveEnv) outputSum(dir string) (string, error) {
	parts := e.c.FS.List(dir + "/")
	if len(parts) == 0 {
		return "", fmt.Errorf("no output under %s", dir)
	}
	sort.Strings(parts)
	sum := ""
	for _, p := range parts {
		s, err := e.c.FS.Checksum(p)
		if err != nil {
			return "", err
		}
		sum += strconv.FormatUint(uint64(s), 16) + "."
		e.c.FS.Delete(p)
	}
	return sum, nil
}

func setupServe(ctx context.Context, spec runSpec, spans *spanLog) (*serveEnv, error) {
	sz := spec.size
	e := &serveEnv{size: sz, params: map[string]string{
		"name": serveInputName, "nodes": strconv.Itoa(sz.serveNodes),
		"maxiter": strconv.Itoa(sz.serveIters), "ckpt": "0",
	}}
	root := spans.begin("setup", "setup", 0)
	defer spans.end(root)

	sp := spans.begin("graph.Generate", "setup", root)
	e.g, e.generate = seededGraph(serveGraphCfg(sz), spec.seed)
	spans.end(sp)

	sp = spans.begin("imr.NewCluster", "setup", root)
	start := time.Now()
	e.net = transport.NewChanNetwork()
	c, err := newCluster(e.net, nil)
	e.newCluster = time.Since(start)
	spans.end(sp)
	if err != nil {
		_ = e.net.Close()
		return nil, err
	}
	e.c = c

	sp = spans.begin("input-write", "setup", root)
	in := "/jobs/" + serveInputName
	err = pagerank.WriteInputs(c.FS, c.Spec.IDs()[0], e.g, in+"/static", in+"/state")
	spans.end(sp)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("bench: %s: write inputs: %w", spec.workload, err)
	}

	// Reference first: the solo run, checked against the sequential
	// oracle, whose checksum every later job must match.
	sp = spans.begin("warm-up", "setup", root)
	defer spans.end(sp)
	job, err := e.job("solo", -1)
	if err != nil {
		e.close()
		return nil, err
	}
	h, err := c.Submit(ctx, imr.JobSpec{Iterative: job}, imr.SubmitOptions{})
	if err == nil {
		_, err = h.Result()
	}
	if err == nil {
		var got map[int64]float64
		if got, err = imr.ReadAllAs[int64, float64](c, job.OutputPath); err == nil {
			err = compareRanks(got, pagerank.Reference(e.g, sz.serveIters))
		}
	}
	if err == nil {
		e.sum, err = e.outputSum(job.OutputPath)
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("bench: %s: solo run: %w", spec.workload, err)
	}
	if err := e.warmUp(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("bench: %s: warm-up: %w", spec.workload, err)
	}
	e.base, e.baseMsgs = c.Metrics.Snapshot(), e.net.Messages()
	return e, nil
}

// warmUp runs the first serveWarm arrivals' jobs through a service one
// at a time, so that the first timed arrival meets engine pools, a heap
// and a DFS namespace that have run jobs before (and so that set-up is
// long enough to time: without it, it is over in 2 ms).
func (e *serveEnv) warmUp(ctx context.Context) error {
	svc, err := newService(e, 0, nil)
	if err != nil {
		return err
	}
	defer svc.Close()
	for i := 0; i < e.size.serveWarm; i++ {
		tenant := serveTenants[i%len(serveTenants)]
		job, err := e.job(tenant, i)
		if err != nil {
			return err
		}
		j, err := svc.Submit(ctx, imr.JobSpec{Iterative: job}, imr.SubmitOptions{Tenant: tenant})
		if err != nil {
			return err
		}
		if err := j.Wait(ctx); err != nil {
			return err
		}
		if sum, err := e.outputSum(job.OutputPath); err != nil || sum != e.sum {
			return fmt.Errorf("job %s: output checksum %s (%v), solo run's is %s", j.ID(), sum, err, e.sum)
		}
	}
	return nil
}

// phaseResult is one drained open-loop phase.
type phaseResult struct {
	rate     int
	arrivals int
	failed   int
	// lat is due time → completion for every job that finished with the
	// right output; late is how far behind its due time each arrival
	// was sent; admit the Service.Submit call itself.
	lat, late, admit   []float64
	firstIter, deltas  []float64 // from each result's IterInfo
	firstDue, lastDone time.Time
	queuedMid          int // Stats().Queued at the send window's midpoint
	queuedEnd          int // and at its end
	queueWait          time.Duration
	dispatched         int64
	jobs               []*serve.Job // kept only when tracing
	errs               []string
}

// goodput is completions per second from the first due time to the last
// completion.
func (p *phaseResult) goodput() float64 {
	if len(p.lat) == 0 {
		return 0
	}
	return float64(len(p.lat)) / p.lastDone.Sub(p.firstDue).Seconds()
}

// runPhase offers arrivals jobs at a fixed rate from one sending
// goroutine, on a schedule that does not slow when the service does,
// then drains: it returns once every admitted job has finished.
func runPhase(ctx context.Context, e *serveEnv, svc *serve.Service, rate, arrivals, firstIdx int, keepJobs bool) *phaseResult {
	p := &phaseResult{rate: rate, arrivals: arrivals}
	interval := time.Second / time.Duration(rate)
	waitBefore := e.c.Metrics.Span(metrics.ServeQueueWait)
	dispBefore := e.c.Metrics.Get(metrics.ServeDispatched)

	var mu sync.Mutex
	var wg sync.WaitGroup
	failed := func(format string, args ...any) {
		mu.Lock()
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	p.firstDue = time.Now().Add(5 * time.Millisecond)
	for i := 0; i < arrivals; i++ {
		if i == arrivals/2 {
			p.queuedMid = svc.Stats().Queued
		}
		tenant := serveTenants[i%len(serveTenants)]
		job, err := e.job(tenant, firstIdx+i)
		if err != nil {
			failed("arrival %d: %v", i, err)
			continue
		}
		due := p.firstDue.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		sent := time.Now()
		j, err := svc.Submit(ctx, imr.JobSpec{Iterative: job}, imr.SubmitOptions{Tenant: tenant})
		p.admit = append(p.admit, us(time.Since(sent)))
		p.late = append(p.late, ms(sent.Sub(due)))
		if err != nil {
			failed("arrival %d refused: %v", i, err) // a refused job misses the latency limit
			continue
		}
		if keepJobs {
			p.jobs = append(p.jobs, j)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, cancel := context.WithTimeout(ctx, serveJobTimeout)
			err := j.Wait(wctx)
			done := time.Now()
			cancel()
			if err != nil && wctx.Err() != nil {
				j.Cancel()
				_ = j.Wait(context.Background()) // drain, so the next phase starts idle
				err = fmt.Errorf("not finished within %s", serveJobTimeout)
			}
			if err != nil {
				failed("job %s: %v", j.ID(), err)
				return
			}
			res, _ := j.Result()
			sum, err := e.outputSum(job.OutputPath)
			if err == nil && sum != e.sum {
				err = fmt.Errorf("output checksum %s, solo run's is %s", sum, e.sum)
			}
			if err != nil {
				failed("job %s: wrong output: %v", j.ID(), err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			p.lat = append(p.lat, ms(done.Sub(due)))
			if done.After(p.lastDone) {
				p.lastDone = done
			}
			if it := res.Iterative; it != nil && len(it.PerIter) > 0 {
				p.firstIter = append(p.firstIter, ms(it.PerIter[0].CompletedAt))
				for k := 1; k < len(it.PerIter); k++ {
					p.deltas = append(p.deltas, ms(it.PerIter[k].CompletedAt-it.PerIter[k-1].CompletedAt))
				}
			}
		}()
	}
	p.queuedEnd = svc.Stats().Queued
	wg.Wait()
	p.queueWait = e.c.Metrics.Span(metrics.ServeQueueWait) - waitBefore
	p.dispatched = e.c.Metrics.Get(metrics.ServeDispatched) - dispBefore
	return p
}

func newService(e *serveEnv, jobTraceEvents int, rec *trace.Recorder) (*serve.Service, error) {
	return serve.New(serve.Config{
		Cluster: e.c, Slots: serveSlots, QueueLimit: serveQueueLimit,
		Trace: rec, JobTraceEvents: jobTraceEvents,
	})
}

// runServe is one run of the open-loop workload.
func runServe(ctx context.Context, spec runSpec, host Host) (*RunResult, error) {
	res := newResult(spec, host)
	var spans *spanLog
	if spec.trace {
		spans = newSpanLog()
	}
	env, err := setUpRepeatedly(res, spec, func() (*serveEnv, error) { return setupServe(ctx, spec, spans) })
	if err != nil {
		return nil, err
	}
	defer env.close()

	svc, err := newService(env, 0, nil)
	if err != nil {
		return nil, err
	}
	defer svc.Close() // idempotent; closed explicitly below once the phases are done
	rtBefore := snapRuntime()
	phases := make(map[int]*phaseResult, len(serveRates))
	idx := spec.size.serveWarm // the warm-up took the arrivals before
	var rssMB float64
	for _, rate := range serveRates {
		if rate == rateBurst {
			rssMB = res.timing("rss_mb", []float64{rssAtRestMB()})
		}
		arrivals := max(20, int(float64(rate)*spec.seconds*servePhaseShare))
		sp := spans.begin(fmt.Sprintf("phase-r%d", rate), "phases", 0)
		p := runPhase(ctx, env, svc, rate, arrivals, idx, false)
		spans.end(sp)
		idx += arrivals
		phases[rate] = p
		res.Attempted += arrivals
		for _, e := range p.errs {
			res.note("r%d: %s", rate, e)
		}
		if p.failed > 0 {
			res.Failed += p.failed
			res.Correct = false
		}
		res.Counts[fmt.Sprintf("arrivals.r%d", rate)] = arrivals
		res.Counts[fmt.Sprintf("completed.r%d", rate)] = len(p.lat)
	}
	rtAfter := snapRuntime()
	res.timing("rss_peak_mb", []float64{rssPeakMB()})
	rejected := env.c.Metrics.Get(metrics.ServeRejectedQueue) + env.c.Metrics.Get(metrics.ServeRejectedQuota)
	canceled := env.c.Metrics.Get(metrics.ServeCanceled)
	svc.Close()

	edgesPerJob := float64(env.g.Edges()) * float64(spec.size.serveIters)
	low, mid, burst := phases[rateLow], phases[rateMid], phases[rateBurst]
	lat := make(map[int]Dist)
	var lateAll []float64
	invalid := 0
	for _, rate := range serveRates {
		p := phases[rate]
		lat[rate] = summarize(p.lat)
		res.Timings[fmt.Sprintf("lat_ms.r%d", rate)] = lat[rate]
		late := summarize(p.late)
		res.Timings[fmt.Sprintf("late_ms.r%d", rate)] = late
		lateAll = append(lateAll, p.late...)
		// How late the generator ran bounds what the latencies can mean.
		// Latency is timed from the due time, so a late send is inside
		// it: where more than half of a reported latency is the
		// generator's own lateness — at the median or at the p99 — the
		// phase measured the generator, and is not a result.
		lateP50, lateP99 := late.Median, percentile(p.late, 99)
		if late.N > 0 && (lateP50 > lat[rate].Median/2 || lateP99 > percentile(p.lat, 99)/2) {
			invalid++
			res.note("phase r%d is INVALID: generator lateness p50 %.3f / p99 %.3f ms exceeds half the phase's latency p50 %.3f / p99 %.3f ms",
				rate, lateP50, lateP99, lat[rate].Median, percentile(p.lat, 99))
		}
	}

	if !spec.trace {
		res.set("setup_s", res.Timings["setup_s"].Median)
		res.set("rss_mb", rssMB)
		res.set("job_ms", res.timing("lat_ms.r75+r150", append(append([]float64(nil), low.lat...), mid.lat...)))
		res.set("medges_per_s", burst.goodput()*edgesPerJob/1e6)
		return res, nil
	}

	var rt runtimeSnap
	rt.add(rtAfter, rtBefore)
	iterMS := serveLayerMetrics(res, env, phases, lat, lateAll, invalid, rt)
	res.set("serve.rejected", float64(rejected))
	res.set("serve.canceled", float64(canceled))

	// The traced slice: the middle rate again, every job with its own recorder.
	rec := trace.NewRecorder(spec.size.traceRing)
	tsvc, err := newService(env, jobTraceRing, rec)
	if err != nil {
		return nil, err
	}
	defer tsvc.Close()
	slice := min(tracedSliceMax, time.Duration(spec.seconds*float64(time.Second))/3)
	sp := spans.begin("traced-slice-r150", "phases", 0)
	tp := runPhase(ctx, env, tsvc, rateMid, max(20, int(rateMid*slice.Seconds())), idx, true)
	spans.end(sp)
	tsvc.Close()
	res.Attempted += tp.arrivals
	if tp.failed > 0 {
		res.Failed += tp.failed
		res.Correct = false
	}
	if iterMS > 0 && len(tp.deltas) > 0 {
		res.set("trace.overhead_share", res.timing("traced_iter_ms", tp.deltas)/iterMS-1)
	}
	events := serveDecomposition(res, rec, tp.jobs)

	sp = spans.begin("layer-probes", "probes", 0)
	job, err := env.job("probe", -2)
	if err != nil {
		return nil, err
	}
	rank := 1 / float64(env.g.N)
	chunk := collectChunk(env.g, func(u int32, adj graph.Adj, emit kv.Emit) error {
		return job.Map(int64(u), rank, adj, emit)
	})
	probeKV(res, chunk, job.Ops)
	probeTransport(res, chunk, false)
	probeDFS(res, pagerank.StatePairs(env.g.N)[:env.g.N/workers], pagerank.StateOps())
	if err := probeSubmitPaths(ctx, res, env); err != nil {
		return nil, err
	}
	spans.end(sp)
	if err := writeTraceFiles(spec, res, nil, append(events, spans.asTraceEvents(rec)...), spans); err != nil {
		return nil, err
	}
	return res, nil
}

// serveLayerMetrics reports what the three untraced phases yield for
// the traced run: the serve-open numbers that are not defined on the
// other workloads, the service's and the engines' counters, and the
// generator's own validity check. It returns the untraced r150
// iteration time the traced slice is compared with.
func serveLayerMetrics(res *RunResult, env *serveEnv, phases map[int]*phaseResult, lat map[int]Dist, lateAll []float64, invalid int, rt runtimeSnap) float64 {
	// Per-layer: the serve-open numbers that are not defined on the
	// other workloads, then the service's own counters.
	res.set("lat_p50_ms.r75", lat[rateLow].Median)
	res.set("lat_p50_ms.r150", lat[rateMid].Median)
	res.set("lat_p99_ms.r75", percentile(phases[rateLow].lat, 99))
	res.set("lat_p99_ms.r150", percentile(phases[rateMid].lat, 99))
	res.set("goodput_jobs_s.r300", phases[rateBurst].goodput())
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted))
	rateOK := 0
	for _, rate := range serveRates {
		p := phases[rate]
		backlogSteady := p.queuedEnd <= p.queuedMid+serveSlots
		if p.failed == 0 && len(p.lat) > 0 && percentile(p.lat, 99) <= latencyLimitMS && backlogSteady {
			rateOK = rate
		}
	}
	res.set("rate_ok_jobs_s", float64(rateOK))
	var admits []float64
	completed := 0
	for _, rate := range serveRates {
		p := phases[rate]
		admits = append(admits, p.admit...)
		completed += len(p.lat)
		if p.dispatched > 0 && len(p.lat) > 0 {
			wait := ms(p.queueWait) / float64(p.dispatched)
			var sum float64
			for _, l := range p.lat {
				sum += l
			}
			res.set(fmt.Sprintf("serve.queue_wait_ms.r%d", rate), wait)
			res.set(fmt.Sprintf("serve.run_ms.r%d", rate), sum/float64(len(p.lat))-wait)
		}
	}
	res.set("serve.admit_us", res.timing("serve.admit_us", admits))
	res.set("serve.backlog_end.r300", float64(phases[rateBurst].queuedEnd))
	sort.Float64s(lateAll)
	res.set("loadgen.late_p50_ms", percentile(lateAll, 50))
	res.set("loadgen.late_p99_ms", percentile(lateAll, 99))
	res.set("loadgen.invalid_phases", float64(invalid))
	iterMS := res.timing("iter_ms", phases[rateMid].deltas)
	res.set("iter_ms", iterMS)
	res.set("first_iter_ms", res.timing("first_iter_ms", phases[rateMid].firstIter))
	tail := res.Timings["iter_ms"]
	res.set("core.iter_tail_ms", tail.Tail)
	res.set("core.iter_tail_pct", tail.TailPct)
	rt.report(res, completed)
	serveCounters(res, env, completed)
	res.set("graph.generate_ms", ms(env.generate))
	res.set("imr.newcluster_ms", ms(env.newCluster))
	return iterMS
}

// serveCounters reads the engine counters the service folded into the
// cluster's set under each tenant's prefix.
func serveCounters(res *RunResult, env *serveEnv, completed int) {
	if completed == 0 {
		return
	}
	sum := func(name string) float64 {
		var v int64
		for _, t := range serveTenants {
			name := "tenant." + t + "." + name
			v += env.c.Metrics.Get(name) - env.base[name]
		}
		return float64(v)
	}
	cluster := func(name string) float64 {
		return float64(env.c.Metrics.Get(name) - env.base[name])
	}
	iters := float64(completed * env.size.serveIters)
	res.set("core.shuffle_bytes_per_iter", sum(metrics.ShuffleBytes)/iters)
	res.set("core.state_bytes_per_iter", sum(metrics.StateBytes)/iters)
	if sb := sum(metrics.ShuffleBytes); sb > 0 {
		res.set("core.shuffle_remote_share", sum(metrics.ShuffleRemote)/sb)
	}
	res.set("core.send_retries", sum(metrics.SendRetries))
	res.set("core.send_failures", sum(metrics.SendFailures))
	res.set("transport.chan_msgs_per_iter", float64(env.net.Messages()-env.baseMsgs)/iters)
	res.set("dfs.write_bytes_per_iter", cluster(metrics.DFSWriteBytes)/iters)
	res.set("dfs.read_bytes_per_iter", cluster(metrics.DFSReadBytes)/iters)
	if rb := cluster(metrics.DFSReadBytes); rb > 0 {
		res.set("dfs.read_remote_share", cluster(metrics.DFSReadRemote)/rb)
	}
}

// serveDecomposition averages the Fig. 10 factor shares over the traced
// slice's jobs and returns a merged event stream (the service's own
// events plus the first few jobs', on the service recorder's clock) for
// the Chrome trace.
func serveDecomposition(res *RunResult, rec *trace.Recorder, traced []*serve.Job) []trace.Event {
	events := rec.Events()
	var init, shuffle, syncwait, compute, coverage float64
	n := 0
	dropped := rec.Dropped()
	for i, j := range traced {
		jr := j.Trace()
		if jr == nil || jr.Len() == 0 {
			continue
		}
		dropped += jr.Dropped()
		evs := jr.Events()
		d := trace.Decompose(evs)
		t := d.Totals()
		covered := float64(t.Covered())
		if covered <= 0 {
			continue
		}
		n++
		init += float64(t.Init) / covered
		shuffle += float64(t.Shuffle) / covered
		syncwait += float64(t.SyncWait) / covered
		compute += float64(t.Compute) / covered
		coverage += d.Coverage()
		if i < 8 {
			offset := jr.Start().Sub(rec.Start())
			for _, ev := range evs {
				ev.Time += offset
				ev.Worker = j.ID() + "/" + ev.Worker
				events = append(events, ev)
			}
		}
	}
	res.Counts["decomposed_jobs"] = n
	res.set("trace.dropped_events", float64(dropped))
	if n > 0 {
		res.set("core.init_share", init/float64(n))
		res.set("core.shuffle_share", shuffle/float64(n))
		res.set("core.syncwait_share", syncwait/float64(n))
		res.set("core.compute_share", compute/float64(n))
		res.set("core.decomp_coverage", coverage/float64(n))
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Time < events[b].Time })
	return events
}

// probeSubmitPaths times the serve-open job, one at a time on the idle
// cluster, through three doors: a bare core.Engine.Run, Cluster.Submit,
// and an idle serve.Service. The differences are what each layer adds.
func probeSubmitPaths(ctx context.Context, res *RunResult, env *serveEnv) error {
	const rounds = 40
	svc, err := newService(env, 0, nil)
	if err != nil {
		return err
	}
	defer svc.Close()
	var bare, submit, solo, teardown, call []float64
	for i := 0; i < rounds; i++ {
		job, err := env.job("probe", 1_000_000+i)
		if err != nil {
			return err
		}
		clean := func() { _, _ = env.outputSum(job.OutputPath) }

		start := time.Now()
		if _, err := env.c.CoreEngine().RunCtx(ctx, job); err != nil {
			return fmt.Errorf("bench: bare engine run: %w", err)
		}
		bare = append(bare, ms(time.Since(start)))
		clean()

		start = time.Now()
		h, err := env.c.Submit(ctx, imr.JobSpec{Iterative: job}, imr.SubmitOptions{})
		call = append(call, us(time.Since(start)))
		if err != nil {
			return err
		}
		r, err := h.Result()
		if err != nil {
			return fmt.Errorf("bench: cluster submit: %w", err)
		}
		wall := time.Since(start)
		submit = append(submit, ms(wall))
		if it := r.Iterative; len(it.PerIter) > 0 {
			teardown = append(teardown, ms(it.TotalWall-it.PerIter[len(it.PerIter)-1].CompletedAt))
		}
		clean()

		start = time.Now()
		j, err := svc.Submit(ctx, imr.JobSpec{Iterative: job}, imr.SubmitOptions{Tenant: serveTenants[0]})
		if err != nil {
			return err
		}
		if err := j.Wait(ctx); err != nil {
			return fmt.Errorf("bench: idle service: %w", err)
		}
		solo = append(solo, ms(time.Since(start)))
		clean()
	}
	res.set("imr.submit_call_us", res.timing("imr.submit_call_us", call))
	res.set("imr.submit_overhead_ms", res.timing("submit_ms", submit)-res.timing("bare_run_ms", bare))
	res.set("serve.solo_ms", res.timing("serve.solo_ms", solo))
	res.set("core.teardown_ms", res.timing("core.teardown_ms", teardown))
	return nil
}
