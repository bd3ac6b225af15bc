package mapreduce

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
)

// Options tunes engine behaviour beyond the cluster spec.
type Options struct {
	// LocalityAware schedules map tasks on workers holding a replica of
	// their split when possible (Hadoop's locality optimization).
	LocalityAware bool
	// Trace receives job-phase spans (init, map wave, shuffle, reduce
	// wave). nil disables tracing at no cost.
	Trace *trace.Recorder
}

// Engine executes MapReduce jobs over a DFS and a cluster spec.
type Engine struct {
	fs   *dfs.DFS
	spec cluster.Spec
	m    *metrics.Set
	opts Options
	// failTask, if set, fails the given attempt before it reads its
	// input; the package's retry tests set it.
	failTask func(job, kind string, task, attempt int) bool
}

// NewEngine creates an engine. m may be nil.
func NewEngine(fs *dfs.DFS, spec cluster.Spec, m *metrics.Set, opts Options) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Engine{fs: fs, spec: spec, m: m, opts: opts}, nil
}

// FS returns the engine's file system.
func (e *Engine) FS() *dfs.DFS { return e.fs }

// Spec returns the engine's cluster spec.
func (e *Engine) Spec() cluster.Spec { return e.spec }

// stretchSleep emulates a slow worker: a nominal compute duration d that
// took dReal wall time is padded so total wall ≈ d/speed.
func (e *Engine) stretchSleep(worker string, d time.Duration) {
	stretched := e.spec.StretchFor(worker, d)
	if extra := stretched - d; extra > 0 {
		time.Sleep(extra)
	}
}

// spillRun is how many records one map-output run holds. A run is one
// allocation, its records and the link to the next run: 2047 records of
// 32 bytes and the link fit eight pages (64 KB), where 2048 would spill
// into a ninth.
const spillRun = 2047

// run is one fixed-size block of a partition's map output.
type run struct {
	recs [spillRun]kv.Pair
	next *run
}

// spill is one partition of a map task's output: a chain of runs holding
// the records in emit order, every run but the last full. A run is never
// copied or grown, and being linked, neither is a list of them; the
// reduce copies each partition once, into a buffer of the total size
// (runReduceAttempt).
type spill struct {
	head, tail *run
	n          int // records in the chain
}

// add appends one record, taking a run from sc when the last one is full.
func (s *spill) add(p kv.Pair, sc *scratch) {
	i := s.n % spillRun
	if i == 0 {
		r := sc.takeRun()
		if s.tail == nil {
			s.head = r
		} else {
			s.tail.next = r
		}
		s.tail = r
	}
	s.tail.recs[i] = p
	s.n++
}

// appendTo appends the records to dst in emit order.
func (s *spill) appendTo(dst []kv.Pair) []kv.Pair {
	left := s.n
	for r := s.head; r != nil; r = r.next {
		k := min(left, spillRun)
		dst = append(dst, r.recs[:k]...)
		left -= k
	}
	return dst
}

// bytes sums the records' sizes under ops.
func (s *spill) bytes(ops *kv.Ops) int64 {
	var b int64
	left := s.n
	for r := s.head; r != nil; r = r.next {
		k := min(left, spillRun)
		for _, p := range r.recs[:k] {
			b += int64(ops.PairSize(p))
		}
		left -= k
	}
	return b
}

// scratch is the shuffle memory the jobs of one chain share: spill runs
// and reduce scratch a finished job hands back for the next, the way a
// Hadoop task reuses its sort buffer from record to record. A chain
// driver (runIterative) makes one for all its jobs and a lone SubmitCtx
// one for its job; it is never kept in the Engine or in package state,
// so an engine retains nothing between calls. Both lists hold only
// cleared memory: what goes back is emptied of references first.
type scratch struct {
	mu      sync.Mutex
	runs    []*run
	reduces []*reduceScratch
	// newRuns and newReduces count what the lists could not supply.
	newRuns, newReduces int
}

// reduceScratch is one reduce or combine step's memory: the fetched
// partition, the grouping scratch and the output.
type reduceScratch struct {
	fetched []kv.Pair
	g       kv.Grouper
	out     []kv.Pair
}

// takeRun returns a cleared run, from the list when it has one.
func (sc *scratch) takeRun() *run {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if n := len(sc.runs); n > 0 {
		r := sc.runs[n-1]
		sc.runs = sc.runs[:n-1]
		return r
	}
	sc.newRuns++
	return new(run)
}

// putRuns clears s's runs and returns them to the list. Nothing may
// read them afterwards: s is emptied too.
func (sc *scratch) putRuns(s *spill) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	left := s.n
	for r := s.head; r != nil; {
		clear(r.recs[:min(left, spillRun)])
		left -= spillRun
		next := r.next
		r.next = nil
		sc.runs = append(sc.runs, r)
		r = next
	}
	*s = spill{}
}

// takeReduce returns an empty reduce scratch, from the list when it has
// one.
func (sc *scratch) takeReduce() *reduceScratch {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if n := len(sc.reduces); n > 0 {
		rs := sc.reduces[n-1]
		sc.reduces = sc.reduces[:n-1]
		return rs
	}
	sc.newReduces++
	return new(reduceScratch)
}

// putReduce clears rs to its capacity and returns it to the list.
func (sc *scratch) putReduce(rs *reduceScratch) {
	clear(rs.fetched[:cap(rs.fetched)])
	rs.fetched = rs.fetched[:0]
	rs.g.Reset()
	clear(rs.out[:cap(rs.out)])
	rs.out = rs.out[:0]
	sc.mu.Lock()
	sc.reduces = append(sc.reduces, rs)
	sc.mu.Unlock()
}

// mapResult is one completed map task's partitioned output.
type mapResult struct {
	worker    string
	parts     []spill
	partBytes []int64
	opStartAt time.Duration // since job start; feeds the init metric
	counters  *Counters     // attempt-local; merged only if this attempt wins
}

// Submit runs job to completion and returns its result. Jobs are run one
// at a time per engine, like a dedicated Hadoop queue.
func (e *Engine) Submit(job *Job) (*JobResult, error) {
	return e.SubmitCtx(context.Background(), job)
}

// SubmitCtx is Submit with cancellation: a done ctx aborts the job
// between task completions and returns an error wrapping ctx's cause.
func (e *Engine) SubmitCtx(ctx context.Context, job *Job) (*JobResult, error) {
	return e.submit(ctx, job, new(scratch))
}

// submit runs job on the shuffle memory in sc. The job's spill runs go
// back to sc once its reduce phase has succeeded, when no attempt can
// read them any more; a failed or canceled phase may leave attempts
// running that still read them, so they are left to the collector.
func (e *Engine) submit(ctx context.Context, job *Job, sc *scratch) (*JobResult, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %w", job.Name, context.Cause(ctx))
	}
	e.m.Add(metrics.JobsLaunched, 1)
	start := time.Now()
	initPending := e.opts.Trace.Begin(trace.SpanJobInit, "master", -1, 0)

	// Job submission/setup cost (scheduler, job setup tasks).
	time.Sleep(e.spec.JobInitOverhead)

	// One map task per block of each input file. A path that is not a
	// file is treated as a directory and expanded to its part files,
	// Hadoop's directory-input convention.
	var splits []dfs.Split
	for _, path := range job.Input {
		paths := []string{path}
		if !e.fs.Exists(path) {
			paths = e.fs.List(path + "/")
			if len(paths) == 0 {
				initPending.End()
				return nil, fmt.Errorf("mapreduce: job %s: dfs: no such file or directory %q", job.Name, path)
			}
		}
		for _, p := range paths {
			ss, err := e.fs.Splits(p)
			if err != nil {
				initPending.End()
				return nil, fmt.Errorf("mapreduce: job %s: %w", job.Name, err)
			}
			splits = append(splits, ss...)
		}
	}
	if len(splits) == 0 {
		initPending.End()
		return nil, fmt.Errorf("mapreduce: job %s: empty input", job.Name)
	}

	workers := e.spec.IDs()
	assignment := e.assignSplits(splits, workers)
	initPending.End()

	res := &JobResult{Name: job.Name, OutputPath: job.Output, Counters: NewCounters()}

	mapPending := e.opts.Trace.Begin(trace.SpanMapWave, "master", -1, 0)
	mapResults, mapAttempts, err := e.runMapPhase(ctx, job, splits, assignment, workers, start, sc)
	mapPending.End()
	if err != nil {
		return nil, err
	}
	res.MapAttempts = mapAttempts
	for _, mr := range mapResults {
		res.Counters.merge(mr.counters)
	}

	var initSum time.Duration
	for _, mr := range mapResults {
		initSum += mr.opStartAt
	}
	res.Init = initSum / time.Duration(len(mapResults))

	redPending := e.opts.Trace.Begin(trace.SpanReduceWave, "master", -1, 0)
	outRecords, redAttempts, shuffleBytes, shuffleRemote, err := e.runReducePhase(ctx, job, mapResults, workers, res.Counters, sc)
	redPending.End()
	if err != nil {
		return nil, err
	}
	for _, mr := range mapResults {
		for p := range mr.parts {
			sc.putRuns(&mr.parts[p])
		}
	}
	res.ReduceAttempts = redAttempts
	res.OutputRecords = outRecords
	res.ShuffleBytes = shuffleBytes
	res.ShuffleRemote = shuffleRemote
	res.Wall = time.Since(start)
	return res, nil
}

// assignSplits maps each split to a worker: locality-first greedy with
// load balancing, or pure round-robin when locality is disabled.
func (e *Engine) assignSplits(splits []dfs.Split, workers []string) []string {
	load := make(map[string]int, len(workers))
	assignment := make([]string, len(splits))
	for i, s := range splits {
		var chosen string
		if e.opts.LocalityAware && len(s.Locations) > 0 {
			for _, loc := range s.Locations {
				if chosen == "" || load[loc] < load[chosen] {
					// Only candidates that are cluster workers count.
					for _, w := range workers {
						if w == loc {
							chosen = loc
							break
						}
					}
				}
			}
		}
		if chosen == "" {
			chosen = workers[i%len(workers)]
			for _, w := range workers {
				if load[w] < load[chosen] {
					chosen = w
				}
			}
		}
		assignment[i] = chosen
		load[chosen]++
	}
	return assignment
}

// maxAttempts bounds a task's attempts, as Hadoop's default does.
const maxAttempts = 4

// runWave runs one phase's tasks, task t first on placement[t], with at
// most slotsPerWorker attempts at a time on each worker. A failed attempt
// is retried on another worker until the task has had maxAttempts; a task
// has one attempt running at a time, so its first success is its result.
// It returns the results by task and how many attempts it launched.
func runWave[R any](ctx context.Context, e *Engine, job, kind string, workers, placement []string, slotsPerWorker int,
	run func(task, attempt int, worker string, slot chan struct{}) (R, error)) ([]R, int, error) {
	slots := make(map[string]chan struct{}, len(workers))
	for _, w := range workers {
		slots[w] = make(chan struct{}, slotsPerWorker)
	}

	type outcome struct {
		task   int
		worker string
		result R
		err    error
	}
	n := len(placement)
	attempts := make([]int, n)
	results := make([]R, n)
	// A task has at most one attempt in flight, so n slots take every
	// attempt's send even after a cancel returns early.
	outcomes := make(chan outcome, n)

	launched := 0
	launch := func(task int, worker string) {
		attempts[task]++
		attempt := attempts[task]
		launched++
		e.m.Add(metrics.TasksLaunched, 1)
		go func() {
			r, err := run(task, attempt, worker, slots[worker])
			outcomes <- outcome{task: task, worker: worker, result: r, err: err}
		}()
	}

	for t, w := range placement {
		launch(t, w)
	}

	for remaining := n; remaining > 0; {
		var oc outcome
		select {
		case oc = <-outcomes:
		case <-ctx.Done():
			return nil, launched, fmt.Errorf("mapreduce: job %s: canceled: %w", job, context.Cause(ctx))
		}
		if oc.err != nil {
			if tried := attempts[oc.task]; tried >= maxAttempts {
				return nil, launched, fmt.Errorf("mapreduce: job %s %s task %d failed after %d attempts: %w",
					job, kind, oc.task, tried, oc.err)
			}
			e.m.Add(metrics.TaskRetries, 1)
			launch(oc.task, otherWorker(workers, oc.worker))
			continue
		}
		results[oc.task] = oc.result
		remaining--
	}
	return results, launched, nil
}

// runMapPhase executes all map tasks, each first on its assigned worker.
func (e *Engine) runMapPhase(ctx context.Context, job *Job, splits []dfs.Split, assignment, workers []string, jobStart time.Time, sc *scratch) ([]mapResult, int, error) {
	return runWave(ctx, e, job.Name, "map", workers, assignment, e.spec.MapSlots,
		func(task, attempt int, worker string, slot chan struct{}) (mapResult, error) {
			return e.runMapAttempt(job, splits[task], worker, attempt, task, slot, jobStart, sc)
		})
}

// runMapAttempt executes one attempt of one map task on worker, its
// spill runs taken from sc.
func (e *Engine) runMapAttempt(job *Job, split dfs.Split, worker string, attempt, task int, slot chan struct{}, jobStart time.Time, sc *scratch) (mapResult, error) {
	slot <- struct{}{}
	defer func() { <-slot }()

	// Task process launch cost (Hadoop's per-task JVM start).
	time.Sleep(e.spec.TaskStartOverhead)

	if f := e.failTask; f != nil && f(job.Name, "map", task, attempt) {
		return mapResult{}, fmt.Errorf("injected failure (map task %d attempt %d)", task, attempt)
	}

	opStart := time.Since(jobStart)
	recs, err := e.fs.ReadSplit(split, worker)
	if err != nil {
		return mapResult{}, err
	}

	computeStart := time.Now()
	parts := make([]spill, job.NumReduce)
	emit := func(k, v any) {
		parts[job.Ops.Partition(k, job.NumReduce)].add(kv.Pair{Key: k, Value: v}, sc)
	}
	counters := NewCounters()
	for _, rec := range recs {
		var err error
		switch {
		case job.Map != nil:
			err = job.Map(rec.Key, rec.Value, emit)
		case job.MapSrc != nil:
			err = job.MapSrc(split.Path, rec.Key, rec.Value, emit)
		default:
			err = job.MapCnt(counters, rec.Key, rec.Value, emit)
		}
		if err != nil {
			return mapResult{}, fmt.Errorf("map(%v): %w", rec.Key, err)
		}
	}
	if job.Combine != nil {
		// A partition is flattened into the scratch's fetch buffer, its
		// runs go back to sc, and the combined records fill new ones.
		rs := sc.takeReduce()
		defer sc.putReduce(rs)
		for p := range parts {
			s := &parts[p]
			rs.fetched = s.appendTo(slices.Grow(rs.fetched[:0], s.n))
			sc.putRuns(s)
			combined, err := runReduceFunc(job.Combine, rs.fetched, job.Ops, rs)
			if err != nil {
				return mapResult{}, fmt.Errorf("combine: %w", err)
			}
			for _, c := range combined {
				s.add(c, sc)
			}
		}
	}
	partBytes := make([]int64, job.NumReduce)
	for p := range parts {
		partBytes[p] = parts[p].bytes(&job.Ops)
	}
	e.stretchSleep(worker, time.Since(computeStart))
	return mapResult{worker: worker, parts: parts, partBytes: partBytes, opStartAt: opStart, counters: counters}, nil
}

// reduceResult is one completed reduce task's output and shuffle counts.
type reduceResult struct {
	records       int
	bytes, remote int64
	counters      *Counters // attempt-local; merged only if this attempt wins
}

// runReducePhase shuffles map outputs to reduce tasks and runs them,
// reduce task r first on worker r mod the worker count. Duplicate
// attempts are safe: a reduce attempt is deterministic given the map
// outputs and writes the same part file.
func (e *Engine) runReducePhase(ctx context.Context, job *Job, mapResults []mapResult, workers []string, jobCounters *Counters, sc *scratch) (outRecords, attempts int, shuffleBytes, shuffleRemote int64, err error) {
	placement := make([]string, job.NumReduce)
	for r := range placement {
		placement[r] = workers[r%len(workers)]
	}
	results, attempts, err := runWave(ctx, e, job.Name, "reduce", workers, placement, e.spec.ReduceSlots,
		func(task, attempt int, worker string, slot chan struct{}) (reduceResult, error) {
			records, bytes, remote, counters, err := e.runReduceAttempt(job, task, attempt, worker, mapResults, slot, sc)
			return reduceResult{records: records, bytes: bytes, remote: remote, counters: counters}, err
		})
	if err != nil {
		return 0, attempts, 0, 0, err
	}
	for _, r := range results {
		outRecords += r.records
		shuffleBytes += r.bytes
		shuffleRemote += r.remote
		jobCounters.merge(r.counters)
	}
	return outRecords, attempts, shuffleBytes, shuffleRemote, nil
}

// runReduceAttempt fetches partition task from every map output, groups,
// reduces, and writes the part file, on a reduce scratch taken from sc
// and returned cleared; the DFS copies what it writes.
func (e *Engine) runReduceAttempt(job *Job, task, attempt int, worker string, mapResults []mapResult, slot chan struct{}, sc *scratch) (int, int64, int64, *Counters, error) {
	slot <- struct{}{}
	defer func() { <-slot }()

	time.Sleep(e.spec.TaskStartOverhead)

	if f := e.failTask; f != nil && f(job.Name, "reduce", task, attempt) {
		return 0, 0, 0, nil, fmt.Errorf("injected failure (reduce task %d attempt %d)", task, attempt)
	}

	rs := sc.takeReduce()
	defer sc.putReduce(rs)

	// One buffer of at least the total, filled map result by map result
	// and run by run: every key's values arrive in map-task, then emit,
	// order.
	fetchStart := time.Now()
	n := 0
	for _, mr := range mapResults {
		n += mr.parts[task].n
	}
	rs.fetched = slices.Grow(rs.fetched[:0], n)
	var bytes, remote int64
	for _, mr := range mapResults {
		rs.fetched = mr.parts[task].appendTo(rs.fetched)
		bytes += mr.partBytes[task]
		if mr.worker != worker {
			remote += mr.partBytes[task]
		}
	}
	e.m.Add(metrics.ShuffleBytes, bytes)
	e.m.Add(metrics.ShuffleRemote, remote)
	e.opts.Trace.RecordSpan(trace.SpanShuffleWave, worker, task, 0, fetchStart, time.Since(fetchStart))

	counters := NewCounters()
	red := job.Reduce
	if red == nil {
		red = func(key any, values []any, emit kv.Emit) error {
			return job.ReduceCnt(counters, key, values, emit)
		}
	}
	computeStart := time.Now()
	out, err := runReduceFunc(red, rs.fetched, job.Ops, rs)
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("reduce task %d: %w", task, err)
	}
	e.stretchSleep(worker, time.Since(computeStart))

	path := fmt.Sprintf("%s/part-%d", job.Output, task)
	if err := e.fs.WriteFile(path, worker, out, job.Ops); err != nil {
		return 0, 0, 0, nil, err
	}
	return len(out), bytes, remote, counters, nil
}

// runReduceFunc groups pairs by key on rs's Grouper and applies fn,
// collecting what it emits in rs.out, which it returns; the reduce and
// the combine step both run it. The result is valid until rs is put
// back.
func runReduceFunc(fn ReduceFunc, pairs []kv.Pair, ops kv.Ops, rs *reduceScratch) ([]kv.Pair, error) {
	groups := rs.g.Group(pairs, ops)
	rs.out = slices.Grow(rs.out[:0], len(groups))
	emit := func(k, v any) { rs.out = append(rs.out, kv.Pair{Key: k, Value: v}) }
	for _, g := range groups {
		if err := fn(g.Key, g.Values, emit); err != nil {
			return nil, err
		}
	}
	return rs.out, nil
}

// otherWorker picks a worker different from avoid when possible.
func otherWorker(workers []string, avoid string) string {
	for i, w := range workers {
		if w == avoid {
			return workers[(i+1)%len(workers)]
		}
	}
	return workers[0]
}
