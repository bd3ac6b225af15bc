package mapreduce

import (
	"context"
	"fmt"
	"sort"
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
	// Speculative enables backup attempts for straggling tasks
	// (Hadoop's speculative execution).
	Speculative bool
	// SpeculativeSlowdown is the straggler threshold: a running task is
	// backed up when its elapsed time exceeds this multiple of the
	// median completed-task time. Default 2.
	SpeculativeSlowdown float64
	// MaxAttempts bounds per-task retries (default 4, like Hadoop).
	MaxAttempts int
	// FailTask, if set, injects a failure into the given attempt; used
	// by fault-tolerance tests.
	FailTask func(job, kind string, task, attempt int) bool
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
}

// NewEngine creates an engine. m may be nil.
func NewEngine(fs *dfs.DFS, spec cluster.Spec, m *metrics.Set, opts Options) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.SpeculativeSlowdown <= 0 {
		opts.SpeculativeSlowdown = 2.0
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
// reduce copies each partition once, into a buffer of the exact total
// (runReduceAttempt).
type spill struct {
	head, tail *run
	n          int // records in the chain
}

// add appends one record, starting a run when the last one is full.
func (s *spill) add(p kv.Pair) {
	i := s.n % spillRun
	if i == 0 {
		r := new(run)
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
	if err := job.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %w", job.Name, err)
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
	mapResults, mapAttempts, err := e.runMapPhase(ctx, job, splits, assignment, workers, start)
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
	outRecords, redAttempts, shuffleBytes, shuffleRemote, err := e.runReducePhase(ctx, job, mapResults, workers, res.Counters)
	redPending.End()
	if err != nil {
		return nil, err
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

// attemptOutcome carries one task attempt's completion.
type attemptOutcome struct {
	task   int
	worker string
	result mapResult
	err    error
}

// runMapPhase executes all map tasks with slot limits, retry, and
// optional speculative backups.
func (e *Engine) runMapPhase(ctx context.Context, job *Job, splits []dfs.Split, assignment, workers []string, jobStart time.Time) ([]mapResult, int, error) {
	slots := make(map[string]chan struct{}, len(workers))
	for _, w := range workers {
		slots[w] = make(chan struct{}, e.spec.MapSlots)
	}

	type taskState struct {
		done       bool
		attempts   int
		backup     bool
		launchedAt time.Time
	}
	states := make([]taskState, len(splits))
	results := make([]mapResult, len(splits))
	outcomes := make(chan attemptOutcome, len(splits)*2)

	var mu sync.Mutex
	totalAttempts := 0

	launch := func(task int, worker string) {
		mu.Lock()
		states[task].attempts++
		attempt := states[task].attempts
		states[task].launchedAt = time.Now()
		totalAttempts++
		mu.Unlock()
		e.m.Add(metrics.TasksLaunched, 1)
		go func() {
			mr, err := e.runMapAttempt(job, splits[task], worker, attempt, task, slots[worker], jobStart)
			outcomes <- attemptOutcome{task: task, worker: worker, result: mr, err: err}
		}()
	}

	for i := range splits {
		launch(i, assignment[i])
	}

	remaining := len(splits)
	var durations []time.Duration

	// Straggler monitor (speculative execution).
	stopMon := make(chan struct{})
	if e.opts.Speculative {
		go func() {
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopMon:
					return
				case <-tick.C:
					mu.Lock()
					if len(durations)*2 < len(splits) {
						mu.Unlock()
						continue
					}
					med := median(durations)
					threshold := time.Duration(float64(med) * e.opts.SpeculativeSlowdown)
					if threshold <= 0 {
						threshold = time.Millisecond
					}
					for t := range states {
						st := &states[t]
						if st.done || st.backup {
							continue
						}
						if time.Since(st.launchedAt) > threshold {
							st.backup = true
							other := otherWorker(workers, assignment[t])
							e.m.Add(metrics.SpeculativeTasks, 1)
							mu.Unlock()
							launch(t, other)
							mu.Lock()
						}
					}
					mu.Unlock()
				}
			}
		}()
	}

	var firstErr error
	for remaining > 0 {
		var oc attemptOutcome
		select {
		case oc = <-outcomes:
		case <-ctx.Done():
			close(stopMon)
			return nil, totalAttempts, fmt.Errorf("mapreduce: job %s: canceled: %w", job.Name, context.Cause(ctx))
		}
		mu.Lock()
		st := &states[oc.task]
		if st.done {
			mu.Unlock()
			continue // a backup or original already finished this task
		}
		if oc.err != nil {
			if st.attempts >= e.opts.MaxAttempts {
				firstErr = fmt.Errorf("mapreduce: job %s map task %d failed after %d attempts: %w",
					job.Name, oc.task, st.attempts, oc.err)
				mu.Unlock()
				break
			}
			e.m.Add(metrics.TaskRetries, 1)
			mu.Unlock()
			launch(oc.task, otherWorker(workers, oc.worker))
			continue
		}
		st.done = true
		results[oc.task] = oc.result
		durations = append(durations, time.Since(st.launchedAt))
		remaining--
		mu.Unlock()
	}
	close(stopMon)
	if firstErr != nil {
		return nil, totalAttempts, firstErr
	}
	return results, totalAttempts, nil
}

// runMapAttempt executes one attempt of one map task on worker.
func (e *Engine) runMapAttempt(job *Job, split dfs.Split, worker string, attempt, task int, slot chan struct{}, jobStart time.Time) (mapResult, error) {
	slot <- struct{}{}
	defer func() { <-slot }()

	// Task process launch cost (Hadoop's per-task JVM start).
	time.Sleep(e.spec.TaskStartOverhead)

	if f := e.opts.FailTask; f != nil && f(job.Name, "map", task, attempt) {
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
		parts[job.Ops.Partition(k, job.NumReduce)].add(kv.Pair{Key: k, Value: v})
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
		for p := range parts {
			s := &parts[p]
			combined, err := runReduceFunc(job.Combine, s.appendTo(make([]kv.Pair, 0, s.n)), job.Ops)
			if err != nil {
				return mapResult{}, fmt.Errorf("combine: %w", err)
			}
			*s = spill{}
			for _, c := range combined {
				s.add(c)
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

// runReducePhase shuffles map outputs to reduce tasks and runs them,
// with the same retry and speculative-backup policy as the map phase.
// Duplicate attempts are safe: a reduce attempt is deterministic given
// the map outputs and writes the same part file.
func (e *Engine) runReducePhase(ctx context.Context, job *Job, mapResults []mapResult, workers []string, jobCounters *Counters) (outRecords, attempts int, shuffleBytes, shuffleRemote int64, err error) {
	slots := make(map[string]chan struct{}, len(workers))
	for _, w := range workers {
		slots[w] = make(chan struct{}, e.spec.ReduceSlots)
	}

	type redOutcome struct {
		task     int
		worker   string
		records  int
		bytes    int64
		remote   int64
		counters *Counters
		err      error
	}
	type taskState struct {
		done       bool
		attempts   int
		backup     bool
		launchedAt time.Time
	}
	states := make([]taskState, job.NumReduce)
	outcomes := make(chan redOutcome, job.NumReduce*2)
	var mu sync.Mutex

	launch := func(task int, worker string) {
		mu.Lock()
		states[task].attempts++
		attempt := states[task].attempts
		states[task].launchedAt = time.Now()
		attempts++
		mu.Unlock()
		e.m.Add(metrics.TasksLaunched, 1)
		go func() {
			records, bytes, remote, counters, err := e.runReduceAttempt(job, task, attempt, worker, mapResults, slots[worker])
			outcomes <- redOutcome{task: task, worker: worker, records: records, bytes: bytes, remote: remote, counters: counters, err: err}
		}()
	}
	for r := 0; r < job.NumReduce; r++ {
		launch(r, workers[r%len(workers)])
	}

	remaining := job.NumReduce
	var durations []time.Duration
	stopMon := make(chan struct{})
	defer close(stopMon)
	if e.opts.Speculative {
		go func() {
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopMon:
					return
				case <-tick.C:
					mu.Lock()
					if len(durations)*2 < job.NumReduce {
						mu.Unlock()
						continue
					}
					med := median(durations)
					threshold := time.Duration(float64(med) * e.opts.SpeculativeSlowdown)
					if threshold <= 0 {
						threshold = time.Millisecond
					}
					for t := range states {
						st := &states[t]
						if st.done || st.backup {
							continue
						}
						if time.Since(st.launchedAt) > threshold {
							st.backup = true
							other := otherWorker(workers, workers[t%len(workers)])
							e.m.Add(metrics.SpeculativeTasks, 1)
							mu.Unlock()
							launch(t, other)
							mu.Lock()
						}
					}
					mu.Unlock()
				}
			}
		}()
	}

	for remaining > 0 {
		var oc redOutcome
		select {
		case oc = <-outcomes:
		case <-ctx.Done():
			return 0, attempts, 0, 0, fmt.Errorf("mapreduce: job %s: canceled: %w", job.Name, context.Cause(ctx))
		}
		mu.Lock()
		st := &states[oc.task]
		if st.done {
			mu.Unlock()
			continue
		}
		if oc.err != nil {
			if st.attempts >= e.opts.MaxAttempts {
				mu.Unlock()
				return 0, attempts, 0, 0, fmt.Errorf("mapreduce: job %s reduce task %d failed after %d attempts: %w",
					job.Name, oc.task, st.attempts, oc.err)
			}
			e.m.Add(metrics.TaskRetries, 1)
			mu.Unlock()
			launch(oc.task, otherWorker(workers, oc.worker))
			continue
		}
		st.done = true
		durations = append(durations, time.Since(st.launchedAt))
		remaining--
		mu.Unlock()
		outRecords += oc.records
		shuffleBytes += oc.bytes
		shuffleRemote += oc.remote
		jobCounters.merge(oc.counters)
	}
	return outRecords, attempts, shuffleBytes, shuffleRemote, nil
}

// runReduceAttempt fetches partition task from every map output, groups,
// reduces, and writes the part file.
func (e *Engine) runReduceAttempt(job *Job, task, attempt int, worker string, mapResults []mapResult, slot chan struct{}) (int, int64, int64, *Counters, error) {
	slot <- struct{}{}
	defer func() { <-slot }()

	time.Sleep(e.spec.TaskStartOverhead)

	if f := e.opts.FailTask; f != nil && f(job.Name, "reduce", task, attempt) {
		return 0, 0, 0, nil, fmt.Errorf("injected failure (reduce task %d attempt %d)", task, attempt)
	}

	// One buffer of the exact total, filled map result by map result and
	// run by run: every key's values arrive in map-task, then emit, order.
	fetchStart := time.Now()
	n := 0
	for _, mr := range mapResults {
		n += mr.parts[task].n
	}
	fetched := make([]kv.Pair, 0, n)
	var bytes, remote int64
	for _, mr := range mapResults {
		fetched = mr.parts[task].appendTo(fetched)
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
	out, err := runReduceFunc(red, fetched, job.Ops)
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

// runReduceFunc groups pairs by key and applies fn, collecting emitted
// output.
func runReduceFunc(fn ReduceFunc, pairs []kv.Pair, ops kv.Ops) ([]kv.Pair, error) {
	groups := kv.GroupPairs(pairs, ops)
	out := make([]kv.Pair, 0, len(groups))
	emit := func(k, v any) { out = append(out, kv.Pair{Key: k, Value: v}) }
	for _, g := range groups {
		if err := fn(g.Key, g.Values, emit); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
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
