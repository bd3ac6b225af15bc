package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// masterLoop is the job master (§3.1.2, §3.4): it merges per-iteration
// distance reports, decides termination, coordinates checkpoints,
// migrates task pairs off slow workers, and recovers from worker
// failures by rolling the cluster back to the last durable checkpoint.
func (e *Engine) masterLoop(ctx context.Context, job *Job, phases []*Job, aux *Job,
	n, auxN int, plans *planner, start time.Time, ckpts *ckptLedger) (*Result, error) {

	run, master, ts := plans.run, plans.master, plans.ts
	last := phases[len(phases)-1]
	totalTasks := len(ts.all)

	sendCmd := func(addrs []string, c cmdMsg) {
		for _, a := range addrs {
			// Command frames drive the protocol forward; retried sends
			// keep a transient link fault from deadlocking the run.
			_ = e.sendReliable(master, a, transport.Message{Kind: kindCmd, Payload: c})
		}
	}

	gen := 1
	rbToIter := 0
	acks := 0
	ackSeen := make(map[string]bool) // dedup of rollback acks by endpoint address
	reports := make(map[int]map[int]reportMsg)
	auxBuf := make(map[int]map[int][]kv.Pair)
	auxHandled := make(map[int]bool) // aux iterations already decided
	finalSeen := make(map[int]bool)
	// perIter[k] is iteration k's boundary once its barrier fired (Iter ==
	// k; zero before that), which is also what makes a duplicated report
	// unable to fire it again. A slice, not a map: a long run keeps one
	// entry per iteration, and map buckets cost several times the entry.
	var perIter []IterInfo
	fired := func(k int) bool { return k < len(perIter) && perIter[k].Iter == k }
	live := make(map[string]bool, len(e.spec.Nodes))
	for _, w := range e.spec.IDs() {
		live[w] = true
	}

	terminated := false
	converged := false
	auxStop := false
	stopIter := 0
	finals := 0
	outputRecords := 0
	migrations, recoveries := 0, 0
	lastMigIter := 0
	// migratedCount guards against the §3.4.2 pathology: on a uniform
	// cluster a skewed partition would otherwise keep moving from
	// worker to worker. After MaxPairMigrations moves the pair is
	// confined and no longer migrated.
	migratedCount := make(map[int]int)
	// Auxiliary flow control: the loop-back for iteration k is released
	// only once the auxiliary phase has evaluated iteration k-1, so the
	// aux phase overlaps the next iteration (§5.3's parallelism) without
	// falling arbitrarily far behind the decision point.
	auxDone := 0
	pendingProceed := map[int]bool{}

	rollbackAll := func(toIter int) {
		gen++
		acks = 0
		ackSeen = make(map[string]bool)
		rbToIter = toIter
		reports = make(map[int]map[int]reportMsg)
		auxBuf = make(map[int]map[int][]kv.Pair)
		auxHandled = make(map[int]bool)
		ckpts.reset(gen)
		pendingProceed = map[int]bool{}
		if auxDone > toIter {
			auxDone = toIter
		}
		// The new generation restarts at toIter+1: the boundaries past it
		// are recomputed, the ones before it stand.
		perIter = perIter[:min(len(perIter), toIter+1)]
		e.opts.Trace.Emit(trace.KindRollback, "master", -1, toIter,
			trace.Attr{Key: "gen", Value: fmt.Sprint(gen)})
		sendCmd(ts.all, cmdMsg{Kind: cmdRollback, Gen: gen, ToIter: toIter})
	}

	terminate := func() {
		terminated = true
		sendCmd(ts.all, cmdMsg{Kind: cmdTerminate})
	}

	// abort is the crash/cancel shutdown: tasks exit without writing
	// final output, leaving the DFS exactly as the last durable
	// checkpoint left it — the state a Resume restarts from.
	abort := func() {
		terminated = true
		sendCmd(ts.all, cmdMsg{Kind: cmdAbort})
	}

	// leastLoaded picks the live worker hosting the fewest main pairs.
	leastLoaded := func() string {
		load := map[string]int{}
		run.mu.RLock()
		for _, w := range run.pairWorker {
			load[w]++
		}
		run.mu.RUnlock()
		best := ""
		for w := range live {
			if !live[w] {
				continue
			}
			if best == "" || load[w] < load[best] {
				best = w
			}
		}
		return best
	}

	// movePairs is the one way a pair changes owner (the placement table
	// already says where to): every live worker's host gets its plan at a
	// new epoch — the old owner kills the pair, the new one relaunches it
	// and reloads its static data — and once all of them have
	// acknowledged, the planAck arm rolls every task back to the last
	// durable checkpoint. The rollback has to wait: tasks that do not
	// exist yet cannot acknowledge it, and a rollback they never saw would
	// stall the generation forever.
	movePairs := func() {
		workers := make([]string, 0, len(live))
		for w, ok := range live {
			if ok {
				workers = append(workers, w)
			}
		}
		sort.Strings(workers)
		// A worker that cannot be reached is caught by the ack deadline
		// and declared failed itself.
		_ = plans.replan(workers)
	}

	// failWorker is the single recovery path for crashed, hung, and
	// injected failures (§3.4.1): mark the worker dead, re-place every
	// pair that lived on it, move them. Returns a non-nil error only
	// when no worker is left to recover onto.
	failWorker := func(worker string) error {
		if !live[worker] || terminated {
			return nil
		}
		live[worker] = false
		if !anyLive(live) {
			terminate()
			return fmt.Errorf("core: job %s: all workers failed", job.Name)
		}
		e.fs.FailNode(worker)
		for i := 0; i < n; i++ {
			if run.workerOfPhasePair(0, i) == worker {
				run.setPairWorker(i, leastLoaded(), false)
			}
		}
		for i := 0; i < auxN; i++ {
			if run.workerOfPhasePair(len(phases), i) == worker {
				run.setPairWorker(i, leastLoaded(), true)
			}
		}
		recoveries++
		movePairs()
		return nil
	}

	// hostingWorkers lists the workers that currently host at least one
	// task pair — the set whose heartbeats matter. A live worker all of
	// whose pairs migrated away legitimately goes silent.
	hostingWorkers := func() map[string]bool {
		out := make(map[string]bool, len(live))
		run.mu.RLock()
		for _, w := range run.pairWorker {
			out[w] = true
		}
		for _, w := range run.auxWorker {
			out[w] = true
		}
		run.mu.RUnlock()
		return out
	}

	// Kick the computation off: reset everyone to the starting
	// checkpoint — iteration 0 on a fresh run, the resumed manifest's
	// iteration on a cold restart — then (on full acknowledgement) tell
	// the first phase's maps to load it.
	rollbackAll(ckpts.last)

	// Heartbeat bookkeeping: every task beats with its bound worker's
	// name; a hosting worker silent for HeartbeatMisses intervals is
	// declared failed — the detection half of §3.4.1, which the paper
	// delegates to Hadoop's heartbeat machinery.
	var beatCheck <-chan time.Time
	if e.opts.HeartbeatInterval > 0 {
		tick := time.NewTicker(e.opts.HeartbeatInterval)
		defer tick.Stop()
		beatCheck = tick.C
	}
	lastBeat := make(map[string]time.Time, len(live))
	for w := range live {
		lastBeat[w] = time.Now()
	}
	var lastSweep time.Time

	// Progress timeout, deadline-tracked: the deadline advances on every
	// received message; the timer only ever *checks* it, so a fire that
	// raced a delivered message cannot abort a healthy run (the old
	// Reset-without-drain idiom could double-fire).
	deadline := time.Now().Add(e.opts.Timeout)
	timer := time.NewTimer(e.opts.Timeout)
	defer timer.Stop()
	for {
		var msg transport.Message
		select {
		case m, ok := <-master.Recv():
			if !ok {
				return nil, fmt.Errorf("core: job %s: master endpoint closed", job.Name)
			}
			deadline = time.Now().Add(e.opts.Timeout)
			msg = m
		case <-ctx.Done():
			abort()
			return nil, fmt.Errorf("core: job %s: run canceled: %w", job.Name, context.Cause(ctx))
		case <-beatCheck:
			// Silence is only evidence if the detector was listening: a
			// sweep arriving late means this loop itself was blocked (a
			// remote respawn, slow sends) with unread beats queued in the
			// inbox. Skip one sweep so they drain; a genuinely dead worker
			// is still caught on the next timely one.
			if !lastSweep.IsZero() && time.Since(lastSweep) > 2*e.opts.HeartbeatInterval {
				lastSweep = time.Now()
				continue
			}
			lastSweep = time.Now()
			limit := time.Duration(e.opts.HeartbeatMisses) * e.opts.HeartbeatInterval
			hosting := hostingWorkers()
			// A rollback in flight commands every task into a blocking
			// checkpoint reload, during which none of them can reach their
			// beat ticker, and a move in flight has pairs that are not
			// running anywhere yet — that silence is expected, not evidence
			// of death. Staleness detection resumes once the generation is
			// fully acknowledged; a quiesce that never completes is caught
			// by the progress timeout instead.
			quiescing := acks < totalTasks || plans.moving()
			for w := range hosting {
				if !quiescing && live[w] && time.Since(lastBeat[w]) > limit {
					e.m.Add(metrics.FailuresDetected, 1)
					if err := failWorker(w); err != nil {
						return nil, err
					}
				}
			}
			// A worker that dies *during* a move escapes heartbeat
			// detection; past the deadline its missing ack is itself the
			// failure signal.
			for _, w := range plans.overdue() {
				if err := failWorker(w); err != nil {
					return nil, err
				}
			}
			continue
		case <-timer.C:
			// Drain pending progress before declaring silence: with both
			// channels ready the select may pick the timer even though a
			// message is waiting.
			select {
			case m, ok := <-master.Recv():
				if !ok {
					return nil, fmt.Errorf("core: job %s: master endpoint closed", job.Name)
				}
				deadline = time.Now().Add(e.opts.Timeout)
				msg = m
			default:
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("core: job %s: no progress for %v (deadlock or lost tasks)", job.Name, e.opts.Timeout)
				}
				timer.Reset(time.Until(deadline))
				continue
			}
			timer.Reset(e.opts.Timeout)
		}

		if plans.moving() {
			// While pairs are in transit the generation in flight is
			// condemned to the rollback that ends the move, and a command
			// sent now may reach a pair's fresh, stateless replacement
			// instead of the task that earned it. What the old tasks still
			// report decides nothing: not an iteration boundary, not an
			// auxiliary verdict, and not a checkpoint either — one that
			// became the rollback target without its boundary having been
			// handled could restart the run past its own stop.
			switch msg.Payload.(type) {
			case reportMsg, auxOutMsg, ckptMsg:
				continue
			}
		}
		switch pl := msg.Payload.(type) {
		case heartbeatMsg:
			if live[pl.Worker] {
				lastBeat[pl.Worker] = time.Now()
			}

		case rbAckMsg:
			// Dedup by sender endpoint: map and reduce tasks of one pair
			// share (Phase, Task), but each owns a unique address.
			if pl.Gen != gen || ackSeen[msg.From] {
				continue
			}
			ackSeen[msg.From] = true
			acks++
			if acks == totalTasks {
				// The quiesce is over: beats flow again from this instant,
				// so silence accumulated during the reload must not count.
				for w := range lastBeat {
					lastBeat[w] = time.Now()
				}
				sendCmd(ts.phase0Maps, cmdMsg{Kind: cmdGo, Gen: gen, ToIter: rbToIter})
			}

		case taskErrMsg:
			terminate()
			return nil, fmt.Errorf("core: job %s: task %d/%d failed: %s", job.Name, pl.Phase, pl.Task, pl.Err)

		case failMsg:
			if err := failWorker(pl.Worker); err != nil {
				return nil, err
			}

		case planAckMsg:
			// A move completes when every live worker has applied the plan:
			// only then does every pair exist again to hear the rollback.
			settled, err := plans.ack(pl)
			if err != nil {
				terminate()
				return nil, err
			}
			if settled {
				rollbackAll(ckpts.last)
			}

		case ckptMsg:
			ckpts.ack(pl)

		case auxOutMsg:
			if pl.Gen != gen || terminated || auxHandled[pl.Iter] {
				continue
			}
			if auxBuf[pl.Iter] == nil {
				auxBuf[pl.Iter] = make(map[int][]kv.Pair)
			}
			auxBuf[pl.Iter][pl.Task] = pl.Pairs
			if len(auxBuf[pl.Iter]) == auxN {
				auxHandled[pl.Iter] = true
				var all []kv.Pair
				for i := 0; i < auxN; i++ {
					all = append(all, auxBuf[pl.Iter][i]...)
				}
				aux.Ops.SortPairs(all)
				delete(auxBuf, pl.Iter)
				if pl.Iter > auxDone {
					auxDone = pl.Iter
				}
				if job.AuxDecide(pl.Iter, all) {
					// Termination signal from the auxiliary phase
					// (§5.3.2); applied at the next iteration boundary so
					// the final state is a consistent snapshot.
					auxStop = true
					converged = true
				}
				if pendingProceed[auxDone+1] {
					delete(pendingProceed, auxDone+1)
					if auxStop {
						// The held boundary is a consistent snapshot:
						// stop right here instead of feeding another
						// iteration.
						stopIter = auxDone + 1
						terminate()
					} else {
						sendCmd(ts.termReds, cmdMsg{Kind: cmdProceed, ToIter: auxDone + 1})
					}
				}
			}

		case reportMsg:
			if pl.Gen != gen || terminated || fired(pl.Iter) {
				continue
			}
			if reports[pl.Iter] == nil {
				reports[pl.Iter] = make(map[int]reportMsg)
			}
			reports[pl.Iter][pl.Task] = pl
			if len(reports[pl.Iter]) < n {
				continue
			}
			// Iteration boundary: merge the local distance values
			// (§3.1.2) and the timing reports (§3.4.2).
			iter := pl.Iter
			var dist float64
			var maxElapsed time.Duration
			for _, r := range reports[iter] {
				dist += r.Dist
				if d := time.Duration(r.ElapsedNanos); d > maxElapsed {
					maxElapsed = d
				}
			}
			for len(perIter) <= iter {
				perIter = append(perIter, IterInfo{})
			}
			perIter[iter] = IterInfo{
				Iter: iter, Dist: dist,
				CompletedAt:     time.Since(start),
				MaxTaskElapsed:  maxElapsed,
				CumShuffleBytes: e.m.Get(metrics.ShuffleBytes),
				CumStateBytes:   e.m.Get(metrics.StateBytes),
			}
			e.m.Add(metrics.Iterations, 1)
			e.opts.Trace.Emit(trace.KindIterDone, "master", -1, iter)
			if cb := e.opts.OnIteration; cb != nil {
				cb(perIter[iter])
			}
			stop := auxStop
			if last.MaxIter > 0 && iter >= last.MaxIter {
				stop = true
			}
			if last.DistThreshold > 0 && last.Distance != nil && dist < last.DistThreshold {
				stop = true
				converged = true
			}
			if stop {
				stopIter = iter
				terminate()
				continue
			}
			if e.maybeMigrate(run, reports[iter], live, iter, lastMigIter, migratedCount) {
				migrations++
				lastMigIter = iter
				movePairs()
				continue
			}
			// Release the gated loop-back: the termination check passed
			// and iteration iter+1 may be fed — unless an auxiliary
			// phase exists and has not yet evaluated iteration iter-1.
			if auxN > 0 && auxDone < iter-1 {
				pendingProceed[iter] = true
			} else {
				sendCmd(ts.termReds, cmdMsg{Kind: cmdProceed, ToIter: iter})
			}
			delete(reports, iter)

		case finalMsg:
			if pl.Err != "" {
				return nil, fmt.Errorf("core: job %s: final write of part %d: %s", job.Name, pl.Task, pl.Err)
			}
			if finalSeen[pl.Task] {
				continue
			}
			finalSeen[pl.Task] = true
			finals++
			outputRecords += pl.Records
			if finals == n {
				res := &Result{
					Iterations:    stopIter,
					Converged:     converged,
					OutputRecords: outputRecords,
					Migrations:    migrations,
					Recoveries:    recoveries,
				}
				// In iteration order, compacted in place: a resumed run has
				// no boundaries before its checkpoint.
				out := perIter[:0]
				for k := 1; k <= stopIter && k < len(perIter); k++ {
					if fired(k) {
						out = append(out, perIter[k])
					}
				}
				if len(out) > 0 {
					res.PerIter = out
				}
				return res, nil
			}
		}
	}
}

// maybeMigrate applies the paper's load-balancing rule (§3.4.2): compute
// the average iteration time excluding the longest and shortest, and if
// the slowest task deviates beyond the threshold, re-place its pair on
// the fastest worker. Returns true when a pair was re-placed (the caller
// moves it).
func (e *Engine) maybeMigrate(run *runState, reps map[int]reportMsg,
	live map[string]bool, iter, lastMigIter int, migratedCount map[int]int) bool {
	if !e.opts.LoadBalance || iter < e.opts.LBMinIter || iter <= lastMigIter+1 || len(reps) < 3 {
		return false
	}
	type te struct {
		task    int
		elapsed time.Duration
		worker  string
	}
	all := make([]te, 0, len(reps))
	for t, r := range reps {
		all = append(all, te{task: t, elapsed: time.Duration(r.ElapsedNanos), worker: r.Worker})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].elapsed < all[j].elapsed })
	var sum time.Duration
	for _, x := range all[1 : len(all)-1] {
		sum += x.elapsed
	}
	avg := sum / time.Duration(len(all)-2)
	slow := all[len(all)-1]
	if avg <= 0 || float64(slow.elapsed-avg)/float64(avg) <= e.opts.LBThreshold {
		return false
	}
	if migratedCount[slow.task] >= MaxPairMigrations {
		// Confined (§3.4.2): this pair is slow wherever it runs — the
		// partition itself is skewed, and moving it again would only
		// cost rollbacks.
		return false
	}
	// Fastest live worker by its worst task this iteration.
	worst := map[string]time.Duration{}
	for _, x := range all {
		if x.elapsed > worst[x.worker] {
			worst[x.worker] = x.elapsed
		}
	}
	fast := ""
	for w, d := range worst {
		if !live[w] || w == slow.worker {
			continue
		}
		if fast == "" || d < worst[fast] {
			fast = w
		}
	}
	if fast == "" {
		return false
	}
	run.setPairWorker(slow.task, fast, false)
	migratedCount[slow.task]++
	e.m.Add(metrics.TaskMigrations, 1)
	e.opts.Trace.Emit(trace.KindTaskMigrate, fast, slow.task, iter,
		trace.Attr{Key: "from", Value: slow.worker})
	return true
}

// MaxPairMigrations bounds how often the load balancer will move one
// task pair before confining it (§3.4.2: a skewed partition on a
// uniform cluster would otherwise keep moving around).
const MaxPairMigrations = 2

func anyLive(live map[string]bool) bool {
	for _, ok := range live {
		if ok {
			return true
		}
	}
	return false
}
