package core

import "imapreduce/internal/transport"

// taskFactory builds persistent map/reduce tasks with their routing
// wired up, for the pairs a plan assigns to a host.
type taskFactory struct {
	e      *Engine
	job    *Job
	phases []*Job
	aux    *Job
	run    *runState
	n      int
	auxN   int
}

// auxPhaseIndex is the phase number of the auxiliary pairs (one past
// the main phases).
func (f *taskFactory) auxPhaseIndex() int { return len(f.phases) }

func bufThreshOf(j *Job) int {
	if j.BufferThreshold > 0 {
		return j.BufferThreshold
	}
	return DefaultBufferThreshold
}

// buildMapTask constructs (without starting) the map task of
// (phase, idx) bound to ep. phase == len(phases) selects the auxiliary
// job. loadStatic is not called here; the caller decides when the DFS
// read happens.
func (f *taskFactory) buildMapTask(phase, idx int, ep transport.Endpoint) *mapTask {
	def := loopsOf(f.job, phase)
	if phase == f.auxPhaseIndex() {
		redAddrs := make([]string, f.auxN)
		for i := range redAddrs {
			redAddrs[i] = redAddr(f.job.Name, phase, i)
		}
		feeders := 1
		broadcast := false
		if f.aux.Mapping == OneToAll {
			feeders, broadcast = f.n, true // fed by all main termination reduces
		}
		t := &mapTask{
			e: f.e, run: f.run, master: masterAddr(f.job.Name), job: f.aux,
			phase: phase, idx: idx, isAux: true,
			broadcast:  broadcast,
			stream:     !f.aux.SyncMap && !broadcast,
			feeders:    feeders,
			worker:     f.run.auxWorker[idx],
			ep:         ep,
			redAddrs:   redAddrs,
			numReduce:  f.auxN,
			bufThresh:  bufThreshOf(f.aux),
			outBuf:     make([]*chunkBuf, f.auxN),
			bufs:       newFreeList(bufThreshOf(f.aux), f.auxN, def.newCols),
			sent:       make([]chunkCount, f.auxN),
			serializes: transport.SerializesOnSend(ep),
			pend:       make(map[int]*accum),
		}
		t.loops = def.mapLoops(t)
		return t
	}
	p := f.phases[phase]
	redAddrs := make([]string, f.n)
	for i := range redAddrs {
		redAddrs[i] = redAddr(f.job.Name, phase, i)
	}
	feeders := 1
	broadcast := false
	if phase == 0 && p.Mapping == OneToAll {
		feeders, broadcast = f.n, true
	}
	t := &mapTask{
		e: f.e, run: f.run, master: masterAddr(f.job.Name), job: p,
		phase: phase, idx: idx,
		selfLoads:  phase == 0,
		broadcast:  broadcast,
		stream:     !p.SyncMap && !broadcast,
		feeders:    feeders,
		worker:     f.run.pairWorker[idx],
		ep:         ep,
		redAddrs:   redAddrs,
		numReduce:  f.n,
		bufThresh:  bufThreshOf(p),
		outBuf:     make([]*chunkBuf, f.n),
		bufs:       newFreeList(bufThreshOf(p), f.n, def.newCols),
		sent:       make([]chunkCount, f.n),
		serializes: transport.SerializesOnSend(ep),
		pend:       make(map[int]*accum),
	}
	t.loops = def.mapLoops(t)
	return t
}

// gatesOutput reports whether the termination reduces of a job whose
// last phase is last hold each iteration's loop-back output until the
// master's cmdProceed. Only a job that may stop at any iteration
// boundary — on a distance threshold, or on its auxiliary phase's
// decision — must not feed the next iteration before the verdict.
func gatesOutput(last *Job, aux bool) bool {
	return last.DistThreshold > 0 && last.Distance != nil || aux
}

// buildReduceTask constructs (without starting) the reduce task of
// (phase, idx) bound to ep, including the loop-back / broadcast /
// auxiliary fan-out routing of its output state.
func (f *taskFactory) buildReduceTask(phase, idx int, ep transport.Endpoint) *reduceTask {
	def := loopsOf(f.job, phase)
	if phase == f.auxPhaseIndex() {
		rt := &reduceTask{
			e: f.e, run: f.run, master: masterAddr(f.job.Name), job: f.aux,
			phase: phase, idx: idx, isAux: true,
			toMaster:   true,
			worker:     f.run.auxWorker[idx],
			ep:         ep,
			numMaps:    f.auxN,
			bufThresh:  bufThreshOf(f.aux),
			bufs:       newFreeList(bufThreshOf(f.aux), 1, def.newCols),
			serializes: transport.SerializesOnSend(ep),
			pend:       make(map[int]*accum),
		}
		rt.loops = def.reduceLoops(rt)
		return rt
	}
	p := f.phases[phase]
	last := len(f.phases) - 1
	lastJob := f.phases[last]
	gated := phase == last && gatesOutput(lastJob, f.aux != nil)
	rt := &reduceTask{
		e: f.e, run: f.run, master: masterAddr(f.job.Name), job: p,
		phase: phase, idx: idx,
		isTermination: phase == last,
		gated:         gated,
		worker:        f.run.pairWorker[idx],
		ep:            ep,
		numMaps:       f.n,
		bufThresh:     bufThreshOf(p),
		bufs:          newFreeList(bufThreshOf(p), 1, def.newCols),
		serializes:    transport.SerializesOnSend(ep),
		pend:          make(map[int]*accum),
		held:          make(map[int]records),
	}
	rt.loops = def.reduceLoops(rt)
	// Route the new state: phase pi feeds phase pi+1's maps within the
	// iteration; the last phase loops back to phase 0's maps for the
	// next iteration.
	nextPhase := phase + 1
	rt.targetIterDelta = 0
	if phase == last {
		nextPhase = 0
		rt.targetIterDelta = 1
	}
	nextJob := f.phases[nextPhase]
	if nextPhase == 0 && nextJob.Mapping == OneToAll {
		rt.targetAddrs = make([]string, f.n)
		for j := range rt.targetAddrs {
			rt.targetAddrs[j] = mapAddr(f.job.Name, nextPhase, j)
		}
	} else {
		rt.targetAddrs = []string{mapAddr(f.job.Name, nextPhase, idx)}
	}
	rt.targetPhase = nextPhase
	if phase == last && f.aux != nil {
		auxPhase := f.auxPhaseIndex()
		rt.auxPhase = auxPhase
		if f.aux.Mapping == OneToAll {
			rt.auxAddrs = make([]string, f.auxN)
			for j := range rt.auxAddrs {
				rt.auxAddrs[j] = mapAddr(f.job.Name, auxPhase, j)
			}
		} else {
			rt.auxAddrs = []string{mapAddr(f.job.Name, auxPhase, idx)}
		}
	}
	return rt
}

// buildTaskSet computes the full address bookkeeping of a run without
// creating any endpoints: the hosts bind them, the master only sends.
func buildTaskSet(jobName string, numPhases, n, auxN int) *taskSet {
	ts := &taskSet{}
	last := numPhases - 1
	for pi := 0; pi < numPhases; pi++ {
		for i := 0; i < n; i++ {
			ma, ra := mapAddr(jobName, pi, i), redAddr(jobName, pi, i)
			ts.all = append(ts.all, ma, ra)
			if pi == 0 {
				ts.phase0Maps = append(ts.phase0Maps, ma)
			}
			if pi == last {
				ts.termReds = append(ts.termReds, ra)
			}
		}
	}
	for i := 0; i < auxN; i++ {
		ts.all = append(ts.all, mapAddr(jobName, numPhases, i), redAddr(jobName, numPhases, i))
	}
	return ts
}
