package core

import (
	"fmt"
	"sync"
	"time"

	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// host is one worker's end of the plan protocol and the only code that
// builds, starts, stops and joins persistent tasks. An imrworker
// process wraps one in its membership loop (WorkerHost); an in-process
// run is one host per cluster.Spec worker over the engine's own network
// and file system (Engine.hosts). All of it runs on the one goroutine
// that drains ctl; the task goroutines touch only their own state.
type host struct {
	id  string
	net transport.Network
	ctl transport.Endpoint
	// open resolves a job's first plan to its definition and the engine
	// context its tasks execute in (file system, metrics, trace, tuning,
	// stall hooks).
	open func(p planMsg) (*Job, *Engine, error)
	// listenAddr reports where a hosted endpoint listens, for the ack; nil
	// when master and hosts share one network.
	listenAddr func(addr string) (string, bool)
	// joinGrace bounds teardownRun's wait for the task goroutines; 0 waits
	// for all of them.
	joinGrace time.Duration

	run *hostedRun
}

// hostedRun is one deployed job on this host.
type hostedRun struct {
	epoch   int
	engine  *Engine
	factory *taskFactory
	state   *runState
	eps     map[string]transport.Endpoint // hosted task address → endpoint
	wg      sync.WaitGroup
}

// serve applies plans until the control endpoint closes, then drops
// whatever run is left — the whole life of a host the engine started.
func (h *host) serve() {
	defer h.teardownRun()
	for msg := range h.ctl.Recv() {
		if pl, ok := msg.Payload.(planMsg); ok {
			h.reply(msg.From, pl, h.applyPlan(pl))
		}
	}
}

// reply acknowledges plan p to the master under the run's own retry
// policy: the master does not re-send a plan, so a lost ack would stall
// the deploy (or the move) until its deadline.
func (h *host) reply(to string, p planMsg, ack planAckMsg) {
	_, _ = transport.ReliableSend(h.ctl, to, transport.Message{Kind: kindPlanAck, Payload: ack},
		p.Tuning.SendRetries, sendRetryBackoff)
}

// applyPlan deploys (or re-deploys) a plan: build the run context if
// this is the first plan of the job, then — for a new epoch — adopt the
// plan's placement wholesale and converge on its assignment. Idempotent:
// re-delivered and superseded plans just re-ack the current state.
func (h *host) applyPlan(p planMsg) planAckMsg {
	ack := planAckMsg{Worker: h.id, Epoch: p.Epoch}
	if h.listenAddr != nil {
		ack.Endpoints = map[string]string{}
	}
	if h.run != nil && h.run.state.name != p.Run.Name {
		h.teardownRun()
	}
	if h.run == nil {
		r, err := h.newRun(p)
		if err != nil {
			ack.Err = err.Error()
			return ack
		}
		h.run = r
	}
	r := h.run
	if p.Epoch > r.epoch {
		r.epoch = p.Epoch
		r.state.mu.Lock()
		copy(r.state.pairWorker, p.Run.Placement)
		copy(r.state.auxWorker, p.Run.AuxPlacement)
		r.state.mu.Unlock()
		if err := h.converge(r, p.Assigns); err != nil {
			ack.Err = err.Error()
			return ack
		}
	}
	if h.listenAddr != nil {
		for addr := range r.eps {
			if hp, ok := h.listenAddr(addr); ok {
				ack.Endpoints[addr] = hp
			}
		}
	}
	return ack
}

// newRun builds the per-job context for the run a plan describes.
func (h *host) newRun(p planMsg) (*hostedRun, error) {
	job, eng, err := h.open(p)
	if err != nil {
		return nil, err
	}
	phases := job.Phases()
	if len(phases) != p.Run.MainPhases {
		return nil, fmt.Errorf("core: worker %s: job %q built %d phases, plan says %d — registry drift",
			h.id, p.JobKey, len(phases), p.Run.MainPhases)
	}
	if (job.auxiliary != nil) != (p.Run.AuxTasks > 0) {
		return nil, fmt.Errorf("core: worker %s: job %q auxiliary phase mismatch with plan — registry drift", h.id, p.JobKey)
	}
	run := newRunState(p.Run)
	return &hostedRun{
		engine:  eng,
		factory: &taskFactory{e: eng, job: job, phases: phases, aux: job.auxiliary, run: run, n: p.Run.MainTasks, auxN: p.Run.AuxTasks},
		state:   run,
		eps:     make(map[string]transport.Endpoint),
	}, nil
}

// converge makes the hosted pairs equal the assigned ones. A pair that
// moved away is killed by closing its endpoints (its task loops end on
// the closed inboxes and are joined at teardown); a pair that moved here
// is bound, built, given its static partition from the DFS — a remote
// read after a move, §3.4.2 — and started. Every endpoint is bound
// before the first static load, so by the time any host of the run
// warms its connections its peers' endpoints exist.
func (h *host) converge(r *hostedRun, assigns []PairAssign) error {
	type pair struct {
		mt *mapTask
		rt *reduceTask
	}
	var fresh []pair
	want := make(map[string]bool, len(r.eps))
	for _, a := range assigns {
		first, limit := 0, r.state.mainPhases
		if a.Aux {
			first, limit = limit, limit+1
		}
		for phase := first; phase < limit; phase++ {
			ma, ra := mapAddr(r.state.name, phase, a.Idx), redAddr(r.state.name, phase, a.Idx)
			want[ma], want[ra] = true, true
			if r.eps[ma] != nil {
				continue
			}
			mep, err := h.bind(r, ma)
			if err != nil {
				return err
			}
			rep, err := h.bind(r, ra)
			if err != nil {
				return err
			}
			fresh = append(fresh, pair{r.factory.buildMapTask(phase, a.Idx, mep), r.factory.buildReduceTask(phase, a.Idx, rep)})
		}
	}
	for addr, ep := range r.eps {
		if !want[addr] {
			ep.Close()
			delete(r.eps, addr)
		}
	}
	tr := r.engine.opts.Trace
	for _, p := range fresh {
		lstart := time.Now()
		if err := p.mt.loadStatic(); err != nil {
			return err
		}
		if r.epoch > 1 {
			tr.RecordSpan(trace.SpanLoad, h.id, p.mt.tid(), 1, lstart, time.Since(lstart))
		}
	}
	for _, p := range fresh {
		ph := fmt.Sprint(p.mt.phase)
		if p.mt.isAux {
			ph = "aux"
		}
		r.engine.m.Add(metrics.TasksLaunched, 2)
		tr.Emit(trace.KindTaskLaunch, h.id, p.mt.tid(), 0, trace.Attr{Key: "phase", Value: ph})
		r.wg.Add(2)
		go func() { defer r.wg.Done(); p.mt.loop() }()
		go func() { defer r.wg.Done(); p.rt.loop() }()
	}
	// Connection warming: on the TCP transport the dial+handshake round
	// trips of each task's peer set overlap the first iteration's
	// load/compute instead of being paid one by one inside its first send
	// loops. Best-effort — a peer not bound yet just dials on first send.
	master := masterAddr(r.state.name)
	for _, p := range fresh {
		transport.Preconnect(p.mt.ep, append([]string{master}, p.mt.redAddrs...)...)
		transport.Preconnect(p.rt.ep, append(append([]string{master}, p.rt.targetAddrs...), p.rt.auxAddrs...)...)
	}
	return nil
}

// bind claims a task address this host was just assigned. The address
// does not depend on placement, so a pair that moved here over a network
// its previous owner shares (listenAddr is nil) may still be bound there
// — that host is hung, or has not applied this epoch yet — and Endpoint
// would hand out the stale endpoint. The plan is the authority: whatever
// holds the address is closed first, which ends its task loops (the pair
// is killed, §3.4.1), and the address bound afresh. Nothing moved before
// the first epoch, and a host on a network of its own shares it with no
// other.
func (h *host) bind(r *hostedRun, addr string) (transport.Endpoint, error) {
	ep, err := h.net.Endpoint(addr)
	if err == nil && r.epoch > 1 && h.listenAddr == nil {
		ep.Close()
		ep, err = h.net.Endpoint(addr)
	}
	if err == nil {
		r.eps[addr] = ep
	}
	return ep, err
}

// teardownRun closes the current run's endpoints (task loops exit on
// their closed inbox) and joins the task goroutines — each of which has
// joined its own checkpoint writers — within joinGrace, since a run
// torn down because the master vanished may hold tasks wedged inside
// user functions or in-flight DFS calls.
func (h *host) teardownRun() {
	r := h.run
	h.run = nil
	if r == nil {
		return
	}
	for _, ep := range r.eps {
		ep.Close()
	}
	joinWithin(&r.wg, h.joinGrace)
}

// joinWithin waits for wg — at most grace, when grace is positive.
func joinWithin(wg *sync.WaitGroup, grace time.Duration) {
	if grace <= 0 {
		wg.Wait()
		return
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
	}
}
