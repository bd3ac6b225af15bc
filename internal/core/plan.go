package core

import (
	"fmt"
	"sort"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/kv"
	"imapreduce/internal/transport"
)

// The plan protocol: how persistent task pairs are deployed, moved and
// torn down. The master ships every worker's host a plan naming the
// pairs it owns; the host converges on that set — closing pairs it
// lost, spawning pairs it gained — and answers with a planAck. Deploying
// a run is the first plan; moving a pair (failure recovery §3.4.1,
// load-balance migration §3.4.2) is a plan at the next epoch followed,
// once every ack is in, by the rollback to the last checkpoint; a
// release (or, for a host the engine started, the end of its control
// endpoint) ends the run. Hosts behind their own networks report where
// the endpoints they bound listen, and a second plan round then carries
// the completed directory to all of them, so nobody is addressed — least
// of all rolled back — before everyone can resolve everyone. The
// messages and both ends of the exchange are the same whether the hosts
// are goroutines the engine started over its own network or imrworker
// processes. Every exchange rides at-least-once delivery, so all
// handlers are idempotent.

// Plan message kinds.
const (
	kindPlan    = "plan"    // master → host task assignment
	kindPlanAck = "planack" // host → master plan applied + endpoints
	kindRelease = "release" // master → host run teardown
)

// PairAssign names one task pair a plan assigns to a worker.
type PairAssign struct {
	Idx int
	Aux bool
}

// workerTuning is the scalar subset of Options a worker's task-context
// engine needs; the function-valued fields stay master-side.
type workerTuning struct {
	Timeout           time.Duration
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	SendRetries       int
}

// runMeta is the host-side reconstruction recipe for runState.
type runMeta struct {
	Name         string
	MainPhases   int
	MainTasks    int
	AuxTasks     int
	OutputPath   string
	Placement    []string
	AuxPlacement []string
}

// planMsg tells a host which task pairs to own. Epoch orders plans
// within a run: every move bumps it, and the master ignores acks from
// superseded epochs. Plans are full, not incremental — a host spawns
// whatever assigned pairs it is missing, closes whatever it hosts that
// is no longer assigned, and adopts the placement table wholesale, so
// re-deliveries and re-plans are idempotent. JobKey/Params rebuild the
// job from the registry in a worker process; a host of the engine's own
// process was handed the job itself and ignores them.
type planMsg struct {
	Epoch     int
	JobKey    string
	Params    map[string]string
	Spec      cluster.Spec
	Tuning    workerTuning
	Run       runMeta
	Assigns   []PairAssign
	Directory map[string]string
}

// planAckMsg reports a plan applied; Endpoints maps every task address
// the host serves to its listen address (empty when master and hosts
// share one network and there is nothing to resolve).
type planAckMsg struct {
	Worker    string
	Epoch     int
	Err       string
	Endpoints map[string]string
}

// releaseMsg ends a run on the host: tear down task endpoints and drop
// the run context.
type releaseMsg struct{ Job string }

func init() {
	transport.RegisterMessage("imr.plan", walkPlan)
	transport.RegisterMessage("imr.planack", func(f *kv.Fields, m *planAckMsg) {
		f.String(&m.Worker, &m.Err)
		f.Int(&m.Epoch)
		f.StringMap(&m.Endpoints)
	})
	transport.RegisterMessage("imr.release", func(f *kv.Fields, m *releaseMsg) { f.String(&m.Job) })
}

func walkPlan(f *kv.Fields, m *planMsg) {
	s, t, r := &m.Spec, &m.Tuning, &m.Run
	f.Int(&m.Epoch, &s.MapSlots, &s.ReduceSlots, &t.HeartbeatMisses, &t.SendRetries, &r.MainPhases, &r.MainTasks, &r.AuxTasks)
	f.Varint((*int64)(&s.JobInitOverhead), (*int64)(&s.TaskStartOverhead), (*int64)(&t.Timeout), (*int64)(&t.HeartbeatInterval))
	f.String(&m.JobKey, &r.Name, &r.OutputPath)
	f.Strings(&r.Placement)
	f.Strings(&r.AuxPlacement)
	f.StringMap(&m.Params)
	f.StringMap(&m.Directory)
	kv.Slice(f, &s.Nodes, func(f *kv.Fields, n *cluster.Node) { f.String(&n.ID); f.F64(&n.Speed) })
	kv.Slice(f, &m.Assigns, func(f *kv.Fields, a *PairAssign) { f.Int(&a.Idx); f.Bool(&a.Aux) })
}

// planAckTimeout bounds how long the master waits for a worker's plan
// acknowledgement before giving up on it: at deploy the run fails, on a
// move the silent worker is itself declared failed.
const planAckTimeout = 30 * time.Second

// planner is the master's end of the protocol for one run: the plan
// template, the epoch counter, and the acks the current epoch still
// owes. Master goroutine only.
type planner struct {
	e      *Engine
	master transport.Endpoint
	run    *runState
	ts     *taskSet
	// ctl maps a worker to its host's control address; dir, when the
	// hosts live behind their own networks, collects the listen addresses
	// they report. Both come from the deployment (Engine.hosts).
	ctl func(worker string) string
	dir *transport.Directory

	tmpl     planMsg
	epoch    int
	planned  []string        // workers the current epoch went to
	pending  map[string]bool // of those, the ones whose ack is owed; nil when settled
	deadline time.Time
	// publishing marks the current epoch as the directory round of the
	// one before it: same placement, now with every listen address.
	// moved marks a replan after the first: pairs changed owner.
	publishing, moved bool
}

// newPlanner prepares the plan template for one run; Engine.hosts fills
// in where its plans go.
func (e *Engine) newPlanner(job *Job, meta runMeta, run *runState, master transport.Endpoint, ts *taskSet) *planner {
	return &planner{e: e, master: master, run: run, ts: ts, tmpl: planMsg{
		JobKey: job.Registry,
		Params: job.Params,
		Spec:   e.spec,
		Tuning: workerTuning{
			Timeout:           e.opts.Timeout,
			HeartbeatInterval: e.opts.HeartbeatInterval,
			HeartbeatMisses:   e.opts.HeartbeatMisses,
			SendRetries:       e.opts.SendRetries,
		},
		Run: meta,
	}}
}

// replan sends every listed worker its full plan at a new epoch, with
// the current placement. It returns the first send error; the caller
// decides whether that is fatal (deploy) or left to the ack deadline (a
// move — a worker that cannot be reached is declared failed itself).
func (p *planner) replan(workers []string) error {
	p.publishing, p.moved = false, p.epoch > 0
	return p.send(workers)
}

func (p *planner) send(workers []string) error {
	p.epoch++
	p.planned = workers
	p.pending = make(map[string]bool, len(workers))
	p.deadline = time.Now().Add(planAckTimeout)
	plan := p.tmpl
	plan.Epoch = p.epoch
	p.run.mu.RLock()
	plan.Run.Placement = append([]string(nil), p.run.pairWorker...)
	plan.Run.AuxPlacement = append([]string(nil), p.run.auxWorker...)
	p.run.mu.RUnlock()
	if p.dir != nil {
		plan.Directory = p.dir.Snapshot()
	}
	var first error
	for _, w := range workers {
		p.pending[w] = true
		plan.Assigns = nil
		for i, pw := range plan.Run.Placement {
			if pw == w {
				plan.Assigns = append(plan.Assigns, PairAssign{Idx: i})
			}
		}
		for i, aw := range plan.Run.AuxPlacement {
			if aw == w {
				plan.Assigns = append(plan.Assigns, PairAssign{Idx: i, Aux: true})
			}
		}
		err := p.e.sendReliable(p.master, p.ctl(w), transport.Message{Kind: kindPlan, Payload: plan})
		if err != nil && first == nil {
			first = fmt.Errorf("core: job %s: plan to %s: %w", p.run.name, w, err)
		}
	}
	return first
}

// deploy ships the run's first plans and waits until every worker has
// acknowledged: all persistent tasks exist, launched once (§3.1.1).
func (p *planner) deploy(workers []string) error {
	if err := p.replan(workers); err != nil {
		return err
	}
	timeout := time.After(time.Until(p.deadline))
	for {
		select {
		case msg, ok := <-p.master.Recv():
			if !ok {
				return fmt.Errorf("core: job %s: master endpoint closed during deploy", p.run.name)
			}
			ack, isAck := msg.Payload.(planAckMsg)
			if !isAck {
				continue // early heartbeats
			}
			settled, err := p.ack(ack)
			if err != nil {
				return err
			}
			if settled {
				transport.Preconnect(p.master, p.ts.all...)
				return nil
			}
		case <-timeout:
			return fmt.Errorf("core: job %s: workers %v never acknowledged their plan", p.run.name, p.overdue())
		}
	}
}

// moving reports whether a plan epoch is still collecting acks: pairs
// are in transit and the generation in flight is about to be rolled
// back.
func (p *planner) moving() bool { return p.pending != nil }

// overdue lists, sorted, the workers whose ack is still owed past the
// deadline.
func (p *planner) overdue() []string {
	if p.pending == nil || time.Now().Before(p.deadline) {
		return nil
	}
	out := make([]string, 0, len(p.pending))
	for w := range p.pending {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// ack folds one acknowledgement in; early heartbeats' neighbours —
// duplicate acks and acks of superseded epochs — are ignored. settled
// reports that this was the last owed ack: every assigned pair now runs
// at its owner, every host has the addresses the others reported, and
// connections cached towards a previous owner are dropped, so the caller
// may address the tasks (and, after a move, roll them back).
func (p *planner) ack(a planAckMsg) (settled bool, err error) {
	if a.Epoch != p.epoch || !p.pending[a.Worker] {
		return false, nil
	}
	if a.Err != "" {
		return false, fmt.Errorf("core: job %s: worker %s rejected plan: %s", p.run.name, a.Worker, a.Err)
	}
	if p.dir != nil {
		p.dir.SetAll(a.Endpoints)
	}
	delete(p.pending, a.Worker)
	if len(p.pending) > 0 {
		return false, nil
	}
	if p.dir != nil && !p.publishing {
		// A host that cannot be reached now is caught by the deadline.
		p.publishing = true
		_ = p.send(p.planned)
		return false, nil
	}
	p.pending = nil
	if inv, ok := p.e.net.(interface{ Invalidate(peer string) }); ok && p.moved {
		// Some task addresses now answer somewhere else: a cached
		// connection or armed dial gate would keep pointing at the
		// previous owner.
		for _, a := range p.ts.all {
			inv.Invalidate(a)
		}
	}
	return true, nil
}

// release ends the run on every worker process of the spec — including
// workers declared failed, which may be alive and still holding the
// run. Best-effort: one that misses it notices the master's silence (or
// the next run's plan) and cleans up then.
func (p *planner) release() {
	for _, w := range p.e.spec.IDs() {
		_ = p.e.sendReliable(p.master, p.ctl(w), transport.Message{Kind: kindRelease, Payload: releaseMsg{Job: p.run.name}})
	}
}
