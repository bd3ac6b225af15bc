package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"imapreduce/internal/dfs"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// JobBuilder rebuilds a job definition from its registry key and
// parameters — the worker-side half of Job.Registry/Job.Params, since
// map/reduce functions cannot cross the wire.
type JobBuilder func(key string, params map[string]string) (*Job, error)

// WorkerHostOptions configures one worker process.
type WorkerHostOptions struct {
	// ID names this worker; it doubles as its DFS datanode name and must
	// be stable across restarts so a rejoin is recognizable. Required.
	ID string
	// MasterAddr is the host:port of the master's control endpoint.
	// Required.
	MasterAddr string
	// ListenHost is the interface task endpoints bind (default
	// 127.0.0.1).
	ListenHost string
	// Build rebuilds jobs from plan messages. Required.
	Build JobBuilder
	// Metrics may be nil.
	Metrics *metrics.Set

	// PingInterval paces the liveness probes to the master (default
	// 500ms); PingMisses consecutive silent intervals declare the master
	// dead (default 6), tearing the run down and re-entering the join
	// loop.
	PingInterval time.Duration
	PingMisses   int
}

const (
	// joinBackoff and joinBackoffMax bound the jittered exponential
	// backoff between registration attempts.
	joinBackoff    = 100 * time.Millisecond
	joinBackoffMax = 3 * time.Second
)

// WorkerHost is one worker process: it registers with the master,
// hosts the task pairs plans assign to it (the embedded host), pings
// for master liveness, and deregisters gracefully on shutdown. All run
// mutation happens on the Run goroutine; the task goroutines touch only
// their own engine context.
type WorkerHost struct {
	opts WorkerHostOptions
	dir  *transport.Directory
	net  *transport.TCPNetwork
	fsEp transport.Endpoint
	fs   *dfs.Client
	// joinBase is the first registration backoff: joinBackoff except in
	// tests that need the join loop faster.
	joinBase time.Duration
	host
}

// NewWorkerHost builds the host and binds its control endpoint; Run
// starts the protocol.
func NewWorkerHost(opts WorkerHostOptions) (*WorkerHost, error) {
	if opts.ID == "" || opts.MasterAddr == "" || opts.Build == nil {
		return nil, fmt.Errorf("core: WorkerHostOptions needs ID, MasterAddr and Build")
	}
	if opts.PingInterval <= 0 {
		opts.PingInterval = 500 * time.Millisecond
	}
	if opts.PingMisses <= 0 {
		opts.PingMisses = 6
	}
	dir := transport.NewDirectory()
	dir.Set(CtlMasterAddr, opts.MasterAddr)
	net := transport.NewTCPNetworkOpts(transport.TCPOptions{
		ListenHost: opts.ListenHost,
		Resolver:   dir.Resolve,
	})
	ctl, err := net.Endpoint(ctlAddr(opts.ID))
	if err != nil {
		net.Close()
		return nil, err
	}
	// The DFS client endpoint lives as long as the host (not one run):
	// its listen address travels in the join frame, so the master can
	// route RPC responses back before the first plan is even applied —
	// the worker's very first static load depends on that.
	fsEp, err := net.Endpoint(dfsClientAddr(opts.ID))
	if err != nil {
		net.Close()
		return nil, err
	}
	fs := dfs.NewClient(fsEp, DFSAddr)
	w := &WorkerHost{opts: opts, dir: dir, net: net, fsEp: fsEp, fs: fs, joinBase: joinBackoff}
	// Tasks of a run torn down because the master vanished may be wedged
	// in DFS calls that only this process's own shutdown (net.Close; the
	// DFS endpoint belongs to the process, not to a run) fails: the join
	// is bounded.
	w.host = host{id: opts.ID, net: net, ctl: ctl, open: w.openRun, listenAddr: net.ListenAddr, joinGrace: 2 * time.Second}
	return w, nil
}

// Terminate kills the host abruptly — no leave, no drain — as close to
// kill -9 as one process can emulate another's death. Run returns
// shortly after.
func (w *WorkerHost) Terminate() { w.net.Close() }

// Run drives the worker protocol until ctx is canceled (graceful
// shutdown: deregister, drain, exit) or the host is terminated. A lost
// master tears the current run down and re-enters the join loop with
// backoff, so an `imrmaster -resume` finds its surviving workers
// already knocking.
func (w *WorkerHost) Run(ctx context.Context) error {
	defer func() {
		w.teardownRun()
		w.net.Close()
	}()

	joined := false
	var joinedEpoch int64
	lastPong := time.Now()
	var lastTick time.Time
	nextJoin := time.Now()
	backoff := w.joinBase
	// The join pacing rides the ping ticker: at PingInterval granularity
	// the worker either re-sends a registration (gated by the jittered
	// backoff) or probes the master it is registered with.
	tick := time.NewTicker(w.opts.PingInterval)
	defer tick.Stop()

	unregister := func() {
		w.teardownRun()
		joined = false
		backoff = w.joinBase
		nextJoin = time.Now()
		lastPong = time.Now()
	}

	for {
		select {
		case <-ctx.Done():
			if joined {
				// Graceful deregistration: the master re-places our pairs
				// through the same path a detected crash takes, minus the
				// detection delay.
				_, _ = transport.ReliableSend(w.ctl, CtlMasterAddr,
					transport.Message{Kind: kindLeave, Payload: leaveMsg{Worker: w.opts.ID}},
					3, 10*time.Millisecond)
			}
			return nil

		case <-tick.C:
			if !joined {
				if !time.Now().After(nextJoin) {
					continue
				}
				join := joinMsg{Worker: w.opts.ID, Endpoints: map[string]string{}}
				for _, addr := range []string{ctlAddr(w.opts.ID), dfsClientAddr(w.opts.ID)} {
					if hp, ok := w.net.ListenAddr(addr); ok {
						join.Endpoints[addr] = hp
					}
				}
				// Registration is retried on this backoff schedule until
				// the master answers; dial failures additionally sit behind
				// the transport's own dial gate.
				_ = w.ctl.Send(CtlMasterAddr, transport.Message{Kind: kindJoin, Payload: join})
				nextJoin = time.Now().Add(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
				if backoff *= 2; backoff > joinBackoffMax {
					backoff = joinBackoffMax
				}
				continue
			}
			// Probes are periodic; a dropped one is indistinguishable from
			// a missed pong and the next tick re-probes.
			_ = w.ctl.Send(CtlMasterAddr, transport.Message{Kind: kindPing, Payload: pingMsg{Worker: w.opts.ID}})
			// Silence only counts if this loop was actually probing: a
			// tick arriving late means the loop itself was busy (applying
			// a plan is the long pole — every static block loads inside
			// it), not that the master went quiet. Skip one check so the
			// queued pongs drain and the probe cadence re-establishes.
			if !lastTick.IsZero() && time.Since(lastTick) > 2*w.opts.PingInterval {
				lastTick = time.Now()
				continue
			}
			lastTick = time.Now()
			if time.Since(lastPong) > time.Duration(w.opts.PingMisses)*w.opts.PingInterval {
				// Master lost: drop the run (its DFS lives in the master
				// process anyway) and re-register — a resumed master
				// rebuilds membership from exactly these rejoin attempts.
				unregister()
			}

		case msg, ok := <-w.ctl.Recv():
			if !ok {
				return nil // terminated
			}
			switch pl := msg.Payload.(type) {
			case joinAckMsg:
				if pl.Worker != w.opts.ID {
					continue
				}
				w.adoptDirectory(pl.Directory)
				joined, joinedEpoch, lastPong = true, pl.Epoch, time.Now()
			case pongMsg:
				if joined && pl.Epoch != joinedEpoch {
					// A pong from a different master process: it restarted
					// and our membership is void. Rejoin from scratch.
					unregister()
					continue
				}
				lastPong = time.Now()
			case planMsg:
				w.adoptDirectory(pl.Directory)
				ack := w.applyPlan(pl)
				if hp, ok := w.net.ListenAddr(dfsClientAddr(w.opts.ID)); ok {
					ack.Endpoints[dfsClientAddr(w.opts.ID)] = hp
				}
				w.reply(msg.From, pl, ack)
				// A plan is proof of master liveness as strong as any
				// pong — and applying it blocked this loop for as long as
				// the static loads took, a span that must not be read as
				// master silence (it would tear down the run just planned).
				lastPong = time.Now()
			case releaseMsg:
				w.teardownRun()
				lastPong = time.Now()
			}
		}
	}
}

// adoptDirectory merges the master's directory and drops the
// connections cached towards every entry that moved: a pair re-placed by
// a plan, or — in a join acknowledgement — the endpoints of a restarted
// master, whose predecessor's sockets would swallow the first request
// after the rejoin until its retry.
func (w *WorkerHost) adoptDirectory(dir map[string]string) {
	for _, peer := range w.dir.SetAll(dir) {
		w.net.Invalidate(peer)
	}
}

// openRun builds the task context a plan's run executes in here: the
// job from the registry (functions cannot cross the wire) and an engine
// over the DFS client against the master's block service and this
// process's network.
func (w *WorkerHost) openRun(p planMsg) (*Job, *Engine, error) {
	if p.JobKey == "" {
		return nil, nil, fmt.Errorf("core: job %s has no Job.Registry key: a worker process cannot rebuild it (build it through internal/jobs)", p.Run.Name)
	}
	job, err := w.opts.Build(p.JobKey, p.Params)
	if err != nil {
		return nil, nil, fmt.Errorf("core: worker %s: build job %q: %w", w.opts.ID, p.JobKey, err)
	}
	eng, err := NewEngine(w.fs, w.net, p.Spec, w.opts.Metrics, Options{
		Timeout:           p.Tuning.Timeout,
		HeartbeatInterval: p.Tuning.HeartbeatInterval,
		HeartbeatMisses:   p.Tuning.HeartbeatMisses,
		SendRetries:       p.Tuning.SendRetries,
	})
	if err != nil {
		return nil, nil, err
	}
	return job, eng, nil
}
