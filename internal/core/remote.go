package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/kv"
	"imapreduce/internal/transport"
)

// Out-of-process deployment: one imrmaster process owns the namenode,
// the job master and the DFS block service; imrworker processes host
// the persistent task pairs. This file is the part that exists only
// because the hosts are other processes — membership. Workers register
// with the master over the same typed-frame transport the data plane
// uses and probe it for liveness; what the master then ships them is
// the plan protocol of plan.go, whose acks carry the listen addresses
// of the endpoints they bound, folded into the shared address directory
// here. Every control exchange rides at-least-once delivery, so all
// handlers are idempotent.

// Control-plane logical addresses.
const (
	// CtlMasterAddr is the master's registration endpoint; it is the one
	// address a worker must know out-of-band (the -master flag).
	CtlMasterAddr = "ctl/master"
	// DFSAddr is the master-side block service endpoint.
	DFSAddr = "dfs/nn"
)

// ctlAddr is a worker's control endpoint.
func ctlAddr(worker string) string { return "ctl/" + worker }

// dfsClientAddr is a worker's DFS RPC reply endpoint.
func dfsClientAddr(worker string) string { return "dfs/c/" + worker }

// Control message kinds.
const (
	kindJoin    = "join"    // worker → master registration
	kindJoinAck = "joinack" // master → worker registration reply
	kindLeave   = "leave"   // worker → master graceful deregistration
	kindPing    = "ping"    // worker → master liveness probe
	kindPong    = "pong"    // master → worker liveness reply
)

// joinMsg registers a worker. Endpoints carries the listen addresses of
// the worker's own control endpoints (its ctl address, at minimum).
type joinMsg struct {
	Worker    string
	Endpoints map[string]string
}

// joinAckMsg accepts a registration. Epoch identifies the master
// *process*: a worker seeing a different epoch in a pong knows the
// master restarted and its membership is gone. Directory is the
// master's current address table.
type joinAckMsg struct {
	Worker    string
	Epoch     int64
	Directory map[string]string
}

// leaveMsg deregisters a worker gracefully; during a run it feeds the
// same failure path a crash detection does, minus the detection delay.
type leaveMsg struct{ Worker string }

type pingMsg struct{ Worker string }

type pongMsg struct{ Epoch int64 }

func init() {
	transport.RegisterMessage("imr.join", func(f *kv.Fields, m *joinMsg) { f.String(&m.Worker); f.StringMap(&m.Endpoints) })
	transport.RegisterMessage("imr.joinack", func(f *kv.Fields, m *joinAckMsg) { f.String(&m.Worker); f.Varint(&m.Epoch); f.StringMap(&m.Directory) })
	transport.RegisterMessage("imr.leave", func(f *kv.Fields, m *leaveMsg) { f.String(&m.Worker) })
	transport.RegisterMessage("imr.ping", func(f *kv.Fields, m *pingMsg) { f.String(&m.Worker) })
	transport.RegisterMessage("imr.pong", func(f *kv.Fields, m *pongMsg) { f.Varint(&m.Epoch) })
}

// RemoteClusterOptions configures the master's registration service.
type RemoteClusterOptions struct {
	// Listen is the host:port the control endpoint binds — the address
	// workers are pointed at. Required.
	Listen string
}

// RemoteCluster is the master-side membership service: it owns the
// fixed control endpoint, admits joining workers, answers their
// liveness pings, and surfaces departures to the engine's failure path.
type RemoteCluster struct {
	net *transport.TCPNetwork
	dir *transport.Directory
	ep  transport.Endpoint
	// epoch identifies this master process, from the wall clock at
	// start: a restarted master presents a new epoch, which is how
	// surviving workers learn their registration is void.
	epoch int64

	mu      sync.Mutex
	members map[string]bool
	changed chan struct{} // closed and replaced on every membership change
	onDown  func(worker string)

	wg sync.WaitGroup
}

// NewRemoteCluster binds the control endpoint at opts.Listen on net and
// starts admitting workers. dir must be the same directory net resolves
// through.
func NewRemoteCluster(net *transport.TCPNetwork, dir *transport.Directory, opts RemoteClusterOptions) (*RemoteCluster, error) {
	if opts.Listen == "" {
		return nil, fmt.Errorf("core: RemoteClusterOptions.Listen is required")
	}
	ep, err := net.EndpointAt(CtlMasterAddr, opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("core: bind control endpoint: %w", err)
	}
	rc := &RemoteCluster{
		net: net, dir: dir, ep: ep, epoch: time.Now().UnixNano(),
		members: make(map[string]bool),
		changed: make(chan struct{}),
	}
	if hp, ok := net.ListenAddr(CtlMasterAddr); ok {
		dir.Set(CtlMasterAddr, hp)
	}
	rc.wg.Add(1)
	go rc.loop()
	return rc, nil
}

// Workers lists the registered worker IDs, sorted.
func (rc *RemoteCluster) Workers() []string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]string, 0, len(rc.members))
	for w := range rc.members {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// WaitForWorkers blocks until at least min workers are registered and
// returns them.
func (rc *RemoteCluster) WaitForWorkers(ctx context.Context, min int) ([]string, error) {
	for {
		rc.mu.Lock()
		n := len(rc.members)
		ch := rc.changed
		rc.mu.Unlock()
		if n >= min {
			return rc.Workers(), nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, fmt.Errorf("core: waiting for %d workers (have %d): %w", min, n, ctx.Err())
		}
	}
}

// Spec builds a cluster spec over the registered workers.
func (rc *RemoteCluster) Spec(mapSlots, reduceSlots int) cluster.Spec {
	ids := rc.Workers()
	nodes := make([]cluster.Node, len(ids))
	for i, id := range ids {
		nodes[i] = cluster.Node{ID: id, Speed: 1.0}
	}
	return cluster.Spec{Nodes: nodes, MapSlots: mapSlots, ReduceSlots: reduceSlots}
}

func (rc *RemoteCluster) loop() {
	defer rc.wg.Done()
	for msg := range rc.ep.Recv() {
		switch pl := msg.Payload.(type) {
		case joinMsg:
			rc.dir.SetAll(pl.Endpoints)
			rc.mu.Lock()
			if !rc.members[pl.Worker] {
				rc.members[pl.Worker] = true
				close(rc.changed)
				rc.changed = make(chan struct{})
			}
			rc.mu.Unlock()
			ack := joinAckMsg{Worker: pl.Worker, Epoch: rc.epoch, Directory: rc.dir.Snapshot()}
			// The worker re-sends joins until it sees the ack; a lost
			// reply here only costs one retry round.
			_ = rc.ep.Send(ctlAddr(pl.Worker), transport.Message{Kind: kindJoinAck, Payload: ack})
		case leaveMsg:
			rc.mu.Lock()
			known := rc.members[pl.Worker]
			delete(rc.members, pl.Worker)
			down := rc.onDown
			if known {
				close(rc.changed)
				rc.changed = make(chan struct{})
			}
			rc.mu.Unlock()
			if known && down != nil {
				down(pl.Worker)
			}
		case pingMsg:
			// Liveness probes are periodic; a dropped pong is re-probed.
			_ = rc.ep.Send(ctlAddr(pl.Worker), transport.Message{Kind: kindPong, Payload: pongMsg{Epoch: rc.epoch}})
		}
	}
}

// Close shuts the control endpoint down and waits for the loop.
func (rc *RemoteCluster) Close() {
	rc.ep.Close()
	rc.wg.Wait()
}

// AttachRemote switches the engine to out-of-process deployment: runs
// ship their plans to the registered worker processes instead of to
// hosts the engine starts itself, and a worker leaving feeds the active
// run's failure path. The engine's network must be rc's network.
func (e *Engine) AttachRemote(rc *RemoteCluster) {
	e.rc = rc
	rc.mu.Lock()
	rc.onDown = func(w string) { _ = e.FailWorker(w) } // no active run: nothing to recover
	rc.mu.Unlock()
}
