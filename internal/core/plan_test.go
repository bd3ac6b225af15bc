package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// tapNet shows a test every Send before it happens, with the endpoint it
// leaves from — tap may act on it, send something of its own ahead of
// it, or return an error in its place, the way a FaultyNetwork surfaces
// an injected drop — and remembers the first endpoint bound to each
// address. Its endpoints implement nothing beyond transport.Endpoint
// (not transport.Serializer, so chunk buffers come home from their
// receivers).
type tapNet struct {
	transport.Network
	tap func(from transport.Endpoint, to string, msg transport.Message) error

	mu    sync.Mutex
	first map[string]transport.Endpoint
}

type tapEndpoint struct {
	transport.Endpoint
	net *tapNet
}

func (n *tapNet) Endpoint(addr string) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.first == nil {
		n.first = make(map[string]transport.Endpoint)
	}
	if _, seen := n.first[addr]; !seen {
		n.first[addr] = ep
	}
	n.mu.Unlock()
	return &tapEndpoint{Endpoint: ep, net: n}, nil
}

func (e *tapEndpoint) Send(to string, msg transport.Message) error {
	if err := e.net.tap(e.Endpoint, to, msg); err != nil {
		return err
	}
	return e.Endpoint.Send(to, msg)
}

// TestLostPlanAckDoesNotStallDeploy: the master never re-sends a plan,
// so a host must get its ack through a lossy link itself. One dropped
// planAck used to stall the deploy until the 30 s ack deadline and then
// fail the job.
func TestLostPlanAckDoesNotStallDeploy(t *testing.T) {
	spec := cluster.Uniform(3)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
	var drops atomic.Int64
	net := &tapNet{Network: transport.NewChanNetwork(), tap: func(_ transport.Endpoint, to string, msg transport.Message) error {
		if msg.Kind == kindPlanAck && drops.CompareAndSwap(0, 1) {
			return fmt.Errorf("dropped %s to %s", msg.Kind, to)
		}
		return nil
	}}
	e, err := NewEngine(fs, net, spec, m, Options{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	v := &env{e: e, fs: fs, m: m, spec: spec}
	v.writeState(t, "/state", 12)
	res, err := e.Run(halvingJob("halve-lostack", 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if drops.Load() != 1 {
		t.Fatal("no planAck was dropped: the test proved nothing")
	}
	if res.InitTime > time.Second {
		t.Fatalf("deploy took %v with one planAck dropped, want well under a second", res.InitTime)
	}
	for k, val := range v.readOutput(t, res.OutputPath) {
		if val.(float64) != 0.125 {
			t.Fatalf("key %d = %v, want 0.125", k, val)
		}
	}
}

// TestConcurrentRunsShareNetwork runs two differently-named jobs at
// once on two engines over one network and one DFS — how imr.Cluster
// and the job service run them — and fails a worker in each. A pair's
// task addresses do not depend on placement, and the hosts' control
// addresses are per run: neither run's move may disturb the other's
// endpoints, and each must finish with the exact sequential result.
func TestConcurrentRunsShareNetwork(t *testing.T) {
	guard(t, 2*time.Minute)
	spec := cluster.Uniform(3)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
	net := transport.NewChanNetwork()
	const iters = 10
	var wg sync.WaitGroup
	for i, victim := range []string{"worker-1", "worker-2"} {
		e, err := NewEngine(fs, net, spec, m, Options{Timeout: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		v := &env{e: e, fs: fs, m: m, spec: spec}
		state := fmt.Sprintf("/state-%d", i)
		v.writeState(t, state, 24)
		job := slowHalvingJob(fmt.Sprintf("halve-shared-%d", i), iters, 2)
		job.StatePath = state
		wg.Add(2)
		go func() {
			defer wg.Done()
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if e.FailWorker(victim) == nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			res, err := e.Run(job)
			if err != nil {
				t.Errorf("%s: %v", job.Name, err)
				return
			}
			if res.Recoveries != 1 || res.Iterations != iters {
				t.Errorf("%s: recoveries = %d, iterations = %d, want 1 and %d", job.Name, res.Recoveries, res.Iterations, iters)
			}
			out := v.readOutput(t, res.OutputPath)
			if len(out) != 24 {
				t.Errorf("%s: %d outputs survived the failure, want 24", job.Name, len(out))
			}
			for k, val := range out {
				if val.(float64) != math.Pow(2, -iters) {
					t.Errorf("%s: key %d = %v after recovery", job.Name, k, val)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSupersededRunReleasesItsPool: a worker process that missed a
// run's release learns the run is over from the next job's plan. The
// stale run goes the way a released one does — pairs closed and joined,
// and the pool made for it stopped, not left parked for the life of the
// process.
func TestSupersededRunReleasesItsPool(t *testing.T) {
	spec := cluster.Uniform(1)
	net := transport.NewChanNetwork()
	e, err := NewEngine(dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 1}, spec.IDs(), nil), net, spec, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := net.Endpoint("ctl")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	h := &host{id: "worker-0", net: net, ctl: ctl, open: func(p planMsg) (*Job, *Engine, *workerPool, error) {
		return halvingJob(p.Run.Name, 3, 0), e, nil, nil
	}}
	plan := func(name string) planMsg {
		return planMsg{Epoch: 1, Tuning: workerTuning{Parallelism: 3}, Assigns: []PairAssign{{Idx: 0}},
			Run: runMeta{Name: name, MainPhases: 1, MainTasks: 1, Placement: []string{"worker-0"}}}
	}
	if ack := h.applyPlan(plan("stale")); ack.Err != "" {
		t.Fatal(ack.Err)
	}
	stale := h.run
	if ack := h.applyPlan(plan("next")); ack.Err != "" {
		t.Fatal(ack.Err)
	}
	defer h.teardownRun()
	if h.run == stale || h.run.state.name != "next" {
		t.Fatalf("host still runs %q", h.run.state.name)
	}
	select {
	case <-stale.state.pool.done:
	default:
		t.Fatal("the superseded run's pool workers are still parked")
	}
}
