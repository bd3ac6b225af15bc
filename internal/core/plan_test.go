package core

import (
	"errors"
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
// it, return an error in its place, the way a FaultyNetwork surfaces an
// injected drop, or return errTaken to take the message over and send it
// later itself — and remembers the first endpoint bound to each
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

// errTaken, returned by a tap, tells the sender its message went out:
// the tap holds it and sends it from the endpoint it was given.
var errTaken = errors.New("taken over by the tap")

func (e *tapEndpoint) Send(to string, msg transport.Message) error {
	if err := e.net.tap(e.Endpoint, to, msg); err != nil {
		if err == errTaken {
			return nil
		}
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

// TestFailWorkerReachesTheMasterInProcess: a failure announced from
// OnIteration is recovered even when no message the master sends itself
// is ever delivered. The announcement must not travel as such a message:
// one that arrives after the run has terminated is ignored.
func TestFailWorkerReachesTheMasterInProcess(t *testing.T) {
	spec := cluster.Uniform(3)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
	job := halvingJob("halve-failinproc", 8, 0)
	job.CheckpointEvery = 2
	var held atomic.Int64
	net := &tapNet{Network: transport.NewChanNetwork(), tap: func(from transport.Endpoint, to string, _ transport.Message) error {
		if to == masterAddr(job.Name) && from.Addr() == to {
			held.Add(1)
			return errTaken // held for good
		}
		return nil
	}}
	var e *Engine
	var failErr error
	e, err := NewEngine(fs, net, spec, m, Options{Timeout: 20 * time.Second, OnIteration: func(it IterInfo) {
		if it.Iter == 3 {
			failErr = e.FailWorker("worker-1")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	v := &env{e: e, fs: fs, m: m, spec: spec}
	v.writeState(t, "/state", 12)
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if failErr != nil {
		t.Fatalf("FailWorker at iteration 3: %v", failErr)
	}
	if res.Recoveries < 1 {
		t.Fatalf("recoveries = %d (%d master self-sends held), want at least 1", res.Recoveries, held.Load())
	}
	for k, val := range v.readOutput(t, res.OutputPath) {
		if val.(float64) != math.Pow(2, -8) {
			t.Fatalf("key %d = %v after recovery, want 2^-8", k, val)
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

// TestSupersededRunIsTornDown: a worker process that missed a run's
// release learns the run is over from the next job's plan. The stale run
// goes the way a released one does — every endpoint closed and every
// task goroutine joined, not left parked for the life of the process.
func TestSupersededRunIsTornDown(t *testing.T) {
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
	h := &host{id: "worker-0", net: net, ctl: ctl, open: func(p planMsg) (*Job, *Engine, error) {
		return halvingJob(p.Run.Name, 3, 0), e, nil
	}}
	plan := func(name string) planMsg {
		return planMsg{Epoch: 1, Assigns: []PairAssign{{Idx: 0}},
			Run: runMeta{Name: name, MainPhases: 1, MainTasks: 1, Placement: []string{"worker-0"}}}
	}
	if ack := h.applyPlan(plan("stale")); ack.Err != "" {
		t.Fatal(ack.Err)
	}
	stale := h.run
	if len(stale.eps) != 2 {
		t.Fatalf("the stale run hosts %d endpoints, want a map and a reduce", len(stale.eps))
	}
	if ack := h.applyPlan(plan("next")); ack.Err != "" {
		t.Fatal(ack.Err)
	}
	defer h.teardownRun()
	if h.run == stale || h.run.state.name != "next" {
		t.Fatalf("host still runs %q", h.run.state.name)
	}
	for addr, ep := range stale.eps {
		select {
		case _, open := <-ep.Recv():
			if open {
				t.Fatalf("the superseded run's endpoint %s still delivers", addr)
			}
		default:
			t.Fatalf("the superseded run's endpoint %s is still open", addr)
		}
	}
	joined := make(chan struct{})
	go func() { stale.wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(time.Second):
		t.Fatal("the superseded run's tasks are still running")
	}
}

// TestProceedOnlyToGatedReduces counts the cmdProceed commands the master
// sends. Only a gated termination reduce holds its loop-back output for
// one: a job that stops on MaxIter alone is sent none, and a job with a
// DistThreshold one per termination reduce at every boundary it does not
// stop at.
func TestProceedOnlyToGatedReduces(t *testing.T) {
	const tasks, iters = 4, 5
	for _, gated := range []bool{false, true} {
		var mu sync.Mutex
		proceeds := map[string]int{} // reduce address and iteration → proceeds
		net := &tapNet{Network: transport.NewChanNetwork(), tap: func(_ transport.Endpoint, to string, msg transport.Message) error {
			if c, ok := msg.Payload.(cmdMsg); ok && c.Kind == cmdProceed {
				mu.Lock()
				proceeds[fmt.Sprintf("%s@%d", to, c.ToIter)]++
				mu.Unlock()
			}
			return nil
		}}
		v := newEnvNet(t, cluster.Uniform(2), net, Options{})
		v.ringStatic(t, 64)
		sssp := ringSSSP("proceed-sssp")
		sssp.Job.StatePath, sssp.Job.StaticPath = "/state", "/static"
		sssp.Job.MaxIter, sssp.Job.NumTasks = iters, tasks
		job := sssp.Build()
		if gated {
			job = halvingJob("proceed-halve", iters, 1e-300)
			job.NumTasks = tasks
		}
		res, err := v.e.Run(job)
		net.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != iters {
			t.Fatalf("gated=%v: ran %d iterations, want %d", gated, res.Iterations, iters)
		}
		want := 0
		if gated {
			want = (iters - 1) * tasks // no proceed at the boundary the job stops at
		}
		mu.Lock()
		if len(proceeds) != want {
			t.Errorf("gated=%v: proceeds to %d (reduce, boundary) pairs, want %d: %v", gated, len(proceeds), want, proceeds)
		}
		for k, c := range proceeds {
			if c != 1 {
				t.Errorf("gated=%v: %d proceeds to %s", gated, c, k)
			}
		}
		mu.Unlock()
	}
}

// TestWorkerLostAfterTerminateRecovers: a worker lost after the master
// terminated the run, before every final is in, is recovered like one
// lost mid-run — its pairs move, the run rolls back, and the replay stops
// at the same iteration — and the run ends with the checkpoint and output
// files a calm run leaves. The tap holds the terminate of pair 1's reduce
// for good and fails its worker in its place, so that final cannot come
// in before the failure does. With a checkpoint every 4 iterations the
// run rolls back to iteration 4 and replays 5 and 6; with one every 6 it
// rolls back to the last iteration itself, when that checkpoint is
// durable, and has nothing to replay.
func TestWorkerLostAfterTerminateRecovers(t *testing.T) {
	guard(t, time.Minute)
	spec := cluster.Uniform(3)
	run := func(every int, lose bool) (*Result, map[string]uint32) {
		m := metrics.NewSet()
		fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
		job := halvingJob("halve-lostlate", 6, 0)
		job.CheckpointEvery = every
		var e *Engine
		var held atomic.Bool
		net := &tapNet{Network: transport.NewChanNetwork(), tap: func(_ transport.Endpoint, to string, msg transport.Message) error {
			c, ok := msg.Payload.(cmdMsg)
			if !lose || !ok || c.Kind != cmdTerminate || to != redAddr(job.Name, 0, 1) || !held.CompareAndSwap(false, true) {
				return nil
			}
			if err := e.FailWorker(spec.IDs()[1]); err != nil { // pair 1's worker, by round-robin placement
				t.Error(err)
			}
			return errTaken
		}}
		defer net.Close()
		var err error
		if e, err = NewEngine(fs, net, spec, m, Options{Timeout: 5 * time.Second}); err != nil {
			t.Fatal(err)
		}
		(&env{e: e, fs: fs, m: m, spec: spec}).writeState(t, "/state", 12)
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if lose != held.Load() {
			t.Fatalf("lose=%v: a terminate held: %v", lose, held.Load())
		}
		return res, fileSums(t, fs, job.Name, res.OutputPath)
	}
	for _, every := range []int{4, 6} {
		calm, want := run(every, false)
		lost, got := run(every, true)
		if lost.Recoveries < 1 || lost.Iterations != calm.Iterations {
			t.Fatalf("checkpoint every %d: %d recoveries and %d iterations, want at least 1 and %d", every, lost.Recoveries, lost.Iterations, calm.Iterations)
		}
		sameFiles(t, fmt.Sprint("worker lost after terminate, checkpoint every ", every), got, want)
	}
}
