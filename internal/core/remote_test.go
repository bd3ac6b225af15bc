package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/jobs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// These tests run the full out-of-process protocol — registration,
// plan deployment, DFS-over-the-wire, failure respawn, master restart —
// with master and workers as separate TCP networks inside one test
// process. The real-binary version lives in the proc harness; here the
// same protocol is exercised where the race detector and the package's
// leak check can see it.

const remoteWorkers = 3

// remoteMaster is the master half: control endpoint, namenode + block
// service, engine.
type remoteMaster struct {
	dir  *transport.Directory
	net  *transport.TCPNetwork
	rc   *core.RemoteCluster
	fs   *dfs.DFS
	m    *metrics.Set
	eng  *core.Engine
	svc  *dfs.Service
	spec cluster.Spec
	hp   string // concrete host:port of the control endpoint
}

// startMaster assembles a master over fs listening at listen
// ("127.0.0.1:0" for fresh tests, a previous hp to emulate a restart on
// the same address).
func startMaster(t *testing.T, fs *dfs.DFS, m *metrics.Set, listen string, opts core.Options) *remoteMaster {
	t.Helper()
	return startMasterSpec(t, fs, m, listen, cluster.Uniform(remoteWorkers), opts)
}

// startMasterSpec is startMaster over an explicit spec of remoteWorkers
// nodes (their speeds reach the workers in the plans).
func startMasterSpec(t *testing.T, fs *dfs.DFS, m *metrics.Set, listen string, spec cluster.Spec, opts core.Options) *remoteMaster {
	t.Helper()
	dir := transport.NewDirectory()
	net := transport.NewTCPNetworkOpts(transport.TCPOptions{Resolver: dir.Resolve})
	rc, err := core.NewRemoteCluster(net, dir, core.RemoteClusterOptions{Listen: listen})
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	hp, ok := net.ListenAddr(core.CtlMasterAddr)
	if !ok {
		t.Fatal("control endpoint has no listen address")
	}
	fsEp, err := net.Endpoint(core.DFSAddr)
	if err != nil {
		t.Fatal(err)
	}
	svc := dfs.Serve(fs, fsEp)
	if dhp, ok := net.ListenAddr(core.DFSAddr); ok {
		dir.Set(core.DFSAddr, dhp)
	}
	if opts.Timeout == 0 {
		opts.Timeout = 30 * time.Second
	}
	eng, err := core.NewEngine(fs, net, spec, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachRemote(rc)
	return &remoteMaster{dir: dir, net: net, rc: rc, fs: fs, m: m, eng: eng, svc: svc, spec: spec, hp: hp}
}

// kill emulates the master process dying: every socket goes away at
// once, nothing is drained.
func (rm *remoteMaster) kill() {
	rm.rc.Close()
	rm.net.Close()
	rm.svc.Wait()
}

// workerProc is one worker "process".
type workerProc struct {
	host   *core.WorkerHost
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

func startWorker(t *testing.T, id, masterHP string, build core.JobBuilder) *workerProc {
	t.Helper()
	host, err := core.NewWorkerHost(core.WorkerHostOptions{
		ID:         id,
		MasterAddr: masterHP,
		Build:      build,
		// Aggressive liveness so master-death tests converge quickly —
		// but with margin for the race detector's scheduling drag.
		PingInterval: 50 * time.Millisecond,
		PingMisses:   6,
		JoinBackoff:  25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &workerProc{host: host, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		w.err = host.Run(ctx)
	}()
	return w
}

// stop shuts the worker down gracefully and waits for Run to return.
func (w *workerProc) stop(t *testing.T) {
	t.Helper()
	w.cancel()
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not shut down")
	}
	if w.err != nil {
		t.Fatalf("worker exited with error: %v", w.err)
	}
}

func startWorkers(t *testing.T, rm *remoteMaster) []*workerProc {
	t.Helper()
	return startWorkersBuilding(t, rm, jobs.Build)
}

// startWorkersBuilding is startWorkers with the workers' job builder
// chosen by the test, so it can wrap the user functions they run.
func startWorkersBuilding(t *testing.T, rm *remoteMaster, build core.JobBuilder) []*workerProc {
	t.Helper()
	ws := make([]*workerProc, remoteWorkers)
	for i := range ws {
		ws[i] = startWorker(t, fmt.Sprintf("worker-%d", i), rm.hp, build)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := rm.rc.WaitForWorkers(ctx, remoteWorkers); err != nil {
		t.Fatal(err)
	}
	return ws
}

// readParts collects every output partition into one key→value map.
func readParts(t *testing.T, fs *dfs.DFS, at, dir string) map[int64]any {
	t.Helper()
	out := map[int64]any{}
	for _, p := range fs.List(dir + "/") {
		recs, err := fs.ReadFile(p, at)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			out[r.Key.(int64)] = r.Value
		}
	}
	return out
}

// inProcessRun runs the registry job on a classic single-process
// engine (channel transport, local DFS) — the reference every remote
// run must match bit for bit.
func inProcessRun(t *testing.T, key string, params map[string]string) map[int64]any {
	t.Helper()
	out, _ := calm.runInProcess(t, transport.NewChanNetwork(), key, params)
	return out
}

// scenario is one cluster condition a run is put through, buildable
// for any deployment: options returns the engine options, wiring fail —
// which injects a worker failure into the run under test — wherever
// the scenario wants it.
type scenario struct {
	name    string
	spec    cluster.Spec
	build   core.JobBuilder
	options func(fail func(worker string)) core.Options
	// m receives an in-process run's metrics; nil means a fresh set.
	m *metrics.Set
	// onEngine, if set, is handed an in-process run's engine before the
	// run starts.
	onEngine func(*core.Engine)
}

var calm = scenario{name: "calm", spec: cluster.Uniform(remoteWorkers), build: jobs.Build,
	options: func(func(string)) core.Options { return core.Options{} }}

// runInProcess runs the scenario's job on one engine over net, its
// hosts started by the engine itself, and closes net.
func (sc scenario) runInProcess(t *testing.T, net transport.Network, key string, params map[string]string) (map[int64]any, *core.Result) {
	t.Helper()
	defer net.Close()
	m := sc.m
	if m == nil {
		m = metrics.NewSet()
	}
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, sc.spec.IDs(), m)
	if err := jobs.Seed(fs, sc.spec.IDs()[0], key, params); err != nil {
		t.Fatal(err)
	}
	job, err := sc.build(key, params)
	if err != nil {
		t.Fatal(err)
	}
	var eng *core.Engine
	opts := sc.options(func(w string) { _ = eng.FailWorker(w) })
	opts.Timeout = 30 * time.Second
	if eng, err = core.NewEngine(fs, net, sc.spec, m, opts); err != nil {
		t.Fatal(err)
	}
	if sc.onEngine != nil {
		sc.onEngine(eng)
	}
	res, err := eng.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := readParts(t, fs, sc.spec.IDs()[0], res.OutputPath)
	if len(out) == 0 {
		t.Fatal("run produced no output")
	}
	return out, res
}

// runOnHosts runs the same job on a master and remoteWorkers real
// WorkerHosts, each behind its own TCP network.
func (sc scenario) runOnHosts(t *testing.T, key string, params map[string]string) (map[int64]any, *core.Result) {
	t.Helper()
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, sc.spec.IDs(), m)
	var rm *remoteMaster
	rm = startMasterSpec(t, fs, m, "127.0.0.1:0", sc.spec,
		sc.options(func(w string) { _ = rm.eng.FailWorker(w) }))
	defer rm.kill()
	for _, w := range startWorkersBuilding(t, rm, sc.build) {
		defer w.stop(t)
	}
	if err := jobs.Seed(fs, sc.spec.IDs()[0], key, params); err != nil {
		t.Fatal(err)
	}
	job, err := sc.build(key, params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rm.eng.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	return readParts(t, fs, sc.spec.IDs()[0], res.OutputPath), res
}

// TestOneMovePathAcrossDeployments: a pair is deployed, moved and torn
// down by the same plan exchange wherever its host lives, so the same
// job put through the same trouble — a worker failure; load balancing
// against one slow node — must come out byte-identical, with the same
// number of recoveries and migrations, on (a) hosts the engine starts
// over channels, (b) the same over loopback TCP, and (c) three real
// WorkerHosts, each a network of its own. The reduce is paced so an
// iteration is long against scheduling noise: the balancer then sees
// the slow node's pair, and only that one, as an outlier, and the tasks
// of an unbalanced run cannot be at the last iteration while the master
// is still at the third, where the failure is injected.
func TestOneMovePathAcrossDeployments(t *testing.T) {
	paced := func(key string, p map[string]string) (*core.Job, error) {
		job, err := jobs.Build(key, p)
		if err != nil {
			return nil, err
		}
		reduce := job.Reduce
		job.Reduce = func(k any, states []any) (any, error) {
			time.Sleep(300 * time.Microsecond)
			return reduce(k, states)
		}
		return job, nil
	}
	scenarios := []scenario{
		{name: "fail", spec: cluster.Uniform(remoteWorkers), build: paced,
			options: func(fail func(string)) core.Options {
				var once sync.Once
				return core.Options{OnIteration: func(it core.IterInfo) {
					if it.Iter >= 3 {
						once.Do(func() { fail("worker-1") })
					}
				}}
			}},
		{name: "migrate", spec: cluster.Heterogeneous([]float64{1, 0.2, 1}), build: paced,
			options: func(func(string)) core.Options {
				return core.Options{LoadBalance: true, LBThreshold: 1.5, LBMinIter: 3}
			}},
	}
	for _, key := range []string{"pagerank", "sssp"} {
		for _, sc := range scenarios {
			t.Run(key+"/"+sc.name, func(t *testing.T) {
				params := map[string]string{"name": key + "-" + sc.name, "nodes": "80", "maxiter": "8", "ckpt": "2", "tasks": "4"}
				want, _ := calm.runInProcess(t, transport.NewChanNetwork(), key, params)

				out, res := sc.runInProcess(t, transport.NewChanNetwork(), key, params)
				if res.Recoveries+res.Migrations == 0 {
					t.Fatalf("no pair moved: recoveries = %d, migrations = %d", res.Recoveries, res.Migrations)
				}
				if !reflect.DeepEqual(out, want) {
					t.Fatalf("chan: output differs from the calm run")
				}
				for _, name := range []string{"tcp", "hosts"} {
					var got map[int64]any
					var r *core.Result
					if name == "tcp" {
						got, r = sc.runInProcess(t, transport.NewTCPNetwork(), key, params)
					} else {
						got, r = sc.runOnHosts(t, key, params)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: output differs from the calm run", name)
					}
					if r.Recoveries != res.Recoveries || r.Migrations != res.Migrations {
						t.Errorf("%s: recoveries = %d, migrations = %d; over channels %d and %d",
							name, r.Recoveries, r.Migrations, res.Recoveries, res.Migrations)
					}
				}
			})
		}
	}
}

// TestRemoteRunMatchesInProcess is the deployment contract: the same
// registry job run across master+worker networks produces output
// bit-identical to the single-process engine, for both PageRank
// (order-sensitive float sums made deterministic by the registry's
// sorted reduce) and SSSP (order-independent min).
func TestRemoteRunMatchesInProcess(t *testing.T) {
	cases := []struct {
		key    string
		params map[string]string
	}{
		{"pagerank", map[string]string{"name": "pr-remote", "nodes": "200", "maxiter": "6", "ckpt": "2", "tasks": "4"}},
		{"sssp", map[string]string{"name": "sssp-remote", "nodes": "200", "maxiter": "8", "ckpt": "2", "tasks": "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.key, func(t *testing.T) {
			want := inProcessRun(t, tc.key, tc.params)

			m := metrics.NewSet()
			fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, cluster.Uniform(remoteWorkers).IDs(), m)
			rm := startMaster(t, fs, m, "127.0.0.1:0", core.Options{})
			ws := startWorkers(t, rm)
			defer rm.kill()
			defer func() {
				for _, w := range ws {
					w.stop(t)
				}
			}()

			if err := jobs.Seed(fs, rm.spec.IDs()[0], tc.key, tc.params); err != nil {
				t.Fatal(err)
			}
			job, err := jobs.Build(tc.key, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rm.eng.Run(job)
			if err != nil {
				t.Fatal(err)
			}
			got := readParts(t, fs, rm.spec.IDs()[0], res.OutputPath)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("remote output differs from in-process run:\n got %v\nwant %v", got, want)
			}
			if launched := m.Get(metrics.TasksLaunched); launched != 0 {
				t.Fatalf("master launched %d local tasks; remote runs must not", launched)
			}
		})
	}
}

// TestRemoteRunNeedsRegistry: a job built by hand (no registry key)
// cannot be shipped to workers and must be rejected up front.
func TestRemoteRunNeedsRegistry(t *testing.T) {
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, cluster.Uniform(remoteWorkers).IDs(), m)
	rm := startMaster(t, fs, m, "127.0.0.1:0", core.Options{})
	ws := startWorkers(t, rm)
	defer rm.kill()
	defer func() {
		for _, w := range ws {
			w.stop(t)
		}
	}()

	params := map[string]string{"name": "pr-bare", "nodes": "50", "maxiter": "2"}
	if err := jobs.Seed(fs, rm.spec.IDs()[0], "pagerank", params); err != nil {
		t.Fatal(err)
	}
	job, err := jobs.Build("pagerank", params)
	if err != nil {
		t.Fatal(err)
	}
	job.Registry = "" // hand-built job: functions cannot cross the wire
	if _, err := rm.eng.Run(job); err == nil || !strings.Contains(err.Error(), "Registry") {
		t.Fatalf("run without a registry key = %v, want registry error", err)
	}
}

// TestRemoteWorkerKillRecovers kills one worker process abruptly
// mid-iteration (sockets vanish, no leave): heartbeat deadlines detect
// it across the process boundary, its pairs respawn on survivors at a
// new plan epoch, the run rolls back to the last durable checkpoint and
// still produces the reference output.
func TestRemoteWorkerKillRecovers(t *testing.T) {
	params := map[string]string{"name": "pr-kill", "nodes": "200", "maxiter": "8", "ckpt": "2", "tasks": "4"}
	want := inProcessRun(t, "pagerank", params)

	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, cluster.Uniform(remoteWorkers).IDs(), m)

	var kill sync.Once
	var ws []*workerProc
	rm := startMaster(t, fs, m, "127.0.0.1:0", core.Options{
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMisses:   5,
		OnIteration: func(it core.IterInfo) {
			if it.Iter >= 3 {
				// From the master goroutine, so fire-and-forget; the
				// worker's sockets all close at once, like a kill -9.
				kill.Do(func() { ws[1].host.Terminate() })
			}
		},
	})
	ws = startWorkers(t, rm)
	defer rm.kill()
	defer func() {
		for i, w := range ws {
			if i == 1 {
				w.cancel()
				<-w.done
				continue
			}
			w.stop(t)
		}
	}()

	if err := jobs.Seed(fs, rm.spec.IDs()[0], "pagerank", params); err != nil {
		t.Fatal(err)
	}
	job, err := jobs.Build("pagerank", params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rm.eng.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries == 0 {
		t.Fatal("run finished without recovering the killed worker")
	}
	got := readParts(t, fs, rm.spec.IDs()[0], res.OutputPath)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery output differs from reference:\n got %v\nwant %v", got, want)
	}
	if det := m.Get(metrics.FailuresDetected); det == 0 {
		t.Fatal("heartbeat detector never fired")
	}
}

// TestRemoteGracefulLeave cancels one worker's context mid-run: it
// deregisters with a leave frame, the master re-places its pairs
// through the same respawn path a crash takes, and the run completes
// with the reference output. The package's TestMain leak check owns
// the no-goroutine-leak half of the contract.
func TestRemoteGracefulLeave(t *testing.T) {
	params := map[string]string{"name": "pr-leave", "nodes": "200", "maxiter": "8", "ckpt": "2", "tasks": "4"}
	want := inProcessRun(t, "pagerank", params)

	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, cluster.Uniform(remoteWorkers).IDs(), m)

	var leave sync.Once
	var ws []*workerProc
	rm := startMaster(t, fs, m, "127.0.0.1:0", core.Options{
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMisses:   5,
		OnIteration: func(it core.IterInfo) {
			if it.Iter >= 3 {
				leave.Do(func() { ws[2].cancel() })
			}
		},
	})
	ws = startWorkers(t, rm)
	defer rm.kill()
	defer func() {
		for i, w := range ws {
			if i == 2 {
				<-w.done
				if w.err != nil {
					t.Errorf("leaving worker exited with error: %v", w.err)
				}
				continue
			}
			w.stop(t)
		}
	}()

	if err := jobs.Seed(fs, rm.spec.IDs()[0], "pagerank", params); err != nil {
		t.Fatal(err)
	}
	job, err := jobs.Build("pagerank", params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rm.eng.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries == 0 {
		t.Fatal("run finished without re-placing the departed worker's pairs")
	}
	got := readParts(t, fs, rm.spec.IDs()[0], res.OutputPath)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("output after graceful leave differs from reference:\n got %v\nwant %v", got, want)
	}
}

// waitForManifest polls the namenode until a durable checkpoint
// manifest for iter (or later) exists.
func waitForManifest(t *testing.T, fs *dfs.DFS, jobName string, iter int) {
	t.Helper()
	prefix := "/_imr/" + jobName + "/manifest-"
	deadline := time.After(20 * time.Second)
	for {
		for _, p := range fs.List("/_imr/" + jobName + "/") {
			rest, found := strings.CutPrefix(p, prefix)
			if !found {
				continue
			}
			if it, err := strconv.Atoi(rest); err == nil && it >= iter {
				return
			}
		}
		select {
		case <-deadline:
			t.Fatalf("no manifest for %s at iter >= %d (have %v)", jobName, iter, fs.List("/_imr/"+jobName+"/"))
		case <-time.After(time.Millisecond):
		}
	}
}

// TestRemoteMasterRestartResume is the master half of the kill matrix:
// the master process dies mid-run (control endpoint, namenode RPC and
// job master all vanish at once), the workers notice via missed pongs,
// tear their runs down and fall back to the join loop; a new master on
// the same address reopens the durable namenode image, re-admits the
// surviving workers, and -resume semantics (ResumeCtx) finish the run
// from the last durable manifest with reference-identical output.
func TestRemoteMasterRestartResume(t *testing.T) {
	const nodes, freeIters = 200, 5
	params := map[string]string{"name": "pr-mrestart", "nodes": strconv.Itoa(nodes), "maxiter": "8", "ckpt": "1", "tasks": "4"}
	want := inProcessRun(t, "pagerank", params)

	cfg, err := dfs.ImageInDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.BlockSize = 1 << 14
	cfg.Replication = 2
	ids := cluster.Uniform(remoteWorkers).IDs()

	m1 := metrics.NewSet()
	fs1, err := dfs.Open(cfg, ids, m1)
	if err != nil {
		t.Fatal(err)
	}
	rm1 := startMaster(t, fs1, m1, "127.0.0.1:0", core.Options{
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMisses:   5,
	})
	// The kill must land mid-run, after manifest 3 is durable. Checkpoints
	// are written beside the iterations (§3.4.1), so a fast run could
	// finish all 8 before that manifest commits. The workers' map therefore
	// stops at a gate once freeIters iterations' worth of calls (one per
	// node per iteration) have gone through, and the test opens the gate
	// only after the kill: the run cannot pass iteration freeIters+1 first.
	gate := make(chan struct{})
	var mapCalls atomic.Int64
	gatedBuild := func(key string, p map[string]string) (*core.Job, error) {
		job, err := jobs.Build(key, p)
		if err != nil {
			return nil, err
		}
		userMap := job.Map
		job.Map = func(k, state, static any, emit kv.Emit) error {
			if mapCalls.Add(1) > nodes*freeIters {
				<-gate
			}
			return userMap(k, state, static, emit)
		}
		return job, nil
	}
	ws := startWorkersBuilding(t, rm1, gatedBuild)
	defer func() {
		for _, w := range ws {
			w.stop(t)
		}
	}()

	if err := jobs.Seed(fs1, ids[0], "pagerank", params); err != nil {
		t.Fatal(err)
	}
	job, err := jobs.Build("pagerank", params)
	if err != nil {
		t.Fatal(err)
	}

	runErr := make(chan error, 1)
	go func() {
		_, err := rm1.eng.Run(job)
		runErr <- err
	}()
	waitForManifest(t, fs1, "pr-mrestart", 3)
	if err := rm1.eng.Kill(); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if err := <-runErr; !errors.Is(err, core.ErrKilled) {
		t.Fatalf("killed run error = %v, want ErrKilled", err)
	}
	rm1.kill() // the rest of the "process" dies with the run

	// New master process on the same control address: reopen the image,
	// wait for the survivors to knock, resume.
	m2 := metrics.NewSet()
	fs2, err := dfs.Open(cfg, ids, m2)
	if err != nil {
		t.Fatal(err)
	}
	rm2 := startMaster(t, fs2, m2, rm1.hp, core.Options{
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMisses:   5,
	})
	defer rm2.kill()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := rm2.rc.WaitForWorkers(ctx, remoteWorkers); err != nil {
		t.Fatal(err)
	}

	job2, err := jobs.Build("pagerank", params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rm2.eng.ResumeCtx(ctx, job2)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Get(metrics.RunsResumed); got != 1 {
		t.Fatalf("runs.resumed = %d, want 1", got)
	}
	got := readParts(t, fs2, ids[0], res.OutputPath)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed output differs from reference:\n got %v\nwant %v", got, want)
	}
}
