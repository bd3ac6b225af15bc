package experiments

import (
	"sort"
	"testing"
	"time"

	"imapreduce/internal/graph"
	"imapreduce/internal/simcluster"
	"imapreduce/internal/trace"
)

// TestTraceDecompositionCoverage is the golden property of the factor
// decomposition: on a Quick PageRank run the four factors must account
// for at least 90% of the measured wall time (every pair is busy doing
// something classified most of the run), without overshooting past the
// slack the averaging allows.
func TestTraceDecompositionCoverage(t *testing.T) {
	cfg := Quick()
	rec := trace.NewRecorder(0)
	res, err := TracedRun(cfg, "google", "pagerank", cfg.PageRankIters, rec)
	if err != nil {
		t.Fatal(err)
	}
	d := trace.Decompose(rec.Events())
	if len(d.PerIter) != res.Iterations {
		t.Fatalf("decomposition has %d iterations, run had %d", len(d.PerIter), res.Iterations)
	}
	minCov := 0.9
	if raceDetectorEnabled {
		// Race instrumentation stretches the unclassified gaps between
		// spans (scheduling, channel handoff) more than the spans.
		minCov = 0.7
	}
	if cov := d.Coverage(); cov < minCov || cov > 1.5 {
		t.Fatalf("factor coverage %.3f outside [%.2f, 1.5] (wall %v)", cov, minCov, d.Wall)
	}
	tot := d.Totals()
	if tot.Init <= 0 || tot.Compute <= 0 || tot.Shuffle <= 0 || tot.SyncWait <= 0 {
		t.Fatalf("degenerate decomposition: %+v", tot)
	}
	t.Logf("coverage %.3f over %v: init=%v shuffle=%v wait=%v compute=%v",
		d.Coverage(), d.Wall, tot.Init, tot.Shuffle, tot.SyncWait, tot.Compute)
}

// factors holds the four decomposition factors of one run, in seconds.
type factors map[string]float64

// order ranks the factor names largest-first.
func (f factors) order() []string {
	out := []string{"init", "shuffle", "wait", "compute"}
	sort.SliceStable(out, func(i, j int) bool { return f[out[i]] > f[out[j]] })
	return out
}

// factorTie is the band within which two factors of a real run count as
// tied: a run this short measures wait and compute in single
// milliseconds, and scheduling noise alone moves either by more than
// their difference.
const factorTie = 0.5

// negligibleShare bounds the share of the four-factor total a factor
// may take and still count as negligible. (Shuffle measures around 1%;
// asserting it is strictly the smallest would compare it with a compute
// factor of a few hundred microseconds.)
const negligibleShare = 0.2

// inTopK reports whether name ranks among f's k largest factors, taking
// a factor within factorTie of the k-th largest as tied with it.
func (f factors) inTopK(name string, k int) bool {
	return f[name] >= factorTie*f[f.order()[k-1]]
}

// localSimParams calibrates the cluster simulator to the Quick local
// environment: an in-memory substrate (no real disk, no real NIC
// bottleneck), the configured Hadoop-emulation overheads, and
// per-record costs measured from the real engines at this scale.
func localSimParams(cfg Config) simcluster.Params {
	p := simcluster.DefaultParams(cfg.Workers)
	p.DiskMBps = 4000
	p.NicMBps = 4000
	p.NetEfficiency = 1
	p.JobInitSec = cfg.JobInit.Seconds()
	p.TaskStartSec = cfg.TaskStart.Seconds()
	p.SchedPerTaskSec = 0
	p.BarrierSec = 0.0004
	p.MapRecUs = 0.1
	p.ReduceRecUs = 0.1
	return p
}

// TestTraceDecompositionMatchesSim cross-checks the trace-derived
// decomposition of a real Quick PageRank run against the calibrated
// simulator's DecomposeIMR on the same workload: both must agree on
// which factors dominate and on shuffle being negligible (a local
// in-memory cluster shuffling state-only messages spends nearly nothing
// on network transfer — the regime where one-time init pays off most,
// paper §4.3).
func TestTraceDecompositionMatchesSim(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation inflates wait/compute but not the fixed init overheads, changing the factor ordering")
	}
	cfg := Quick()
	iters := cfg.PageRankIters

	// Each factor is the median of three runs: one preempted goroutine
	// moves a factor of a ~10 ms run by more than the factors differ.
	const runs = 3
	samples := map[string][]float64{}
	for i := 0; i < runs; i++ {
		rec := trace.NewRecorder(0)
		if _, err := TracedRun(cfg, "google", "pagerank", iters, rec); err != nil {
			t.Fatal(err)
		}
		tot := trace.Decompose(rec.Events()).Totals()
		for name, d := range map[string]time.Duration{
			"init": tot.Init, "shuffle": tot.Shuffle, "wait": tot.SyncWait, "compute": tot.Compute,
		} {
			samples[name] = append(samples[name], d.Seconds())
		}
	}
	real := factors{}
	for name, vs := range samples {
		sort.Float64s(vs)
		real[name] = vs[runs/2]
	}

	d, err := graph.ByName("google", cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	w := simcluster.Workload{
		Name: "google-local", Nodes: int64(g.N), Edges: g.Edges(),
		StateRecBytes: 12, MsgBytes: 12,
		StaticBytes: 7*g.Edges() + 8*int64(g.N),
		Activity:    simcluster.FullActivity,
	}
	sd := simcluster.DecomposeIMR(localSimParams(cfg), w, iters, simcluster.IMROptions{})
	sim := factors{"init": sd.InitSec, "shuffle": sd.ShuffleSec, "wait": sd.SyncWaitSec, "compute": sd.ComputeSec}

	t.Logf("real order %v (init=%.4fs shuffle=%.4fs wait=%.4fs compute=%.4fs)",
		real.order(), real["init"], real["shuffle"], real["wait"], real["compute"])
	t.Logf("sim  order %v (init=%.4fs shuffle=%.4fs wait=%.4fs compute=%.4fs)",
		sim.order(), sd.InitSec, sd.ShuffleSec, sd.SyncWaitSec, sd.ComputeSec)

	// Qualitative agreement: the two factors the simulator ranks first
	// (init and sync wait) are among the real run's top two as well —
	// up to ties, because on a run this short wait and compute differ by
	// less than a loaded host's scheduling noise and their strict order
	// is not a property of the system — and both agree shuffle is
	// negligible, the paper's point about state-only shuffling.
	for _, name := range sim.order()[:2] {
		if !real.inTopK(name, 2) {
			t.Errorf("sim ranks %s in its top 2 %v; the real run does not, even within the tie band: %v",
				name, sim.order()[:2], real)
		}
	}
	for _, f := range []factors{real, sim} {
		if share := f["shuffle"] / (f["init"] + f["shuffle"] + f["wait"] + f["compute"]); share > negligibleShare {
			t.Errorf("shuffle should be negligible in both; it is %.0f%% of %v", 100*share, f)
		}
	}
}

// TestTraceIterationCallbacks checks the OnIteration hook and the
// iteration counter fire once per committed boundary.
func TestTraceIterationCallbacks(t *testing.T) {
	cfg := Quick()
	rec := trace.NewRecorder(0)
	res, err := TracedRun(cfg, "dblp", "sssp", cfg.SSSPIters, rec)
	if err != nil {
		t.Fatal(err)
	}
	var boundaries int
	var last time.Duration
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindIterDone {
			boundaries++
			if ev.Time < last {
				t.Fatalf("iteration boundaries out of order at iter %d", ev.Iter)
			}
			last = ev.Time
		}
	}
	if boundaries != res.Iterations {
		t.Fatalf("%d iter.done events for %d iterations", boundaries, res.Iterations)
	}
}
