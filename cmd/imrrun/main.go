// Command imrrun executes an iterative graph algorithm on either engine
// over an in-process cluster and prints per-iteration timings, the
// traffic counters, and a sample of the result — the quickest way to see
// the two frameworks side by side on real data.
//
// Usage:
//
//	imrrun -algo pagerank -graph g.txt -engine imr -iters 10
//	imrrun -algo sssp -graph g.txt -engine both -source 0 -threshold 1e-9
//	imrrun -algo kmeans -points pts.txt -k 8 -iters 10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"imapreduce/internal/algorithms/concomp"
	"imapreduce/internal/algorithms/kmeans"
	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/algorithms/sssp"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/graph"
	"imapreduce/internal/imr"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
)

func main() {
	var (
		algo      = flag.String("algo", "pagerank", "sssp | pagerank | concomp | kmeans")
		graphPath = flag.String("graph", "", "graph file in imrgen text format (sssp/pagerank)")
		pointsArg = flag.String("points", "", "point file in imrgen text format (kmeans)")
		k         = flag.Int("k", 8, "kmeans: cluster count")
		engine    = flag.String("engine", "imr", "imr | mr | both")
		iters     = flag.Int("iters", 10, "iteration bound")
		threshold = flag.Float64("threshold", 0, "distance threshold (0 = fixed iterations)")
		source    = flag.Int64("source", 0, "SSSP source node")
		workers   = flag.Int("workers", 4, "cluster size")
		tasks     = flag.Int("tasks", 0, "iMapReduce task pairs (0 = one per worker)")
		sync      = flag.Bool("sync", false, "disable asynchronous map execution")
		tcp       = flag.Bool("tcp", false, "use real TCP sockets between tasks")
		sample    = flag.Int("sample", 5, "result records to print")
		traceRun  = flag.Bool("trace", false, "record events and print the per-iteration factor decomposition (imr engine)")
		resume    = flag.Bool("resume", false, "kill the whole engine mid-run, then cold-restart a fresh engine over the same DFS from the newest durable checkpoint (imr engine)")
		ckpt      = flag.Int("ckpt", 2, "checkpoint every N iterations (imr engine, used by -resume)")
	)
	flag.Parse()
	if *algo == "kmeans" {
		if *pointsArg == "" {
			fmt.Fprintln(os.Stderr, "imrrun: -points is required for kmeans (generate with imrgen -kind points)")
			os.Exit(2)
		}
		runKMeans(*pointsArg, *k, *iters, *workers, *engine)
		return
	}
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "imrrun: -graph is required (generate one with imrgen)")
		os.Exit(2)
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		fatal(err)
	}
	g, err := graph.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges, weighted=%v\n", g.N, g.Edges(), g.Weighted())
	if *algo == "sssp" && !g.Weighted() {
		fatal(fmt.Errorf("sssp needs a weighted graph"))
	}

	if *engine == "imr" || *engine == "both" {
		runIMR(g, *algo, *source, *iters, *threshold, *workers, *tasks, *sync, *tcp, *sample, *traceRun, *resume, *ckpt)
	}
	if *engine == "mr" || *engine == "both" {
		runMR(g, *algo, *source, *iters, *threshold, *workers, *sample)
	}
}

// newCluster builds the in-process cluster every mode runs over, with
// Hadoop-like scheduling overheads enabled so timings look realistic.
func newCluster(workers int, tcp bool, rec *trace.Recorder, copts *core.Options) *imr.Cluster {
	c, err := imr.NewCluster(imr.Options{
		Workers:           workers,
		TCP:               tcp,
		Trace:             rec,
		JobInitOverhead:   50 * time.Millisecond,
		TaskStartOverhead: 10 * time.Millisecond,
		Core:              copts,
	})
	if err != nil {
		fatal(err)
	}
	return c
}

func runIMR(g *graph.Graph, algo string, source int64, iters int, threshold float64, workers, tasks int, sync, tcp bool, sample int, traceRun, resume bool, ckpt int) {
	var rec *trace.Recorder
	if traceRun {
		rec = trace.NewRecorder(0)
	}
	copts := core.Options{Timeout: 10 * time.Minute}
	// With -resume the first run is killed halfway: its master cancels
	// the run's context with core.ErrKilled at the target iteration.
	runCtx, kill := context.WithCancelCause(context.Background())
	defer kill(nil)
	killedAt := 0
	if resume {
		target := max(iters/2, 1)
		copts.OnIteration = func(it core.IterInfo) {
			if killedAt == 0 && it.Iter >= target {
				killedAt = it.Iter
				kill(core.ErrKilled)
			}
		}
	}
	c := newCluster(workers, tcp, rec, &copts)
	spec, m, fs := c.Spec, c.Metrics, c.FS
	var job *core.Job
	switch algo {
	case "sssp":
		if err := sssp.WriteInputs(fs, spec.IDs()[0], g, source, "/static", "/state"); err != nil {
			fatal(err)
		}
		job = sssp.IMRJob(sssp.IMRConfig{
			Name: "cli-sssp", StaticPath: "/static", StatePath: "/state",
			MaxIter: iters, DistThreshold: threshold, NumTasks: tasks, SyncMap: sync,
		})
	case "pagerank":
		if err := pagerank.WriteInputs(fs, spec.IDs()[0], g, "/static", "/state"); err != nil {
			fatal(err)
		}
		job = pagerank.IMRJob(pagerank.IMRConfig{
			Name: "cli-pagerank", Nodes: g.N, StaticPath: "/static", StatePath: "/state",
			MaxIter: iters, DistThreshold: threshold, NumTasks: tasks, SyncMap: sync,
		})
	case "concomp":
		if err := concomp.WriteInputs(fs, spec.IDs()[0], g, "/static", "/state"); err != nil {
			fatal(err)
		}
		if threshold <= 0 {
			threshold = 0.5 // stop when no label changes
		}
		job = concomp.IMRJob(concomp.IMRConfig{
			Name: "cli-concomp", StaticPath: "/static", StatePath: "/state",
			MaxIter: iters, DistThreshold: threshold, NumTasks: tasks,
		})
	default:
		fatal(fmt.Errorf("unknown algorithm %q", algo))
	}
	ctx := context.Background()
	var res *core.Result
	var err error
	if resume {
		// Crash-restart demo: checkpoint as we go, kill the run
		// (master and every task) halfway, then resubmit with
		// Resume set to cold-restart from the newest durable manifest.
		if job.CheckpointEvery <= 0 {
			job.CheckpointEvery = ckpt
		}
		h, err2 := c.Submit(runCtx, imr.JobSpec{Iterative: job}, imr.SubmitOptions{})
		if err2 != nil {
			fatal(err2)
		}
		_, err = h.Result()
		switch {
		case errors.Is(err, core.ErrKilled):
			fmt.Printf("run killed at iteration %d; cold-restarting from the newest durable checkpoint\n", killedAt)
		case err != nil:
			fatal(err)
		default:
			fatal(fmt.Errorf("run finished before the kill landed; raise -iters"))
		}
		h, err = c.Submit(ctx, imr.JobSpec{Iterative: job}, imr.SubmitOptions{Resume: true})
		if err != nil {
			fatal(err)
		}
		var r *imr.JobResult
		r, err = h.Result()
		if r != nil {
			res = r.Iterative
		}
	} else {
		var h *imr.JobHandle
		h, err = c.Submit(ctx, imr.JobSpec{Iterative: job}, imr.SubmitOptions{})
		if err != nil {
			fatal(err)
		}
		var r *imr.JobResult
		r, err = h.Result()
		if r != nil {
			res = r.Iterative
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n=== iMapReduce (%s, sync=%v, tcp=%v, resumed=%v) ===\n", algo, sync, tcp, resume)
	fmt.Printf("%-6s %-12s %-12s\n", "iter", "cumulative", "distance")
	for _, it := range res.PerIter {
		fmt.Printf("%-6d %-12s %-12.6g\n", it.Iter, it.CompletedAt.Round(time.Millisecond), it.Dist)
	}
	fmt.Printf("init %v, total %v, converged=%v, iterations=%d\n",
		res.InitTime.Round(time.Millisecond), res.TotalWall.Round(time.Millisecond), res.Converged, res.Iterations)
	fmt.Printf("traffic: shuffle=%s (remote %s), state=%s (remote %s)\n",
		mb(m.Get(metrics.ShuffleBytes)), mb(m.Get(metrics.ShuffleRemote)),
		mb(m.Get(metrics.StateBytes)), mb(m.Get(metrics.StateRemote)))
	if rec != nil {
		fmt.Printf("\nper-iteration factor decomposition (Fig. 10 factors):\n")
		trace.Decompose(rec.Events()).WriteTable(os.Stdout)
		if d := rec.Dropped(); d > 0 {
			fmt.Printf("note: ring overflow dropped the %d oldest events\n", d)
		}
	}
	printSample(fs, spec.IDs()[0], res.OutputPath, sample, numeric)
}

// numeric renders any scalar state value as float64 for display.
func numeric(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	default:
		return 0
	}
}

func runMR(g *graph.Graph, algo string, source int64, iters int, threshold float64, workers, sample int) {
	c := newCluster(workers, false, nil, nil)
	spec, m, fs := c.Spec, c.Metrics, c.FS
	var spec2 mapreduce.IterSpec
	switch algo {
	case "sssp":
		if err := fs.WriteFile("/in", spec.IDs()[0], sssp.CombinedPairs(g, source), sssp.CombinedOps()); err != nil {
			fatal(err)
		}
		spec2 = sssp.MRSpec("cli-sssp-mr", "/in", "/work", workers, iters, threshold)
	case "pagerank":
		if err := fs.WriteFile("/in", spec.IDs()[0], pagerank.CombinedPairs(g), pagerank.CombinedOps()); err != nil {
			fatal(err)
		}
		spec2 = pagerank.MRSpec("cli-pagerank-mr", "/in", "/work", g.N, workers, iters, threshold)
	case "concomp":
		if err := fs.WriteFile("/in", spec.IDs()[0], concomp.CombinedPairs(g), concomp.CombinedOps()); err != nil {
			fatal(err)
		}
		if threshold <= 0 {
			threshold = 0.5
		}
		spec2 = concomp.MRSpec("cli-concomp-mr", "/in", "/work", workers, iters, threshold)
	default:
		fatal(fmt.Errorf("unknown algorithm %q", algo))
	}
	h, err := c.Submit(context.Background(), imr.JobSpec{Chain: &spec2}, imr.SubmitOptions{})
	if err != nil {
		fatal(err)
	}
	r, err := h.Result()
	if err != nil {
		fatal(err)
	}
	res := r.Chain
	fmt.Printf("\n=== MapReduce baseline (%s) ===\n", algo)
	fmt.Printf("%-6s %-12s %-12s %-12s\n", "iter", "cumulative", "ex-init", "distance")
	for _, st := range res.Stats {
		fmt.Printf("%-6d %-12s %-12s %-12.6g\n", st.Iteration,
			st.CumulativeWall.Round(time.Millisecond), st.CumulativeExInit.Round(time.Millisecond), st.Distance)
	}
	fmt.Printf("total %v, converged=%v, iterations=%d, jobs=%d\n",
		res.TotalWall.Round(time.Millisecond), res.Converged, res.Iterations, m.Get(metrics.JobsLaunched))
	fmt.Printf("traffic: shuffle=%s (remote %s)\n",
		mb(m.Get(metrics.ShuffleBytes)), mb(m.Get(metrics.ShuffleRemote)))
	printSample(fs, spec.IDs()[0], res.OutputPath, sample, func(v any) float64 {
		return numeric(v.(mapreduce.IterValue).State)
	})
}

func printSample(fs *dfs.DFS, at, dir string, n int, val func(any) float64) {
	var recs []kv.Pair
	for _, p := range fs.List(dir + "/") {
		rs, err := fs.ReadFile(p, at)
		if err != nil {
			fatal(err)
		}
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(i, j int) bool { return val(recs[i].Value) > val(recs[j].Value) })
	if n > len(recs) {
		n = len(recs)
	}
	fmt.Printf("top %d results:\n", n)
	for _, r := range recs[:n] {
		fmt.Printf("  node %v: %.6g\n", r.Key, val(r.Value))
	}
}

// runKMeans clusters a point file on one or both engines.
func runKMeans(pointsPath string, k, iters, workers int, engine string) {
	f, err := os.Open(pointsPath)
	if err != nil {
		fatal(err)
	}
	points, err := kmeans.LoadPoints(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	cents := kmeans.RandomInitCentroids(points, k, 1)
	fmt.Printf("%d points, %d dims, k=%d\n", len(points), len(points[0].Value.(kmeans.Point)), k)

	if engine == "imr" || engine == "both" {
		c := newCluster(workers, false, nil, &core.Options{Timeout: 10 * time.Minute})
		spec, m, fs := c.Spec, c.Metrics, c.FS
		if err := kmeans.WriteInputs(fs, spec.IDs()[0], points, cents, "/points", "/cents"); err != nil {
			fatal(err)
		}
		h, err := c.Submit(context.Background(), imr.JobSpec{Iterative: kmeans.IMRJob(kmeans.IMRConfig{
			Name: "cli-kmeans", StaticPath: "/points", StatePath: "/cents", MaxIter: iters,
		})}, imr.SubmitOptions{})
		if err != nil {
			fatal(err)
		}
		r, err := h.Result()
		if err != nil {
			fatal(err)
		}
		res := r.Iterative
		fmt.Printf("\n=== iMapReduce (kmeans, one2all broadcast) ===\n")
		fmt.Printf("%d iterations in %v (init %v); shuffle %s\n",
			res.Iterations, res.TotalWall.Round(time.Millisecond), res.InitTime.Round(time.Millisecond),
			mb(m.Get(metrics.ShuffleBytes)))
		printCentroids(fs, spec.IDs()[0], res.OutputPath)
	}
	if engine == "mr" || engine == "both" {
		c := newCluster(workers, false, nil, nil)
		spec, m, fs := c.Spec, c.Metrics, c.FS
		if err := fs.WriteFile("/points", spec.IDs()[0], points, kmeans.PointOps()); err != nil {
			fatal(err)
		}
		start := time.Now()
		// kmeans.RunMR is a bespoke driver loop, not an IterSpec chain,
		// so it runs on the baseline engine directly.
		res, err := kmeans.RunMR(c.MapReduceEngine(), kmeans.MRConfig{
			Name: "cli-kmeans-mr", PointsPath: "/points", WorkDir: "/work",
			Centroids: cents, NumReduce: workers, MaxIter: iters,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n=== MapReduce baseline (kmeans) ===\n")
		fmt.Printf("%d iterations in %v (%d jobs); shuffle %s\n",
			res.Iterations, time.Since(start).Round(time.Millisecond), m.Get(metrics.JobsLaunched),
			mb(m.Get(metrics.ShuffleBytes)))
		for _, c := range res.Centroids {
			fmt.Printf("  centroid %v: %.3f ...\n", c.Key, c.Value.(kmeans.Point)[0])
		}
	}
}

func printCentroids(fs *dfs.DFS, at, dir string) {
	for _, p := range fs.List(dir + "/") {
		recs, err := fs.ReadFile(p, at)
		if err != nil {
			fatal(err)
		}
		for _, r := range recs {
			fmt.Printf("  centroid %v: %.3f ...\n", r.Key, r.Value.(kmeans.Point)[0])
		}
	}
}

func mb(b int64) string { return fmt.Sprintf("%.1fMB", float64(b)/(1<<20)) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imrrun:", err)
	os.Exit(1)
}
