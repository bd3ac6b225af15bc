package main

// The catalogue is the single definition of the benchmark's workloads
// and metrics. BENCHMARK.json at the repository root is generated from
// it (go test -run TestSpecMatchesCatalogue -update) and the test
// asserts the two agree, so a name
// can never drift between the contract file and the code that measures
// it.

// Workload names. Later issues refer to workloads by these.
const (
	wlPagerankTCP = "pagerank-tcp"
	wlSSSPChan    = "sssp-small-chan"
	wlMRChain     = "pagerank-mrchain"
	wlServeOpen   = "serve-open"
)

// WorkloadDef is one workload and the reason it exists.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []WorkloadDef{
	{wlPagerankTCP, "throughput regime: 20-iteration PageRank, 91641 nodes/591k edges, over loopback TCP with checkpoints every 5; codec, sockets, sort/group and pair loops dominate"},
	{wlSSSPChan, "latency regime: 5000 supersteps of SSSP on 256 nodes over channels; ~30 tiny messages per step, so master loop, barrier and per-message cost dominate; bulk data-plane gains must not show"},
	{wlMRChain, "baseline engine: 8 chained MapReduce jobs on the same graph; state and adjacency rewritten to and re-read from the DFS and re-sorted every iteration, a job launch per iteration, no transport"},
	{wlServeOpen, "control plane: open-loop arrivals of tiny PageRank jobs into a 4-slot serve.Service at fixed 75/150/300 jobs/s (0.35/0.7/1.4 x knee); admission, dispatch, Submit, engine spawn and teardown dominate"},
}

// MetricDef is one metric of the catalogue. Bound is set on end-to-end
// metrics only. Layer and Moves document the interaction table: which
// package the metric belongs to and which end-to-end metric it is
// predicted to move, on which workload (elsewhere: no change).
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them (the builder's contract), so each is defined
// on all four; README.md says what each means on serve-open.
//
// The bounds follow the builder's contract, which accepts a benchmark
// whose run-to-run spread (interquartile distance over median, ten runs
// with ten seeds) stays within the bound and asks for a spread under a
// third of it. It gives one bound per metric, for all four workloads, so
// a metric's bound is set by the workload on which it is least steady
// (README.md, "Repeatability"):
//
//   - rss_mb spreads 1.4-2.8 %, so it keeps the issue's 10 %.
//   - job_ms and medges_per_s spread 5-9 % on the two large workloads
//     but up to 15 % on serve-open and 21 % on sssp-small-chan, whose
//     0.3 ms supersteps time the host's wake-up latency; the shared
//     2-core reference VM also has minute-long epochs in which whole
//     runs are a third slower. The issue's 7 % would report that noise
//     as regressions, and the contract cannot demote a metric on one
//     workload only, so they take the contract's maximum.
//   - setup_s takes the largest bound, as the contract says.
var endToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "job_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "medges_per_s", Unit: "Medges/s", Better: "higher", Bound: 0.25},
}

const (
	closedLoop = wlPagerankTCP + ", " + wlSSSPChan + ", " + wlMRChain
	onTCP      = "iter_ms on " + wlPagerankTCP
	onSSSP     = "iter_ms on " + wlSSSPChan
	onChain    = "iter_ms on " + wlMRChain
	onServe    = "job_ms on " + wlServeOpen
)

// perLayer lists the single-layer metrics the traced run reports. Every
// workload prints every name; a metric that does not apply to a
// workload reads 0 there, which is itself the prediction being checked
// (transport.tcp_bytes_per_iter is 0 wherever no socket is involved).
var perLayer = []MetricDef{
	{Name: "graph.generate_ms", Unit: "ms", Better: "lower", Layer: "graph", Moves: "setup_s on all"},

	{Name: "kv.encode_ns_per_rec", Unit: "ns", Better: "lower", Layer: "kv", Moves: onTCP},
	{Name: "kv.decode_ns_per_rec", Unit: "ns", Better: "lower", Layer: "kv", Moves: onTCP},
	{Name: "kv.decode_allocs_per_chunk", Unit: "count", Better: "lower", Layer: "kv", Moves: onTCP},
	{Name: "kv.wire_bytes_per_rec", Unit: "B", Better: "lower", Layer: "kv", Moves: onTCP},
	{Name: "kv.sort_ns_per_rec", Unit: "ns", Better: "lower", Layer: "kv", Moves: onTCP + " and " + wlMRChain},
	{Name: "kv.group_ns_per_rec", Unit: "ns", Better: "lower", Layer: "kv", Moves: onTCP + " and " + wlMRChain},

	{Name: "transport.tcp_stream_mb_s", Unit: "MB/s", Better: "higher", Layer: "transport", Moves: onTCP},
	{Name: "transport.tcp_bytes_per_iter", Unit: "B", Better: "lower", Layer: "transport", Moves: onTCP},
	{Name: "transport.tcp_msgs_per_iter", Unit: "count", Better: "lower", Layer: "transport", Moves: onTCP},
	{Name: "transport.tcp_flushes_per_iter", Unit: "count", Better: "lower", Layer: "transport", Moves: onTCP},
	{Name: "transport.tcp_compressed_frames", Unit: "count", Better: "higher", Layer: "transport", Moves: onTCP},
	{Name: "transport.tcp_dials", Unit: "count", Better: "lower", Layer: "transport", Moves: "first_iter_ms on " + wlPagerankTCP},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "first_iter_ms on " + wlPagerankTCP},
	{Name: "transport.chan_rtt_us", Unit: "us", Better: "lower", Layer: "transport", Moves: onSSSP + "; " + onServe},
	{Name: "transport.chan_msgs_per_iter", Unit: "count", Better: "lower", Layer: "transport", Moves: onSSSP + "; " + onServe},
	{Name: "transport.chan_stream_msgs_s", Unit: "1/s", Better: "higher", Layer: "transport", Moves: onSSSP + "; " + onServe},

	{Name: "dfs.write_mb_s", Unit: "MB/s", Better: "higher", Layer: "dfs", Moves: onChain + "; first_iter_ms on " + wlPagerankTCP},
	{Name: "dfs.read_mb_s", Unit: "MB/s", Better: "higher", Layer: "dfs", Moves: onChain + "; first_iter_ms on " + wlPagerankTCP},
	{Name: "dfs.write_bytes_per_iter", Unit: "B", Better: "lower", Layer: "dfs", Moves: onChain + " (most); checkpoint iterations on " + wlPagerankTCP},
	{Name: "dfs.read_bytes_per_iter", Unit: "B", Better: "lower", Layer: "dfs", Moves: onChain},
	{Name: "dfs.read_remote_share", Unit: "share", Better: "lower", Layer: "dfs", Moves: onChain},

	{Name: "core.init_share", Unit: "share", Better: "lower", Layer: "core", Moves: "first_iter_ms on " + closedLoop},
	{Name: "core.shuffle_share", Unit: "share", Better: "lower", Layer: "core", Moves: onTCP},
	{Name: "core.syncwait_share", Unit: "share", Better: "lower", Layer: "core", Moves: onSSSP},
	{Name: "core.compute_share", Unit: "share", Better: "lower", Layer: "core", Moves: onTCP},
	{Name: "core.decomp_coverage", Unit: "share", Better: "higher", Layer: "core", Moves: "validity of the four shares"},
	{Name: "core.init_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "first_iter_ms on " + wlPagerankTCP + ", " + wlSSSPChan},
	{Name: "core.max_task_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: onTCP},
	{Name: "core.barrier_gap_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: onSSSP},
	{Name: "core.iter_tail_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "job_ms on " + wlSSSPChan},
	{Name: "core.iter_tail_pct", Unit: "pct", Better: "higher", Layer: "core", Moves: "names the percentile core.iter_tail_ms is"},
	{Name: "core.ckpt_iter_extra_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "job_ms on " + wlPagerankTCP},
	{Name: "core.teardown_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "job_ms on " + closedLoop + "; " + onServe},
	{Name: "core.shuffle_bytes_per_iter", Unit: "B", Better: "lower", Layer: "core", Moves: onTCP},
	{Name: "core.state_bytes_per_iter", Unit: "B", Better: "lower", Layer: "core", Moves: onTCP},
	{Name: "core.shuffle_remote_share", Unit: "share", Better: "lower", Layer: "core", Moves: onTCP},
	{Name: "core.checkpoints", Unit: "count", Better: "lower", Layer: "core", Moves: "job_ms on " + wlPagerankTCP},
	{Name: "core.send_retries", Unit: "count", Better: "lower", Layer: "core", Moves: "iter_ms on any (expected 0)"},
	{Name: "core.send_failures", Unit: "count", Better: "lower", Layer: "core", Moves: "iter_ms on any (expected 0)"},

	{Name: "mapreduce.job_init_ms", Unit: "ms", Better: "lower", Layer: "mapreduce", Moves: onChain},
	{Name: "mapreduce.tasks_per_iter", Unit: "count", Better: "lower", Layer: "mapreduce", Moves: onChain},
	{Name: "mapreduce.jobs_launched", Unit: "count", Better: "lower", Layer: "mapreduce", Moves: onChain},
	{Name: "mapreduce.shuffle_bytes_per_iter", Unit: "B", Better: "lower", Layer: "mapreduce", Moves: onChain},

	{Name: "imr.newcluster_ms", Unit: "ms", Better: "lower", Layer: "imr", Moves: "setup_s on all"},
	{Name: "imr.submit_call_us", Unit: "us", Better: "lower", Layer: "imr", Moves: onServe},
	{Name: "imr.submit_overhead_ms", Unit: "ms", Better: "lower", Layer: "imr", Moves: onServe},

	{Name: "serve.solo_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: onServe},
	{Name: "serve.admit_us", Unit: "us", Better: "lower", Layer: "serve", Moves: onServe},
	{Name: "serve.queue_wait_ms.r75", Unit: "ms", Better: "lower", Layer: "serve", Moves: "lat_p99_ms.r75"},
	{Name: "serve.queue_wait_ms.r150", Unit: "ms", Better: "lower", Layer: "serve", Moves: "lat_p99_ms.r150; " + onServe},
	{Name: "serve.queue_wait_ms.r300", Unit: "ms", Better: "lower", Layer: "serve", Moves: "goodput_jobs_s.r300"},
	{Name: "serve.run_ms.r75", Unit: "ms", Better: "lower", Layer: "serve", Moves: "lat_p50_ms.r75"},
	{Name: "serve.run_ms.r150", Unit: "ms", Better: "lower", Layer: "serve", Moves: onServe},
	{Name: "serve.run_ms.r300", Unit: "ms", Better: "lower", Layer: "serve", Moves: "medges_per_s on " + wlServeOpen},
	{Name: "serve.backlog_end.r300", Unit: "count", Better: "lower", Layer: "serve", Moves: "rate_ok_jobs_s"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Layer: "serve", Moves: "failed_share (expected 0)"},
	{Name: "serve.canceled", Unit: "count", Better: "lower", Layer: "serve", Moves: "failed_share (expected 0)"},

	// The issue's end-to-end metrics that cannot be end-to-end under the
	// builder's contract — not steady on every workload (the sub-
	// millisecond iterations of the two small workloads), not defined on
	// every workload, zero by design, or a constant step — kept by name.
	{Name: "iter_ms", Unit: "ms", Better: "lower", Layer: "engine", Moves: "job_ms, medges_per_s on " + closedLoop},
	{Name: "first_iter_ms", Unit: "ms", Better: "lower", Layer: "engine", Moves: "job_ms on " + closedLoop + " (init, static load, first shuffle, first dials)"},
	{Name: "lat_p50_ms.r75", Unit: "ms", Better: "lower", Layer: "serve-open", Moves: "user-visible; job_ms on " + wlServeOpen + " is lat_p50_ms.r150"},
	{Name: "lat_p50_ms.r150", Unit: "ms", Better: "lower", Layer: "serve-open", Moves: "equals " + onServe},
	{Name: "lat_p99_ms.r75", Unit: "ms", Better: "lower", Layer: "serve-open", Moves: "user-visible tail"},
	{Name: "lat_p99_ms.r150", Unit: "ms", Better: "lower", Layer: "serve-open", Moves: "user-visible tail"},
	{Name: "goodput_jobs_s.r300", Unit: "1/s", Better: "higher", Layer: "serve-open", Moves: "medges_per_s on " + wlServeOpen},
	{Name: "rate_ok_jobs_s", Unit: "1/s", Better: "higher", Layer: "serve-open", Moves: "any step down is a regression"},
	{Name: "failed_share", Unit: "share", Better: "lower", Layer: "all", Moves: "must be 0; a non-zero value fails the run"},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Layer: "trace", Moves: "validity of the traced numbers"},
	{Name: "trace.dropped_events", Unit: "count", Better: "lower", Layer: "trace", Moves: "validity of the decomposition"},

	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "rss_mb on all (VmHWM of the traced process, trace rings included)"},
	{Name: "runtime.alloc_mb_per_iter", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "iter_ms, rss_mb on all"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower", Layer: "runtime", Moves: "iter_ms on all"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Layer: "runtime", Moves: "iter_ms on all"},

	{Name: "loadgen.late_p50_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "validity of " + wlServeOpen + " medians"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "validity of " + wlServeOpen + " tails"},
	{Name: "loadgen.invalid_phases", Unit: "count", Better: "lower", Layer: "loadgen", Moves: "a phase with over half of its p50 or p99 latency owed to lateness is not a result"},
}

// The fixed serve-open arrival rates (jobs/s): 0.35x, 0.7x and 1.4x the
// knee swept on the 2-core reference host (README.md, "The serve-open
// knee"): after the two lighter phases the service follows the offered
// load up to about 215 jobs/s, and from 300 jobs/s on every run of the
// sweep was past saturation, with goodput between 184 and 196 jobs/s.
// They are constants: re-deriving them per run would make no two runs
// offer the same load.
const (
	rateLow   = 75
	rateMid   = 150
	rateBurst = 300
)

var serveRates = []int{rateLow, rateMid, rateBurst}

// latencyLimitMS is the p99 limit a rate must meet to count in
// rate_ok_jobs_s.
const latencyLimitMS = 1000

// runSeconds is how long one driver run measures.
const runSeconds = 20

// runsPerSet is how many runs of each workload, each with another seed,
// make one set of the suite: the fewest whose quartiles -compare can
// judge a spread with.
const runsPerSet = 5
