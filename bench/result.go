package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// RunResult is everything one run of one workload measured. The last
// line a run prints is the contract's four-key summary of it; the whole
// value goes into the suite's result file, which is all a later
// -compare needs.
type RunResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Host      Host    `json:"host"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Metrics holds every end-to-end metric (untraced run) or every
	// per-layer metric (traced run), by catalogue name.
	Metrics map[string]Metric `json:"metrics"`
	// Timings gives, for each timing behind a metric, the sample count,
	// median, quartiles and the tail percentile the sample supports.
	Timings map[string]Dist `json:"timings"`
	// Counts are the other sample counts (timed jobs, set-ups, arrivals
	// per phase).
	Counts map[string]int `json:"counts"`
	// Notes record anything that qualifies a number: an invalid
	// load-generator phase, a failed job's error.
	Notes []string `json:"notes,omitempty"`
}

func newResult(spec runSpec, host Host) *RunResult {
	return &RunResult{
		Workload: spec.workload, Seed: spec.seed, Seconds: spec.seconds, Traced: spec.trace,
		Host: host, Correct: true,
		Metrics: make(map[string]Metric), Timings: make(map[string]Dist), Counts: make(map[string]int),
	}
}

func (r *RunResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records one failed job; a failed job also makes the run
// incorrect, which the process reports with a non-zero exit.
func (r *RunResult) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.Notes) < 20 {
		r.note(format, args...)
	}
}

// set stores a metric under its catalogue definition's unit. Setting a
// name the catalogue does not define is a programming error.
func (r *RunResult) set(name string, v float64) {
	def, ok := metricDefs[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	r.Metrics[name] = Metric{Value: v, Unit: def.Unit}
}

// timing stores a timing's distribution and reports its median.
func (r *RunResult) timing(name string, samples []float64) float64 {
	d := summarize(samples)
	r.Timings[name] = d
	return d.Median
}

// fillMissing gives every metric of the run's kind that the workload
// did not measure the value 0: "does not apply here".
func (r *RunResult) fillMissing() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = Metric{Value: 0, Unit: d.Unit}
		}
	}
}

// metricDefs indexes the catalogue by name.
var metricDefs = func() map[string]MetricDef {
	m := make(map[string]MetricDef, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

// writeHuman prints every metric by name with its unit, then the
// timings' distributions.
func (r *RunResult) writeHuman(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v | cores %d GOMAXPROCS %d %s commit %s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Host.Cores, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	names := make([]string, 0, len(r.Timings))
	for n := range r.Timings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := r.Timings[n]
		fmt.Fprintf(w, "  timing %-27s n=%-6d median %.6g  q1 %.6g  q3 %.6g  p%g %.6g\n",
			n, t.N, t.Median, t.Q1, t.Q3, t.TailPct, t.Tail)
	}
	names = names[:0]
	for n := range r.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  count  %-27s %d\n", n, r.Counts[n])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note   %s\n", n)
	}
}

// contractLine is the one JSON object the driver reads: exactly the
// keys correct, attempted, failed and metrics.
func (r *RunResult) contractLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// A set-up is over in anything from 2 ms to 2 s, and the builder's
// contract wants setup_s steady, so a run sets up repeatedly for an
// eighth of its measuring time (at least minSetups times, at most
// maxSetups) and reports the median.
const (
	minSetups = 3
	maxSetups = 40
)

// setUpRepeatedly runs a workload's whole set-up until window has
// passed, closing all but the last environment, which it returns for
// the timed work. Each set-up starts from a collected heap, like the
// first. A traced run sets up once: its spans describe one set-up.
func setUpRepeatedly[E interface{ close() }](res *RunResult, spec runSpec, setup func() (E, error)) (E, error) {
	var env, none E
	window := time.Duration(spec.seconds / 8 * float64(time.Second))
	lo, hi := minSetups, maxSetups
	if spec.trace {
		lo, hi = 1, 1
	}
	var seconds []float64
	for begin := time.Now(); len(seconds) < lo || (len(seconds) < hi && time.Since(begin) < window); {
		if len(seconds) > 0 {
			env.close()
			env = none // unreachable before the collection, not after it
			runtime.GC()
		}
		start := time.Now()
		e, err := setup()
		if err != nil {
			return none, err
		}
		seconds = append(seconds, time.Since(start).Seconds())
		env = e
	}
	res.Counts["setups"] = len(seconds)
	res.timing("setup_s", seconds)
	return env, nil
}
