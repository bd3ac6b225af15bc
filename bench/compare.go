package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one workload x metric row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one workload x end-to-end metric comparison.
type compareRow struct {
	workload, metric, unit string
	bound                  float64
	a, b                   Dist
	change                 float64 // share of a's median; positive = worse
	verdict                string
}

func loadSet(path string) (*SetFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf SetFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &sf, nil
}

// valuesOf collects one end-to-end metric's values over a set's
// untraced runs of one workload.
func valuesOf(sf *SetFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range sf.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge applies the benchmark's own rule to two samples of one metric.
// Spread wider than the bound on either side: unresolved, whatever the
// medians say. Otherwise worse when b's median is worse than a's by more
// than the bound, improved when it is better by more than a's own
// interquartile spread, and unchanged in between. setup_s is judged on
// its medians alone, as the driver judges it: a set-up is too short for
// its spread to mean anything.
func judge(def MetricDef, a, b Dist) (change float64, verdict string) {
	if a.N < 2 || b.N < 2 || a.Median == 0 {
		return 0, verdictUnresolved // one run has no spread to judge with
	}
	change = (b.Median - a.Median) / a.Median
	if def.Better == "higher" {
		change = -change
	}
	spread := max(spreadShare(a.Q1, a.Median, a.Q3), spreadShare(b.Q1, b.Median, b.Q3))
	switch {
	case spread > def.Bound && def.Name != "setup_s":
		return change, verdictUnresolved
	case change > def.Bound:
		return change, verdictWorse
	case change < 0 && -change > spreadShare(a.Q1, a.Median, a.Q3):
		return change, verdictImproved
	}
	return change, verdictUnchanged
}

func compareSets(a, b *SetFile) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, def := range endToEnd {
			da, db := summarize(valuesOf(a, w.Name, def.Name)), summarize(valuesOf(b, w.Name, def.Name))
			if da.N == 0 && db.N == 0 {
				continue
			}
			change, verdict := judge(def, da, db)
			rows = append(rows, compareRow{
				workload: w.Name, metric: def.Name, unit: def.Unit, bound: def.Bound,
				a: da, b: db, change: change, verdict: verdict,
			})
		}
	}
	return rows
}

// compareFiles prints one row per workload x end-to-end metric and
// reports whether the comparison is clean: no row worse, none
// unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (clean bool, err error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%d cores, GOMAXPROCS %d, %s, commit %s)\n", pathA, a.Host.Cores, a.Host.GOMAXPROCS, a.Host.GoVersion, a.Host.Commit)
	fmt.Fprintf(w, "B = %s (%d cores, GOMAXPROCS %d, %s, commit %s)\n", pathB, b.Host.Cores, b.Host.GOMAXPROCS, b.Host.GoVersion, b.Host.Commit)
	fmt.Fprintf(w, "%-17s %-14s %-9s %3s %11s %23s %11s %23s %8s %6s  %s\n",
		"workload", "metric", "unit", "n", "A median", "A q1..q3", "B median", "B q1..q3", "worse by", "bound", "verdict")
	rows := compareSets(a, b)
	clean = true
	counts := make(map[string]int)
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %-14s %-9s %3d %11.5g %11.5g..%-10.5g %11.5g %11.5g..%-10.5g %+7.1f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.unit, min(r.a.N, r.b.N),
			r.a.Median, r.a.Q1, r.a.Q3, r.b.Median, r.b.Q1, r.b.Q3,
			100*r.change, 100*r.bound, r.verdict)
		counts[r.verdict]++
		if r.verdict == verdictWorse || r.verdict == verdictUnresolved {
			clean = false
		}
	}
	verdicts := make([]string, 0, len(counts))
	for v := range counts {
		verdicts = append(verdicts, fmt.Sprintf("%d %s", counts[v], v))
	}
	sort.Strings(verdicts)
	fmt.Fprintf(w, "%d rows: %v\n", len(rows), verdicts)
	return clean, nil
}
