// Package experiments regenerates every table and figure of the paper's
// evaluation (§4, §5). Local-cluster figures (4–7, 16, 18, 20) run the
// real engines on scaled synthetic datasets; EC2-scale figures (8–14)
// run the calibrated cluster simulator at the paper's full data sizes.
//
// Each experiment returns a Figure: labeled series plus notes comparing
// the measured shape against the paper's reported numbers. cmd/imrbench
// prints them; bench_test.go wraps each in a benchmark.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"imapreduce/internal/trace"
)

// Series is one labeled curve or bar group.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is one reproduced table or figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Note appends a formatted note line.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Render writes the figure as an aligned text table: one row per X
// value, one column per series.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) > 0 {
		header := []string{f.XLabel}
		for _, s := range f.Series {
			header = append(header, s.Label)
		}
		rows := map[float64][]string{}
		var xs []float64
		for si, s := range f.Series {
			for i, x := range s.X {
				row, ok := rows[x]
				if !ok {
					row = make([]string, len(f.Series))
					for j := range row {
						row[j] = "-"
					}
					rows[x] = row
					xs = append(xs, x)
					row = rows[x]
				}
				row[si] = fmt.Sprintf("%.2f", s.Y[i])
			}
		}
		sort.Float64s(xs)
		widths := make([]int, len(header))
		for i, h := range header {
			widths[i] = len(h)
		}
		var lines [][]string
		for _, x := range xs {
			line := append([]string{trimFloat(x)}, rows[x]...)
			for i, c := range line {
				if len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
			lines = append(lines, line)
		}
		printRow := func(cells []string) {
			for i, c := range cells {
				fmt.Fprintf(w, "%-*s  ", widths[i], c)
			}
			fmt.Fprintln(w)
		}
		printRow(header)
		printRow(dashes(widths))
		for _, l := range lines {
			printRow(l)
		}
	}
	if f.YLabel != "" {
		fmt.Fprintf(w, "(y: %s)\n", f.YLabel)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes the figure's series as a CSV file (one row per X
// value, one column per series) under dir, named <ID>.csv, for external
// plotting.
func (f *Figure) WriteCSV(dir string) error {
	if len(f.Series) == 0 {
		return nil
	}
	path := filepath.Join(dir, f.ID+".csv")
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	w := csv.NewWriter(file)
	if err := w.Write(header); err != nil {
		return err
	}
	rows := map[float64][]string{}
	var xs []float64
	for si, s := range f.Series {
		for i, x := range s.X {
			if _, ok := rows[x]; !ok {
				row := make([]string, len(f.Series))
				rows[x] = row
				xs = append(xs, x)
			}
			rows[x][si] = fmt.Sprintf("%g", s.Y[i])
		}
	}
	sort.Float64s(xs)
	for _, x := range xs {
		if err := w.Write(append([]string{fmt.Sprintf("%g", x)}, rows[x]...)); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.2f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Config scales the experiments. Default reproduces the paper's shapes
// in tens of seconds; Quick is for tests and benchmarks.
type Config struct {
	// Scale divides the paper's dataset sizes (graph.Catalog scale).
	Scale int
	// Workers is the local-cluster size (the paper's local cluster has
	// 4 nodes).
	Workers int
	// JobInit and TaskStart emulate Hadoop's scheduling costs in the
	// real-engine runs, scaled down with the data.
	JobInit   time.Duration
	TaskStart time.Duration
	// Iterations for the per-iteration figures (paper: 16 for SSSP,
	// 20 for PageRank, 10 for both on EC2, 10 for K-means, 5 for matrix
	// power).
	SSSPIters     int
	PageRankIters int
	KMeansIters   int
	MatrixIters   int
	// K-means dataset shape (Last.fm stand-in).
	KMeansUsers int
	KMeansDim   int
	KMeansK     int
	// MatrixN is the dense matrix dimension.
	MatrixN int
	// Transport selects the real-engine message backend: "" or "chan"
	// for in-process channels, "tcp" for real loopback sockets (the
	// paper's persistent connections, exercising the wire codecs).
	Transport string
	// Trace, if set, receives structured events from every engine run
	// built on this Config (and from the transport when Transport is
	// "tcp").
	Trace *trace.Recorder
}

// Default is the full-size (still laptop-friendly) configuration.
func Default() Config {
	return Config{
		Scale:         100,
		Workers:       4,
		JobInit:       40 * time.Millisecond,
		TaskStart:     10 * time.Millisecond,
		SSSPIters:     16,
		PageRankIters: 20,
		KMeansIters:   10,
		MatrixIters:   5,
		KMeansUsers:   100000, // compute-dominated, as the paper's 359k-user run was
		KMeansDim:     32,
		KMeansK:       20,
		MatrixN:       144,
	}
}

// Quick shrinks everything for unit tests and benchmarks.
func Quick() Config {
	return Config{
		Scale:         2000,
		Workers:       3,
		JobInit:       4 * time.Millisecond,
		TaskStart:     time.Millisecond,
		SSSPIters:     6,
		PageRankIters: 6,
		KMeansIters:   4,
		MatrixIters:   3,
		KMeansUsers:   300,
		KMeansDim:     6,
		KMeansK:       4,
		MatrixN:       16,
	}
}

// Runner produces one figure.
type Runner func(Config) (*Figure, error)

// All maps experiment ids to runners, in paper order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"table1", Table1},
		{"table2", Table2},
		{"fig04", Fig04},
		{"fig05", Fig05},
		{"fig06", Fig06},
		{"fig07", Fig07},
		{"fig08", Fig08},
		{"fig09", Fig09},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"fig16", Fig16},
		{"fig18", Fig18},
		{"fig20", Fig20},
	}
}

// ByID returns the runner for one experiment id.
func ByID(id string) (Runner, error) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
