// Command imrbench regenerates the paper's tables and figures: the
// local-cluster experiments run the real engines, the EC2-scale
// experiments run the calibrated cluster simulator. Output is one text
// table per figure with notes comparing against the paper's numbers.
//
// Usage:
//
//	imrbench                  # everything, default configuration
//	imrbench -fig fig08,fig11 # selected experiments
//	imrbench -quick           # small/fast configuration
//	imrbench -scale 50        # larger datasets (paper/50)
//	imrbench -trace out.json  # traced quick SSSP run, Chrome trace JSON
//
// Performance is measured by bench/run.sh (see bench/README.md), not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"imapreduce/internal/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "comma-separated experiment ids (table1, table2, fig04..fig20) or 'all'")
		quick   = flag.Bool("quick", false, "use the small/fast configuration")
		scale   = flag.Int("scale", 0, "override dataset scale divisor")
		workers = flag.Int("workers", 0, "override local cluster size")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		csvDir  = flag.String("csv", "", "also write each figure's series as CSV into this directory")
		traceTo = flag.String("trace", "", "run a traced quick SSSP job, write Chrome trace_event JSON to this path, and print the factor decomposition")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}

	if *traceTo != "" {
		cfg := experiments.Quick()
		if *scale > 0 {
			cfg.Scale = *scale
		}
		if *workers > 0 {
			cfg.Workers = *workers
		}
		if err := runTrace(*traceTo, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "imrbench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}

	var ids []string
	if *fig == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*fig, ",")
	}

	failed := 0
	for _, id := range ids {
		run, err := experiments.ByID(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, "imrbench:", err)
			failed++
			continue
		}
		figOut, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imrbench: %s: %v\n", id, err)
			failed++
			continue
		}
		figOut.Render(os.Stdout)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "imrbench:", err)
				failed++
				continue
			}
			if err := figOut.WriteCSV(*csvDir); err != nil {
				fmt.Fprintf(os.Stderr, "imrbench: %s: csv: %v\n", id, err)
				failed++
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
