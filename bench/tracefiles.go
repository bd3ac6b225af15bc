package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"imapreduce/internal/trace"
)

// writeTraceFiles writes a traced run's artefacts into spec.outDir (and
// nothing when it is empty): the per-layer table with the factor
// decomposition and the benchmark spans' self times, a Chrome trace of
// the traced job with the benchmark's spans above the program's, and the
// raw benchmark spans.
func writeTraceFiles(spec runSpec, res *RunResult, decomp *trace.Decomposition, events []trace.Event, spans *spanLog) error {
	if spec.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(spec.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(spec.outDir, spec.workload)

	table, err := os.Create(base + ".layers.txt")
	if err != nil {
		return err
	}
	res.fillMissing()
	res.writeHuman(table)
	if decomp != nil {
		fmt.Fprintln(table)
		writeDecomposition(table, *decomp)
	}
	fmt.Fprintln(table)
	writeSelfTable(table, spans.closed())
	if err := table.Close(); err != nil {
		return err
	}

	chrome, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(chrome, events); err != nil {
		chrome.Close()
		return fmt.Errorf("bench: chrome trace: %w", err)
	}
	if err := chrome.Close(); err != nil {
		return err
	}

	data, err := json.MarshalIndent(spans.closed(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", data, 0o644)
}

// maxDecompRows is the longest per-iteration factor table written in
// full; a 5000-superstep job gets its totals only.
const maxDecompRows = 48

// writeDecomposition prints the Fig. 10 factor table of the traced job.
func writeDecomposition(w io.Writer, d trace.Decomposition) {
	if len(d.PerIter) <= maxDecompRows {
		d.WriteTable(w)
		return
	}
	t := d.Totals()
	fmt.Fprintf(w, "%5s %12s %12s %12s %12s %12s\n", "iters", "wall ms", "init ms", "shuffle ms", "syncwait ms", "compute ms")
	fmt.Fprintf(w, "%5d %12.3f %12.3f %12.3f %12.3f %12.3f\n", len(d.PerIter), ms(t.Wall), ms(t.Init), ms(t.Shuffle), ms(t.SyncWait), ms(t.Compute))
	fmt.Fprintf(w, "factors cover %.1f%% of %s wall across %d task pairs\n", 100*d.Coverage(), d.Wall, d.Pairs)
}
