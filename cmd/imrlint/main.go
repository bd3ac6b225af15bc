// Command imrlint runs the project's static-analysis suite
// (internal/lint) over the given packages and exits non-zero on any
// new finding. It is wired into `make lint` (and therefore `make ci`)
// so the invariants the analyzers encode — no sends under locks, paired
// trace spans, no silently dropped transport/DFS errors, seeded
// determinism in the simulator, constant metric names, no pooled-slab
// memory retained past its release, protocol exhaustiveness, acyclic
// lock order, threaded contexts, errors.Is on sentinels — hold on every
// change.
//
// Usage:
//
//	imrlint [-json] [-json-out file] [-list]
//	        [-baseline file] [-write-baseline] [packages]
//
// Packages are directories, optionally suffixed with /... for a
// recursive walk (default "./..."). Findings print as
//
//	file:line:col: [analyzer] message
//
// or, with -json, as a machine-readable array CI can diff; -json-out
// writes the same array to a file alongside the human output.
//
// The baseline ratchet: -baseline FILE loads a set of grandfathered
// findings (the -json shape). Findings present in the baseline are
// reported but tolerated; anything NOT in the baseline fails the run.
// Matching ignores line and column — fixing unrelated code must not
// re-trip a grandfathered finding — and is multiset-counted per
// (file, analyzer, message), so a finding can only be duplicated by
// really introducing a second instance. When grandfathered findings
// disappear, the run says so: regenerate with -write-baseline to
// ratchet the debt down. It can only shrink — -write-baseline refuses
// to add new entries over an existing baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"imapreduce/internal/lint"
)

// jsonFinding is the -json output shape; field names are part of the CI
// contract, keep them stable.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// baselineKey identifies a finding for ratchet matching: line numbers
// shift with every edit, so they are deliberately not part of the key.
type baselineKey struct {
	file     string
	analyzer string
	message  string
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	jsonFile := flag.String("json-out", "", "also write findings as JSON to this file")
	list := flag.Bool("list", false, "list analyzers and exit")
	baseline := flag.String("baseline", "", "tolerate findings recorded in this JSON baseline; fail only on new ones")
	writeBaseline := flag.Bool("write-baseline", false, "rewrite -baseline from the current findings (ratchet down only)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: imrlint [-json] [-json-out file] [-list] [-baseline file] [-write-baseline] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imrlint: %v\n", err)
		os.Exit(2)
	}
	findings := lint.Run(pkgs, lint.All())

	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Analyzer: f.Analyzer, Message: f.Message,
		})
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "imrlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if *jsonFile != "" {
		if err := writeJSON(*jsonFile, out); err != nil {
			fmt.Fprintf(os.Stderr, "imrlint: %v\n", err)
			os.Exit(2)
		}
	}

	if *baseline == "" {
		if len(findings) > 0 {
			if !*jsonOut {
				fmt.Fprintf(os.Stderr, "imrlint: %d finding(s)\n", len(findings))
			}
			os.Exit(1)
		}
		return
	}

	old, err := readBaseline(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imrlint: %v\n", err)
		os.Exit(2)
	}
	budget := map[baselineKey]int{}
	for _, f := range old {
		budget[baselineKey{f.File, f.Analyzer, f.Message}]++
	}
	var fresh []jsonFinding
	for _, f := range out {
		k := baselineKey{f.File, f.Analyzer, f.Message}
		if budget[k] > 0 {
			budget[k]--
			continue
		}
		fresh = append(fresh, f)
	}
	stale := 0
	for _, n := range budget {
		stale += n
	}

	if *writeBaseline {
		if len(fresh) > 0 {
			fmt.Fprintf(os.Stderr,
				"imrlint: refusing to write baseline: %d new finding(s) — the ratchet only goes down; fix or suppress them instead\n",
				len(fresh))
			os.Exit(1)
		}
		if err := writeJSON(*baseline, out); err != nil {
			fmt.Fprintf(os.Stderr, "imrlint: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "imrlint: baseline %s rewritten with %d finding(s)\n", *baseline, len(out))
		return
	}

	if stale > 0 {
		fmt.Fprintf(os.Stderr,
			"imrlint: %d baseline finding(s) no longer occur — run with -write-baseline to ratchet %s down\n",
			stale, *baseline)
	}
	if len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "imrlint: %d new finding(s) not in baseline %s (%d grandfathered)\n",
			len(fresh), *baseline, len(out)-len(fresh))
		os.Exit(1)
	}
}

// readBaseline loads a baseline file; a missing file is an empty
// baseline, so bootstrapping a repo needs no special case.
func readBaseline(path string) ([]jsonFinding, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []jsonFinding
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return out, nil
}

func writeJSON(path string, findings []jsonFinding) error {
	data, err := json.MarshalIndent(findings, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
