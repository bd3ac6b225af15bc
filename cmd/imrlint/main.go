// Command imrlint runs the project's static-analysis suite
// (internal/lint) over the given packages and exits 1 on any finding.
// It is wired into `make lint` (and therefore `make ci`) so the
// invariants the analyzers encode — no sends under locks, paired trace
// spans, no silently dropped transport/DFS errors, seeded determinism in
// the simulator, constant metric names, protocol exhaustiveness, acyclic
// lock order, threaded contexts, errors.Is on sentinels — hold on every
// change.
//
// Usage:
//
//	imrlint [-list] [packages]
//
// Packages are directories, optionally suffixed with /... for a
// recursive walk (default "./..."). Findings print as
//
//	file:line:col: [analyzer] message
//
// There is no baseline and no suppression directive: a finding is fixed,
// or the code takes the analyzer's in-language escape (DESIGN §10.1).
// Code that does not type-check is a load error (exit 2).
package main

import (
	"flag"
	"fmt"
	"os"

	"imapreduce/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: imrlint [-list] [packages]\n")
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
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "imrlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
