package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteSpec is the whole-suite mode's parameters.
type suiteSpec struct {
	seed    int64
	seconds float64
	trace   bool
	sets    int
	outDir  string
}

// SetFile is one set of runs: everything a later -compare needs.
type SetFile struct {
	Host Host        `json:"host"`
	Runs []RunResult `json:"runs"`
}

const defaultOutDir = ".bench_build/out"

// runSuite runs every workload, each run in its own process so that
// every run has a fresh heap and rss_peak_mb means something. A set is
// runsPerSet runs of each workload on consecutive seeds; with two or more
// sets, each later set is compared with the first.
func runSuite(s suiteSpec) error {
	if s.sets < 1 {
		return fmt.Errorf("bench: -sets must be at least 1")
	}
	if s.outDir == "" {
		s.outDir = defaultOutDir
	}
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	var files []string
	for set := 1; set <= s.sets; set++ {
		var sf SetFile
		for run := 0; run < runsPerSet; run++ {
			for _, w := range workloads {
				r, err := runChild(self, w.Name, s.seed+int64(run), s.seconds, false, s.outDir)
				if err != nil {
					return err
				}
				failed = failed || !r.Correct
				sf.Host = r.Host
				sf.Runs = append(sf.Runs, *r)
			}
		}
		if s.trace {
			for _, w := range workloads {
				r, err := runChild(self, w.Name, s.seed, s.seconds, true, s.outDir)
				if err != nil {
					return err
				}
				failed = failed || !r.Correct
				sf.Runs = append(sf.Runs, *r)
			}
		}
		path := filepath.Join(s.outDir, fmt.Sprintf("set-%d.json", set))
		data, err := json.MarshalIndent(sf, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("set %d written to %s\n", set, path)
		files = append(files, path)
	}
	for _, f := range files[1:] {
		clean, err := compareFiles(os.Stdout, files[0], f)
		if err != nil {
			return err
		}
		failed = failed || !clean
	}
	if failed {
		return fmt.Errorf("bench: suite finished with failed jobs or unsteady metrics (see above)")
	}
	return nil
}

// runChild runs one workload in a child process, passes its report
// through, and reads its full result back from the file -out makes it
// write.
func runChild(self, workload string, seed int64, seconds float64, traced bool, outDir string) (*RunResult, error) {
	detail := resultPath(outDir, workload)
	_ = os.Remove(detail) // an earlier run's file must never stand in for this one's
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace,
		"-out", outDir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(detail)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("bench: %s: %w", workload, runErr)
		}
		return nil, err
	}
	var r RunResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: result: %w", workload, err)
	}
	return &r, nil
}
