// Command bench is the repository's one benchmark: four workloads that
// stress different layers of the stack, four end-to-end metrics every
// workload reports, and a traced run that adds every per-layer metric.
// It measures the program from outside — public functions, public
// counters, and the existing trace.Recorder — and changes nothing in it.
//
//	bench                                  run the suite (every workload in its own process)
//	bench -trace 1                         ... followed by one traced run per workload
//	bench -sets 2                          run the suite twice and compare the two sets
//	bench -compare a.json b.json           compare two result files
//	bench -workload W -seed N -seconds S -trace 0|1 [-out DIR]
//	                                       one run; the last line of output is the driver's JSON
//
// See README.md for the catalogue.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runTimeout aborts a run that hangs well before the driver's own
// 180-second limit would kill it without a diagnosis.
const runTimeout = 150 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: the whole suite, one process each)")
		seed     = flag.Int64("seed", 0, "input seed; 0 reproduces the catalogue graphs")
		seconds  = flag.Float64("seconds", runSeconds, "how long a run measures")
		traced   = flag.Int("trace", 0, "1 = traced run: every per-layer metric instead of the end-to-end ones")
		out      = flag.String("out", "", "directory for result files and trace artefacts (suite default: .bench_build/out)")
		sets     = flag.Int("sets", 1, "suite: run this many sets; with 2 or more, compare each with the first")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("bench: -compare takes two result files")
			break
		}
		var clean bool
		if clean, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && !clean {
			os.Exit(1)
		}
	case *workload != "":
		err = runOne(runSpec{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *traced != 0,
			size: fullSize, outDir: *out,
		})
	default:
		err = runSuite(suiteSpec{
			seed: *seed, seconds: *seconds, trace: *traced != 0,
			sets: *sets, outDir: *out,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runWorkload dispatches one run to its workload and completes its
// metric set: what the workload did not measure reads 0.
func runWorkload(ctx context.Context, spec runSpec) (*RunResult, error) {
	host := pinProcs()
	var res *RunResult
	var err error
	switch spec.workload {
	case wlPagerankTCP, wlSSSPChan, wlMRChain:
		res, err = runClosed(ctx, spec, host)
	case wlServeOpen:
		res, err = runServe(ctx, spec, host)
	default:
		err = fmt.Errorf("bench: unknown workload %q", spec.workload)
	}
	if err != nil {
		return nil, err
	}
	res.fillMissing()
	return res, nil
}

// runOne is the single-run mode the driver and the suite's child
// processes use: everything measured goes to standard output by name,
// and the last line is the contract's JSON object. A run whose outputs
// were wrong still prints its result, then exits non-zero. With -out the
// whole result is also written to resultPath, where the suite reads it.
func runOne(spec runSpec) error {
	if spec.seconds <= 0 {
		return errors.New("bench: -seconds must be positive")
	}
	ctx, cancel := context.WithTimeoutCause(context.Background(), runTimeout,
		fmt.Errorf("run exceeded %s", runTimeout))
	defer cancel()
	res, err := runWorkload(ctx, spec)
	if err != nil {
		return err
	}
	if res.Attempted < 1 {
		return errors.New("bench: run attempted no job")
	}
	if spec.outDir != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(spec.outDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(resultPath(spec.outDir, spec.workload), data, 0o644); err != nil {
			return err
		}
	}
	res.writeHuman(os.Stdout)
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("bench: %s: %d of %d jobs failed or produced wrong output", spec.workload, res.Failed, res.Attempted)
	}
	return nil
}

// resultPath is where a run with -out leaves its whole result.
func resultPath(outDir, workload string) string {
	return filepath.Join(outDir, workload+".result.json")
}
