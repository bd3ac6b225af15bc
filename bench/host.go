package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// Host is the metadata every result file carries, so that two files can
// be compared without asking where they came from.
type Host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// maxProcs is the benchmark's GOMAXPROCS ceiling: the paper's local
// cluster has four workers, and more processors than workers only add
// scheduler noise.
const maxProcs = 4

// pinProcs applies GOMAXPROCS = min(cores, maxProcs) — unless the
// environment sets GOMAXPROCS, which is then honoured and recorded —
// and describes the host.
func pinProcs() Host {
	cores := runtime.NumCPU()
	procs := runtime.GOMAXPROCS(0)
	if os.Getenv("GOMAXPROCS") == "" {
		procs = min(cores, maxProcs)
		runtime.GOMAXPROCS(procs)
	}
	h := Host{
		Cores: cores, GOMAXPROCS: procs, GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: "unknown",
	}
	// The commit is known only when the binary was built inside a git
	// checkout; the driver's checkouts are plain directories.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// procStatusMB reads one "Vm...:" line of /proc/self/status in MB. It
// returns 0 where /proc is unavailable; callers treat that as "not
// measured", never as a result.
func procStatusMB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func rssPeakMB() float64 { return procStatusMB("VmHWM") }

// rssAtRestMB is what an idle process still holds: the resident set after
// a collection has run and the freed pages have gone back to the system.
// serve-open reports it, between the two rates the service sustains and
// the burst, in place of the sampled median: its process is small enough
// (27 MB) for the 4 MB heap arenas that happen to be mapped to move the
// samples' median by a sixth from run to run, and in the burst the
// resident set follows a backlog that feeds on itself.
func rssAtRestMB() float64 {
	debug.FreeOSMemory() // forces a collection first
	return procStatusMB("VmRSS")
}

// rssSampler reads the resident set every rssEvery while the timed
// window is open. The high-water mark is an extreme value — on a 13 MB
// process one 4 MB heap arena mapped for a moment moves it by a third —
// so the end-to-end memory metric is the median of these samples, and
// the high-water mark is reported beside it.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

const rssEvery = 50 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			s.mb = append(s.mb, procStatusMB("VmRSS"))
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, stores the samples' distribution (its tail
// is the largest sample) and returns the median.
func (s *rssSampler) finish(res *RunResult) float64 {
	close(s.stop)
	<-s.done
	return res.timing("rss_mb", s.mb)
}

// runtimeSnap is a point-in-time reading of the Go runtime's allocation
// and GC accounting; two snapshots bracket the timed window.
type runtimeSnap struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64 // seconds
	busyCPU    float64 // seconds: total minus idle
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSnap{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	s.gcCPU = val(0)
	s.busyCPU = val(1) - val(2)
	return s
}

// add accumulates the interval before → after into s.
func (s *runtimeSnap) add(after, before runtimeSnap) {
	s.totalAlloc += after.totalAlloc - before.totalAlloc
	s.numGC += after.numGC - before.numGC
	s.gcCPU += after.gcCPU - before.gcCPU
	s.busyCPU += after.busyCPU - before.busyCPU
}

// report sets the runtime layer's metrics from an accumulated interval
// that covered units iterations (jobs, on serve-open).
func (s runtimeSnap) report(res *RunResult, units int) {
	if units > 0 {
		res.set("runtime.alloc_mb_per_iter", float64(s.totalAlloc)/(1<<20)/float64(units))
	}
	res.set("rss_peak_mb", rssPeakMB())
	res.set("runtime.gc_cycles", float64(s.numGC))
	if s.busyCPU > 0 {
		res.set("runtime.gc_cpu_share", s.gcCPU/s.busyCPU)
	}
}
