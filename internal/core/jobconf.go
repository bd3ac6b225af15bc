package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"imapreduce/internal/kv"
)

// JobConf is the paper's string-keyed configuration interface (§3.5):
// jobs are assembled with job.set("mapred.iterjob.statepath", path),
// job.setInt("mapred.iterjob.maxiter", n), and so on, mirroring the
// Hadoop-based prototype's API. Build() returns the equivalent Job.
//
// Supported keys:
//
//	mapred.iterjob.statepath   string  initial state path (required)
//	mapred.iterjob.staticpath  string  static data path
//	mapred.iterjob.outputpath  string  final output path
//	mapred.iterjob.maxiter     int     iteration bound
//	mapred.iterjob.disthresh   float   distance threshold
//	mapred.iterjob.mapping     string  "one2one" (default) or "one2all"
//	mapred.iterjob.sync        bool    synchronous map execution
//	mapred.iterjob.numtasks    int     persistent task pairs
//	mapred.iterjob.buffer      int     reduce→map buffer threshold
//	mapred.iterjob.checkpoint  int     checkpoint interval
type JobConf struct {
	job  *Job
	errs []error
}

// Key is a typed JobConf configuration key. Using a distinct type makes
// a misspelled literal fail loudly at Build time with a suggestion,
// while untyped string literals at call sites still convert implicitly.
type Key string

// Configuration keys, named as in the paper.
const (
	KeyStatePath  Key = "mapred.iterjob.statepath"
	KeyStaticPath Key = "mapred.iterjob.staticpath"
	KeyOutputPath Key = "mapred.iterjob.outputpath"
	KeyMaxIter    Key = "mapred.iterjob.maxiter"
	KeyDistThresh Key = "mapred.iterjob.disthresh"
	KeyMapping    Key = "mapred.iterjob.mapping"
	KeySync       Key = "mapred.iterjob.sync"
	KeyNumTasks   Key = "mapred.iterjob.numtasks"
	KeyBuffer     Key = "mapred.iterjob.buffer"
	KeyCheckpoint Key = "mapred.iterjob.checkpoint"
)

// knownKeys lists every valid key, for the unknown-key suggestion.
var knownKeys = []Key{
	KeyStatePath, KeyStaticPath, KeyOutputPath, KeyMaxIter, KeyDistThresh,
	KeyMapping, KeySync, KeyNumTasks, KeyBuffer, KeyCheckpoint,
}

// failUnknown reports an unrecognized key, suggesting the closest known
// key when the typo is plausibly a misspelling of a mapred.* key.
func (c *JobConf) failUnknown(key Key) {
	best, bestDist := Key(""), 4
	if strings.HasPrefix(string(key), "mapred.") {
		for _, k := range knownKeys {
			if d := editDistance(string(key), string(k)); d < bestDist {
				best, bestDist = k, d
			}
		}
	}
	if best != "" {
		c.fail("core: unknown configuration key %q (did you mean %q?)", key, best)
		return
	}
	c.fail("core: unknown configuration key %q", key)
}

// editDistance is the Levenshtein distance, small-string sized.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// NewJobConf starts a configuration for a named job.
func NewJobConf(name string) *JobConf {
	return &JobConf{job: &Job{Name: name}}
}

func (c *JobConf) fail(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

// Set assigns a string-valued key. Integer, float and boolean keys
// accept their string forms, as Hadoop configurations do. Unknown keys
// are collected and reported at Build time.
func (c *JobConf) Set(key Key, value string) *JobConf {
	switch key {
	case KeyStatePath:
		c.job.StatePath = value
	case KeyStaticPath:
		c.job.StaticPath = value
	case KeyOutputPath:
		c.job.OutputPath = value
	case KeyMapping:
		switch value {
		case "one2one":
			c.job.Mapping = OneToOne
		case "one2all":
			c.job.Mapping = OneToAll
		default:
			c.fail("core: %s must be one2one or one2all, got %q", KeyMapping, value)
		}
	case KeyMaxIter, KeyNumTasks, KeyBuffer, KeyCheckpoint:
		n, err := strconv.Atoi(value)
		if err != nil {
			c.fail("core: %s: %v", key, err)
			return c
		}
		c.SetInt(key, n)
	case KeyDistThresh:
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			c.fail("core: %s: %v", key, err)
			return c
		}
		c.SetFloat(key, f)
	case KeySync:
		b, err := strconv.ParseBool(value)
		if err != nil {
			c.fail("core: %s: %v", key, err)
			return c
		}
		c.SetBool(key, b)
	default:
		c.failUnknown(key)
	}
	return c
}

// SetInt assigns an integer-valued key
// (job.setInt("mapred.iterjob.maxiter", n) in the paper).
func (c *JobConf) SetInt(key Key, v int) *JobConf {
	switch key {
	case KeyMaxIter:
		c.job.MaxIter = v
	case KeyNumTasks:
		c.job.NumTasks = v
	case KeyBuffer:
		c.job.BufferThreshold = v
	case KeyCheckpoint:
		c.job.CheckpointEvery = v
	default:
		c.fail("core: %q is not an integer key", key)
	}
	return c
}

// SetFloat assigns a float-valued key
// (job.setFloat("mapred.iterjob.disthresh", eps)).
func (c *JobConf) SetFloat(key Key, v float64) *JobConf {
	switch key {
	case KeyDistThresh:
		c.job.DistThreshold = v
	default:
		c.fail("core: %q is not a float key", key)
	}
	return c
}

// SetBool assigns a boolean key
// (job.setBoolean("mapred.iterjob.sync", true)).
func (c *JobConf) SetBool(key Key, v bool) *JobConf {
	switch key {
	case KeySync:
		c.job.SyncMap = v
	default:
		c.fail("core: %q is not a boolean key", key)
	}
	return c
}

// SetMap, SetReduce, SetCombine and SetDistance attach the user
// functions (the paper's map/reduce/distance interfaces).
func (c *JobConf) SetMap(fn MapFunc) *JobConf { c.job.Map = fn; return c }

// SetReduce attaches the reduce function.
func (c *JobConf) SetReduce(fn ReduceFunc) *JobConf { c.job.Reduce = fn; return c }

// SetCombine attaches the optional map-side combiner.
func (c *JobConf) SetCombine(fn func(key any, values []any) (any, error)) *JobConf {
	c.job.Combine = fn
	return c
}

// SetDistance attaches the distance measurement.
func (c *JobConf) SetDistance(fn DistFunc) *JobConf { c.job.Distance = fn; return c }

// SetOps attaches the key/value operations bundle.
func (c *JobConf) SetOps(ops kv.Ops) *JobConf { c.job.Ops = ops; return c }

// AddSuccessor chains another configured phase
// (job1.addSuccessor(job2), §5.2.2).
func (c *JobConf) AddSuccessor(next *JobConf) *JobConf {
	c.job.AddSuccessor(next.job)
	c.errs = append(c.errs, next.errs...)
	return c
}

// AddAuxiliary attaches an auxiliary phase with its master-side
// decision (job1.addAuxiliary(job2), §5.3.2).
func (c *JobConf) AddAuxiliary(aux *JobConf, decide func(iter int, outputs []kv.Pair) bool) *JobConf {
	c.job.AddAuxiliary(aux.job)
	c.job.AuxDecide = decide
	c.errs = append(c.errs, aux.errs...)
	return c
}

// Build returns the configured Job, or every configuration error
// collected so far, joined.
func (c *JobConf) Build() (*Job, error) {
	if len(c.errs) > 0 {
		return nil, errors.Join(c.errs...)
	}
	return c.job, nil
}
