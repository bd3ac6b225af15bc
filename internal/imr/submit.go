package imr

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"imapreduce/internal/core"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
)

// JobSpec names the work a Submit call runs. Exactly one field must be
// set: an iMapReduce iterative job (persistent tasks, static/state
// separation), a plain batch MapReduce job, or a baseline client-driven
// iterative chain (one MapReduce job per iteration).
type JobSpec struct {
	// Iterative is an iMapReduce job executed by the core engine.
	Iterative *core.Job
	// Batch is a plain MapReduce job executed by the baseline engine.
	Batch *mapreduce.Job
	// Chain is the baseline's iterative pattern: one job per iteration
	// plus convergence-check jobs, driven from the client.
	Chain *mapreduce.IterSpec
}

// kind classifies a validated spec.
type specKind int

const (
	specIterative specKind = iota
	specBatch
	specChain
)

func (s JobSpec) validate() (specKind, error) {
	set := 0
	kind := specIterative
	if s.Iterative != nil {
		set++
	}
	if s.Batch != nil {
		set++
		kind = specBatch
	}
	if s.Chain != nil {
		set++
		kind = specChain
	}
	if set != 1 {
		return 0, fmt.Errorf("imr: JobSpec must set exactly one of Iterative, Batch, Chain (got %d)", set)
	}
	return kind, nil
}

// Name returns the job's user-assigned name.
func (s JobSpec) Name() string {
	switch {
	case s.Iterative != nil:
		return s.Iterative.Name
	case s.Batch != nil:
		return s.Batch.Name
	case s.Chain != nil:
		return s.Chain.Name
	}
	return ""
}

// SubmitOptions carries per-submission options. The zero value is a
// plain foreground-priority run under the default tenant.
type SubmitOptions struct {
	// Tenant names the submitting tenant. The cluster itself treats it
	// as a label; the serve.Service uses it for fair-share scheduling,
	// quotas and DFS namespacing. Empty means "default".
	Tenant string
	// Priority orders jobs within one tenant's queue (higher first) when
	// the job goes through a serve.Service scheduler; a plain cluster
	// Submit starts the job immediately regardless.
	Priority int
	// Resume cold-restarts an Iterative job from its newest durable
	// checkpoint manifest instead of initializing from StatePath.
	Resume bool
	// Metrics, if set, receives this job's engine counters instead of
	// the cluster-wide set (the DFS keeps reporting into the cluster
	// set). Used by serve for per-job metric isolation.
	Metrics *metrics.Set
	// Trace, if set, receives this job's engine events instead of the
	// cluster-wide recorder.
	Trace *trace.Recorder
}

// JobStatus is a JobHandle's lifecycle state.
type JobStatus int

const (
	// StatusQueued: admitted by a scheduler but not yet running (plain
	// cluster Submits never report this; serve queues do).
	StatusQueued JobStatus = iota
	// StatusRunning: the job is executing on an engine.
	StatusRunning
	// StatusDone: finished successfully; Result carries the outcome.
	StatusDone
	// StatusFailed: finished with an error other than cancellation.
	StatusFailed
	// StatusCanceled: finished due to Cancel or context cancellation.
	StatusCanceled
)

func (s JobStatus) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	}
	return fmt.Sprintf("JobStatus(%d)", int(s))
}

// JobResult is the typed outcome of a submitted job; exactly the field
// matching the JobSpec kind is set.
type JobResult struct {
	Iterative *core.Result
	Batch     *mapreduce.JobResult
	Chain     *mapreduce.IterResult
}

// JobHandle tracks one submitted job. Handles are safe for concurrent
// use; Wait/Result may be called from any number of goroutines.
type JobHandle struct {
	spec JobSpec
	opts SubmitOptions

	cancel context.CancelCauseFunc
	done   chan struct{}

	mu     sync.Mutex
	status JobStatus
	res    *JobResult
	err    error
}

// Wait blocks until the job finishes or ctx is done. It returns the
// job's terminal error (nil on success); if ctx expires first it
// returns ctx.Err() and the job keeps running.
func (h *JobHandle) Wait(ctx context.Context) error {
	select {
	case <-h.done:
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel requests cancellation: the engine aborts the run at its next
// collection point and the job finishes with an error wrapping
// context.Canceled. Cancel on an already-finished handle is a no-op —
// the terminal status and result are never disturbed.
func (h *JobHandle) Cancel() {
	h.cancel(context.Canceled)
}

// Status reports the job's current lifecycle state.
func (h *JobHandle) Status() JobStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.status
}

// Result blocks until the job finishes and returns its typed outcome
// and terminal error. On error the result may be nil.
func (h *JobHandle) Result() (*JobResult, error) {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, h.err
}

// finish records the terminal state exactly once.
func (h *JobHandle) finish(res *JobResult, err error) {
	h.mu.Lock()
	h.res, h.err = res, err
	switch {
	case err == nil:
		h.status = StatusDone
	case errors.Is(err, context.Canceled):
		h.status = StatusCanceled
	default:
		h.status = StatusFailed
	}
	h.mu.Unlock()
	close(h.done)
}

// Submit starts the job described by spec and returns a handle to it
// without blocking. The ctx bounds the whole run: when it is done the
// engine aborts the job and the handle finishes with an error wrapping
// ctx's cause; canceling ctx with the cause core.ErrKilled emulates an
// engine crash, leaving the job's checkpoints for a later Resume.
// Concurrent Submits run concurrently, each on an engine of its own over
// the shared DFS, transport and spec, with one restriction: two active
// jobs cannot share a name, because a job's name namespaces its
// transport endpoints, checkpoints and manifests.
func (c *Cluster) Submit(ctx context.Context, spec JobSpec, opts SubmitOptions) (*JobHandle, error) {
	kind, err := spec.validate()
	if err != nil {
		return nil, err
	}
	if opts.Resume && kind != specIterative {
		return nil, fmt.Errorf("imr: Resume applies to Iterative jobs only")
	}
	name := spec.Name()
	if name == "" {
		return nil, fmt.Errorf("imr: job without a name")
	}
	if err := c.claimName(name); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	h := &JobHandle{
		spec: spec, opts: opts,
		cancel: cancel, done: make(chan struct{}),
		status: StatusRunning,
	}
	go func() {
		res, err := c.execute(runCtx, kind, spec, opts)
		cancel(nil)
		// Free the name before the handle reports the end: a caller that
		// waited may resubmit the job at once (a resume after a kill).
		c.releaseName(name)
		h.finish(res, err)
	}()
	return h, nil
}

// execute runs the job on an engine of its own, wired to the job's
// metrics and trace or else to the cluster's. An engine holds no more
// than its configuration, so one per run costs next to nothing, and no
// run ever finds its engine busy.
func (c *Cluster) execute(ctx context.Context, kind specKind, spec JobSpec, opts SubmitOptions) (*JobResult, error) {
	m := opts.Metrics
	if m == nil {
		m = c.Metrics
	}
	if kind == specIterative {
		o := c.coreOpts
		if opts.Trace != nil {
			o.Trace = opts.Trace
		}
		eng, err := core.NewEngine(c.FS, c.net, c.Spec, m, o)
		if err != nil {
			return nil, err
		}
		var res *core.Result
		if opts.Resume {
			res, err = eng.ResumeCtx(ctx, spec.Iterative)
		} else {
			res, err = eng.RunCtx(ctx, spec.Iterative)
		}
		if err != nil {
			return nil, err
		}
		return &JobResult{Iterative: res}, nil
	}
	o := c.mrOpts
	if opts.Trace != nil {
		o.Trace = opts.Trace
	}
	eng, err := mapreduce.NewEngine(c.FS, c.Spec, m, o)
	if err != nil {
		return nil, err
	}
	if kind == specBatch {
		res, err := eng.SubmitCtx(ctx, spec.Batch)
		if err != nil {
			return nil, err
		}
		return &JobResult{Batch: res}, nil
	}
	res, err := mapreduce.RunIterativeCtx(ctx, eng, *spec.Chain)
	if err != nil {
		return nil, err
	}
	return &JobResult{Chain: res}, nil
}

// claimName reserves a job name for the duration of its run.
func (c *Cluster) claimName(name string) error {
	c.namesMu.Lock()
	defer c.namesMu.Unlock()
	if c.activeNames[name] {
		return fmt.Errorf("imr: job %q is already active on this cluster", name)
	}
	c.activeNames[name] = true
	return nil
}

func (c *Cluster) releaseName(name string) {
	c.namesMu.Lock()
	delete(c.activeNames, name)
	c.namesMu.Unlock()
}
