package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"imapreduce/internal/imr"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
)

// Job is the service-side handle for one admitted job. It mirrors
// imr.JobHandle but adds the queued state, the tenant identity, and the
// dispatch ordinal the fairness tests read. Safe for concurrent use.
type Job struct {
	id     string
	name   string // namespaced run name: tenants/<tenant>/<seq>-<orig>
	tenant string
	seq    int64
	prio   int
	spec   imr.JobSpec // namespaced clone
	opts   imr.SubmitOptions
	svc    *Service

	runCtx    context.Context
	cancel    context.CancelCauseFunc
	metrics   *metrics.Set
	tr        *trace.Recorder
	submitted time.Time

	done chan struct{}

	mu     sync.Mutex
	status imr.JobStatus
	dseq   int // dispatch ordinal; -1 until dispatched
	res    *imr.JobResult
	err    error
}

// newJob builds the queued handle: the spec is cloned under the
// tenant namespace and the options are rewritten for per-job isolation
// (own metrics set, optionally own trace recorder).
func (s *Service) newJob(ctx context.Context, tenant string, seq int64, spec imr.JobSpec, opts imr.SubmitOptions) *Job {
	ns := fmt.Sprintf("tenants/%s/%06d-%s", tenant, seq, spec.Name())
	opts.Tenant = tenant
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewSet()
	}
	if opts.Trace == nil && s.cfg.JobTraceEvents > 0 {
		opts.Trace = trace.NewRecorder(s.cfg.JobTraceEvents)
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	return &Job{
		id:        fmt.Sprintf("%s/%d", tenant, seq),
		name:      ns,
		tenant:    tenant,
		seq:       seq,
		prio:      opts.Priority,
		spec:      namespaceSpec(spec, ns),
		opts:      opts,
		svc:       s,
		runCtx:    runCtx,
		cancel:    cancel,
		metrics:   opts.Metrics,
		tr:        opts.Trace,
		submitted: time.Now(),
		done:      make(chan struct{}),
		status:    imr.StatusQueued,
		dseq:      -1,
	}
}

// ID returns the service-assigned job id ("<tenant>/<seq>").
func (j *Job) ID() string { return j.id }

// Tenant returns the tenant the job was admitted under.
func (j *Job) Tenant() string { return j.tenant }

// Name returns the namespaced run name the job executes under; its
// run artifacts live at /_imr/<Name()>/.
func (j *Job) Name() string { return j.name }

// Metrics returns the job's private metrics set (also folded into the
// service set under "tenant.<tenant>." once the job finishes).
func (j *Job) Metrics() *metrics.Set { return j.metrics }

// Trace returns the job's private trace recorder (nil unless
// Config.JobTraceEvents > 0 or the submitter supplied one).
func (j *Job) Trace() *trace.Recorder { return j.tr }

// Status reports the job's current lifecycle state, starting at
// imr.StatusQueued.
func (j *Job) Status() imr.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// DispatchSeq returns the service-wide ordinal at which the scheduler
// dispatched this job (1-based), or -1 if it never left the queue.
func (j *Job) DispatchSeq() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dseq
}

// Wait blocks until the job finishes or ctx is done; it returns the
// job's terminal error (nil on success), or ctx.Err() if ctx expires
// first (the job keeps running).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result blocks until the job finishes and returns its typed outcome
// and terminal error.
func (j *Job) Result() (*imr.JobResult, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.err
}

// Cancel cancels the job. A queued job finishes immediately as
// StatusCanceled without ever running; a running job is aborted through
// its engine and finishes with an error wrapping context.Canceled.
// Cancel on an already-finished job is a documented no-op: the terminal
// status and result are never disturbed.
func (j *Job) Cancel() {
	if j.cancelQueued(fmt.Errorf("serve: job %s canceled while queued: %w", j.id, context.Canceled)) {
		j.svc.unqueue(j)
		j.svc.settle(j)
		return
	}
	j.cancel(context.Canceled)
}

// cancelQueued records a still-queued job as canceled; it reports
// whether this call performed the transition (false if the job already
// left the queued state). The caller settles the job.
func (j *Job) cancelQueued(err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != imr.StatusQueued {
		return false
	}
	j.status = imr.StatusCanceled
	j.err = err
	return true
}

// markRunning moves queued→running at dispatch; false means the job was
// canceled between dequeue and dispatch and must not run.
func (j *Job) markRunning(dseq int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != imr.StatusQueued {
		return false
	}
	j.status = imr.StatusRunning
	j.dseq = dseq
	return true
}

// finishRun records the terminal state of a job that was dispatched. The
// caller settles the job.
func (j *Job) finishRun(res *imr.JobResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.res, j.err = res, err
	switch {
	case err == nil:
		j.status = imr.StatusDone
	case errors.Is(err, context.Canceled):
		j.status = imr.StatusCanceled
	default:
		j.status = imr.StatusFailed
	}
}
