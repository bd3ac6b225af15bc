// Package serve is the multi-tenant job service: a long-lived front
// door that admits, queues, schedules and isolates many concurrent
// iterative (and batch) jobs over one imr.Cluster.
//
// The paper's engine runs one job at a time; serving sustained traffic
// from many users needs three more layers, which this package adds:
//
//   - Admission control: a bounded global queue plus per-tenant quotas
//     on queued jobs, concurrent jobs and DFS bytes. Rejections are
//     typed (ErrQueueFull, ErrQuotaExceeded) so callers can shed load
//     or retry.
//   - Fair-share scheduling: a single scheduler goroutine allocates a
//     fixed number of run slots across tenants by smooth weighted
//     round-robin; within a tenant, higher-priority jobs dequeue first
//     (FIFO among equals).
//   - Isolation: every admitted job is renamed into
//     "tenants/<tenant>/<seq>-<name>", which namespaces its transport
//     endpoints, checkpoints and manifests (/_imr/tenants/<tenant>/...)
//     away from every other job; each job gets its own metrics.Set
//     (folded into the service set under a "tenant.<tenant>." prefix at
//     completion) and, optionally, its own trace.Recorder.
//   - Retention: a run's namespace lives as long as the job. A Done
//     run's is deleted before its handle completes, all but its output;
//     a failed or canceled run's is kept for Resume, up to Slots a tenant.
//
// Execution itself is delegated to imr.Cluster.Submit, which builds an
// engine per run over the shared DFS, transport and cluster spec.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"imapreduce/internal/core"
	"imapreduce/internal/imr"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
)

// Typed admission rejections. Both are permanent for the submission
// that received them (nothing was enqueued).
var (
	// ErrQueueFull: the service-wide bounded queue is at QueueLimit.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrQuotaExceeded: a per-tenant quota (queued jobs or DFS bytes)
	// would be exceeded.
	ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")
	// ErrClosed: the service is shut down.
	ErrClosed = errors.New("serve: service closed")
)

// DefaultTenant is the tenant label applied when SubmitOptions.Tenant
// is empty.
const DefaultTenant = "default"

// Quota bounds one tenant. The zero value means: weight 1, queued jobs
// bounded only by the global QueueLimit, concurrent jobs bounded only
// by Slots, no DFS byte cap.
type Quota struct {
	// Weight is the tenant's fair share: under contention a tenant with
	// weight 2 is dispatched twice as often as one with weight 1.
	// <= 0 means 1.
	Weight int
	// MaxQueued caps the tenant's queued (admitted, not yet running)
	// jobs; 0 = unlimited (within QueueLimit).
	MaxQueued int
	// MaxConcurrent caps the tenant's simultaneously running jobs;
	// 0 = unlimited (within Slots).
	MaxConcurrent int
	// MaxDFSBytes caps the bytes stored under the tenant's DFS
	// namespaces (TenantRoot plus the run-artifact namespace
	// /_imr/tenants/<tenant>/); checked at admission. 0 = unlimited.
	MaxDFSBytes int64
}

func (q Quota) weight() int {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// Config assembles a Service.
type Config struct {
	// Cluster executes the jobs. Required.
	Cluster *imr.Cluster
	// Slots is the number of jobs the scheduler runs concurrently
	// (default 4).
	Slots int
	// QueueLimit bounds the total queued jobs across all tenants
	// (default 64); admissions beyond it fail with ErrQueueFull.
	QueueLimit int
	// Tenants assigns per-tenant quotas; tenants not listed get the
	// zero Quota.
	Tenants map[string]Quota
	// Trace, if set, receives serve.* lifecycle events.
	Trace *trace.Recorder
	// JobTraceEvents, if > 0, gives every job its own trace.Recorder
	// with that ring capacity (Job.Trace returns it).
	JobTraceEvents int
}

// TenantRoot is the DFS directory conventionally owned by a tenant;
// MaxDFSBytes accounts it (together with /_imr/tenants/<tenant>/, where
// the engine keeps run artifacts of namespaced jobs).
func TenantRoot(tenant string) string { return "/tenants/" + tenant }

// Service is the long-lived multi-tenant job service. All methods are
// safe for concurrent use.
type Service struct {
	cfg     Config
	cluster *imr.Cluster
	m       *metrics.Set // the cluster's: service counters and folded per-job counters
	tr      *trace.Recorder
	seq     atomic.Int64

	// kick wakes the scheduler goroutine; buffered so producers never
	// block (a lost kick is fine — one is already pending).
	kick    chan struct{}
	closeCh chan struct{}
	wg      sync.WaitGroup

	mu          sync.Mutex
	closed      bool
	queues      map[string][]*Job // per-tenant, priority-desc FIFO
	order       []string          // sorted tenant iteration order
	queued      int
	running     map[string]int
	runningSet  map[*Job]struct{}
	runningN    int
	credit      map[string]int // smooth-WRR state
	dispatchSeq int
	kept        map[string][]*core.Job // per tenant: failed and canceled runs whose namespace is kept, oldest first
}

// New starts a Service over cfg.Cluster. Close releases it.
func New(cfg Config) (*Service, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("serve: Config.Cluster is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 4
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	s := &Service{
		cfg:        cfg,
		cluster:    cfg.Cluster,
		m:          cfg.Cluster.Metrics,
		tr:         cfg.Trace,
		kick:       make(chan struct{}, 1),
		closeCh:    make(chan struct{}),
		queues:     make(map[string][]*Job),
		running:    make(map[string]int),
		runningSet: make(map[*Job]struct{}),
		credit:     make(map[string]int),
		kept:       make(map[string][]*core.Job),
	}
	s.wg.Add(1)
	go s.schedule()
	return s, nil
}

// quotaFor resolves tenant's quota.
func (s *Service) quotaFor(tenant string) Quota { return s.cfg.Tenants[tenant] }

// TenantUsage reports the bytes tenant currently stores in its
// accounted DFS namespaces: TenantRoot(tenant) and the run-artifact
// namespace /_imr/tenants/<tenant>/ (what running jobs have written, the
// runs kept for Resume, default outputs of namespaced runs).
func (s *Service) TenantUsage(tenant string) int64 {
	fs := s.cluster.FS
	return fs.DirBytes(TenantRoot(tenant)) + fs.DirBytes("/_imr/tenants/"+tenant)
}

// Submit admits one job into tenant's queue and returns its handle
// without blocking on execution. Admission is synchronous: a full queue
// returns ErrQueueFull, an exceeded tenant quota ErrQuotaExceeded, a
// closed service ErrClosed — in each case nothing was enqueued.
//
// The job is renamed into the tenant's namespace
// ("tenants/<tenant>/<seq>-<name>") before execution, so concurrent
// jobs — even resubmissions of the same definition — never share
// transport endpoints, checkpoints or manifests. ctx bounds the whole
// job: queued jobs whose ctx dies are dropped at dispatch time.
func (s *Service) Submit(ctx context.Context, spec imr.JobSpec, opts imr.SubmitOptions) (*Job, error) {
	if err := checkSpec(spec); err != nil {
		return nil, err
	}
	tenant := opts.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	if strings.ContainsAny(tenant, "/ ") {
		return nil, fmt.Errorf("serve: invalid tenant name %q", tenant)
	}
	q := s.quotaFor(tenant)
	if q.MaxDFSBytes > 0 && s.TenantUsage(tenant) >= q.MaxDFSBytes {
		s.m.Add(metrics.ServeRejectedQuota, 1)
		s.tr.Emit(trace.KindServeReject, tenant, -1, 0,
			trace.Attr{Key: "reason", Value: "dfs-bytes"})
		return nil, fmt.Errorf("serve: tenant %s is over its DFS byte quota (%d bytes): %w",
			tenant, q.MaxDFSBytes, ErrQuotaExceeded)
	}

	seq := s.seq.Add(1)
	j := s.newJob(ctx, tenant, seq, spec, opts)

	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return nil, ErrClosed
	case s.queued >= s.cfg.QueueLimit:
		s.mu.Unlock()
		s.m.Add(metrics.ServeRejectedQueue, 1)
		s.tr.Emit(trace.KindServeReject, tenant, -1, 0,
			trace.Attr{Key: "reason", Value: "queue-full"})
		return nil, fmt.Errorf("serve: %d jobs queued (limit %d): %w",
			s.queued, s.cfg.QueueLimit, ErrQueueFull)
	case q.MaxQueued > 0 && len(s.queues[tenant]) >= q.MaxQueued:
		s.mu.Unlock()
		s.m.Add(metrics.ServeRejectedQuota, 1)
		s.tr.Emit(trace.KindServeReject, tenant, -1, 0,
			trace.Attr{Key: "reason", Value: "max-queued"})
		return nil, fmt.Errorf("serve: tenant %s has %d jobs queued (quota %d): %w",
			tenant, len(s.queues[tenant]), q.MaxQueued, ErrQuotaExceeded)
	}
	if _, known := s.queues[tenant]; !known {
		i := sort.SearchStrings(s.order, tenant)
		s.order = append(s.order, "")
		copy(s.order[i+1:], s.order[i:])
		s.order[i] = tenant
	}
	// Insert after the last job of >= priority: priority-descending,
	// FIFO among equals.
	tq := s.queues[tenant]
	i := len(tq)
	for i > 0 && tq[i-1].prio < j.prio {
		i--
	}
	tq = append(tq, nil)
	copy(tq[i+1:], tq[i:])
	tq[i] = j
	s.queues[tenant] = tq
	s.queued++
	s.mu.Unlock()

	s.m.Add(metrics.ServeSubmitted, 1)
	s.tr.Emit(trace.KindServeSubmit, tenant, -1, 0,
		trace.Attr{Key: "job", Value: j.name})
	s.kickSched()
	return j, nil
}

// checkSpec mirrors imr's exactly-one validation at admission time, so
// malformed specs fail the Submit call instead of the queued job.
func checkSpec(spec imr.JobSpec) error {
	set := 0
	for _, ok := range []bool{spec.Iterative != nil, spec.Batch != nil, spec.Chain != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("serve: JobSpec must set exactly one of Iterative, Batch, Chain (got %d)", set)
	}
	if spec.Name() == "" {
		return fmt.Errorf("serve: job without a name")
	}
	return nil
}

// namespaceSpec clones the spec's root job with the namespaced name.
// Only the root name matters: it prefixes every transport endpoint
// address, the /_imr/<name>/ checkpoint+manifest namespace, and the
// engine's default output path.
func namespaceSpec(spec imr.JobSpec, ns string) imr.JobSpec {
	switch {
	case spec.Iterative != nil:
		j := *spec.Iterative
		j.Name = ns
		return imr.JobSpec{Iterative: &j}
	case spec.Batch != nil:
		j := *spec.Batch
		j.Name = ns
		return imr.JobSpec{Batch: &j}
	default:
		j := *spec.Chain
		j.Name = ns
		return imr.JobSpec{Chain: &j}
	}
}

// kickSched wakes the scheduler; never blocks.
func (s *Service) kickSched() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Stats is a point-in-time occupancy snapshot.
type Stats struct {
	Queued  int
	Running int
	Slots   int
}

// Stats reports current queue and slot occupancy.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Queued: s.queued, Running: s.runningN, Slots: s.cfg.Slots}
}

// Close shuts the service down: queued jobs finish as canceled, running
// jobs are canceled through their engines, and Close returns once the
// scheduler and every runner goroutine have exited. Further Submits
// fail with ErrClosed. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var queued []*Job
	for t, q := range s.queues {
		queued = append(queued, q...)
		s.queues[t] = nil
	}
	s.queued = 0
	var active []*Job
	for j := range s.runningSet {
		active = append(active, j)
	}
	s.mu.Unlock()

	close(s.closeCh)
	for _, j := range queued {
		if j.cancelQueued(fmt.Errorf("serve: job %s dropped: %w: %w", j.id, ErrClosed, context.Canceled)) {
			s.settle(j)
		}
	}
	for _, j := range active {
		j.cancel(context.Canceled)
	}
	s.wg.Wait()
}

// settle does a job's terminal accounting once its status and result are
// recorded, and then completes its handle: the service counters, the
// job's private metrics folded into the service set, its run namespace
// retired, its run slot released, and only then done closed — so whoever
// returns from Wait or Result already sees all of it.
func (s *Service) settle(j *Job) {
	status := j.Status()
	switch status {
	case imr.StatusDone:
		s.m.Add(metrics.ServeCompleted, 1)
	case imr.StatusCanceled:
		s.m.Add(metrics.ServeCanceled, 1)
	default:
		s.m.Add(metrics.ServeFailed, 1)
	}
	if j.metrics != nil {
		prefix := "tenant." + j.tenant + "."
		for name, v := range j.metrics.Snapshot() {
			s.m.Add(prefix+name, v)
		}
	}
	s.tr.Emit(trace.KindServeDone, j.tenant, -1, 0,
		trace.Attr{Key: "job", Value: j.name},
		trace.Attr{Key: "status", Value: status.String()})
	// Retention: a Done run's namespace goes now; a failed or canceled
	// run's stays, and the tenant's oldest kept one goes in its place.
	// Only a dispatched Iterative run has a namespace.
	if run := j.spec.Iterative; run != nil && j.DispatchSeq() >= 0 {
		if status != imr.StatusDone {
			run = s.keep(j.tenant, run)
		}
		s.deleteRun(run)
	}
	s.releaseSlot(j)
	close(j.done)
	s.kickSched()
}

// keep records a failed or canceled run whose namespace stays, so that
// cluster.Submit with Resume can restart it from its newest manifest. A
// tenant keeps the newest Slots such runs: keep returns the oldest once
// there are more, for deletion, and nil otherwise.
func (s *Service) keep(tenant string, run *core.Job) *core.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := append(s.kept[tenant], run)
	var oldest *core.Job
	if len(kept) > s.cfg.Slots {
		oldest = kept[0]
		kept = append(kept[:0], kept[1:]...)
	}
	s.kept[tenant] = kept
	return oldest
}

// deleteRun deletes run's namespace, /_imr/<name>/ — its static
// partitions, checkpoints and manifests were for that run alone — except
// the files under its output directory. A nil run deletes nothing.
func (s *Service) deleteRun(run *core.Job) {
	if run == nil {
		return
	}
	fs := s.cluster.FS
	out := run.OutputDir() + "/"
	for _, p := range fs.List("/_imr/" + run.Name + "/") {
		if !strings.HasPrefix(p, out) {
			fs.Delete(p)
		}
	}
}
