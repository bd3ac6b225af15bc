package serve

import (
	"strconv"
	"time"

	"imapreduce/internal/imr"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
)

// schedule is the scheduler goroutine: it sleeps until kicked (by a
// Submit, a job completion, or an unqueue) and then dispatches queued
// jobs into free slots until none remain eligible.
func (s *Service) schedule() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closeCh:
			return
		case <-s.kick:
		}
		for {
			s.mu.Lock()
			j, dseq := s.nextLocked()
			s.mu.Unlock()
			if j == nil {
				break
			}
			s.dispatch(j, dseq)
		}
	}
}

// nextLocked picks the next job to dispatch, or nil when no slot is
// free or no tenant is eligible. Caller holds s.mu.
//
// Tenant choice is smooth weighted round-robin: every eligible tenant
// (non-empty queue, under its MaxConcurrent) earns its weight in
// credit; the richest tenant (ties broken by the sorted tenant order,
// so deterministically) dispatches and pays the total weight back.
// Over any window the dispatch counts converge to the weight ratios,
// without the bursts plain WRR produces. Within a tenant the queue is
// already priority-descending FIFO, so the head is the right job.
func (s *Service) nextLocked() (*Job, int) {
	if s.closed || s.runningN >= s.cfg.Slots {
		return nil, 0
	}
	eligible := make([]string, 0, len(s.order))
	total := 0
	for _, t := range s.order {
		if len(s.queues[t]) == 0 {
			continue
		}
		q := s.quotaFor(t)
		if q.MaxConcurrent > 0 && s.running[t] >= q.MaxConcurrent {
			continue
		}
		eligible = append(eligible, t)
		total += q.weight()
	}
	if len(eligible) == 0 {
		return nil, 0
	}
	best := ""
	for _, t := range eligible {
		s.credit[t] += s.quotaFor(t).weight()
		if best == "" || s.credit[t] > s.credit[best] {
			best = t
		}
	}
	s.credit[best] -= total

	q := s.queues[best]
	j := q[0]
	s.queues[best] = q[1:]
	s.queued--
	s.running[best]++
	s.runningN++
	s.runningSet[j] = struct{}{}
	s.dispatchSeq++
	return j, s.dispatchSeq
}

// dispatch moves one dequeued job into a slot and starts its runner.
// A job canceled between dequeue and dispatch releases the slot
// immediately.
func (s *Service) dispatch(j *Job, dseq int) {
	if !j.markRunning(dseq) {
		s.releaseSlot(j)
		return
	}
	s.m.Add(metrics.ServeDispatched, 1)
	s.m.AddSpan(metrics.ServeQueueWait, time.Since(j.submitted))
	s.tr.Emit(trace.KindServeDispatch, j.tenant, -1, 0,
		trace.Attr{Key: "job", Value: j.name},
		trace.Attr{Key: "seq", Value: strconv.Itoa(dseq)})
	s.wg.Add(1)
	go s.runJob(j)
}

// runJob executes one dispatched job to completion on the cluster, then
// settles it (which releases its slot and wakes the scheduler).
func (s *Service) runJob(j *Job) {
	defer s.wg.Done()
	inner, err := s.cluster.Submit(j.runCtx, j.spec, j.opts)
	var res *imr.JobResult
	if err == nil {
		res, err = inner.Result()
	}
	j.finishRun(res, err)
	s.settle(j)
}

// releaseSlot returns j's run slot if it still holds one. A job canceled
// between dequeue and dispatch is released by whichever of its Cancel
// and the dispatch gets there first, so this must be idempotent.
func (s *Service) releaseSlot(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.runningSet[j]; ok {
		delete(s.runningSet, j)
		s.running[j.tenant]--
		s.runningN--
	}
}

// unqueue removes a job canceled while queued from its tenant queue
// (no-op if the scheduler dequeued it concurrently).
func (s *Service) unqueue(j *Job) {
	s.mu.Lock()
	q := s.queues[j.tenant]
	for i, x := range q {
		if x == j {
			s.queues[j.tenant] = append(q[:i], q[i+1:]...)
			s.queued--
			break
		}
	}
	s.mu.Unlock()
}
