package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trap-repro/trap/internal/admission"
	"github.com/trap-repro/trap/internal/telemetry"
)

// JobStatus is the lifecycle state of an async assessment job.
type JobStatus string

// Job lifecycle states: pending → running → done | failed | canceled.
// Jobs still queued when the server shuts down (or canceled via
// DELETE /v1/jobs/{id} before a worker picks them up) become canceled.
const (
	JobPending  JobStatus = "pending"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// terminal reports whether the status is a final state.
func (s JobStatus) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// validJobStatus reports whether s names a known lifecycle state (used
// to validate the ?status= list filter).
func validJobStatus(s JobStatus) bool {
	switch s {
	case JobPending, JobRunning, JobDone, JobFailed, JobCanceled:
		return true
	}
	return false
}

// JobResult is the outcome of a completed assessment job.
type JobResult struct {
	MeanIUDR     float64 `json:"meanIUDR"`
	Workloads    int     `json:"workloads"`
	Pairs        int     `json:"pairs"`
	NonSargable  int     `json:"nonSargable"`
	ElapsedMilli int64   `json:"elapsedMs"`
}

// Job is one async assessment request.
type Job struct {
	ID         string    `json:"id"`
	Status     JobStatus `json:"status"`
	Dataset    string    `json:"dataset"`
	Advisor    string    `json:"advisor"`
	Method     string    `json:"method"`
	Constraint string    `json:"constraint"`
	// Tenant is the quota identity the job was admitted under (the
	// X-Trap-Tenant header; "default" when absent).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the scheduling class ("interactive" or "batch").
	Priority string `json:"priority,omitempty"`
	Error    string `json:"error,omitempty"`
	// Stack holds the goroutine stack when the job failed on a panic.
	Stack string `json:"stack,omitempty"`
	// Resumed reports whether training continued from a spooled checkpoint.
	Resumed bool `json:"resumed,omitempty"`
	// Restored reports that the job was interrupted by a process death
	// and re-enqueued from the job log on restart.
	Restored bool `json:"restored,omitempty"`
	// TraceID links the job to its pipeline trace (GET /v1/traces/{id}),
	// set when the job starts running.
	TraceID  string     `json:"traceId,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// jobNum extracts N from a "job-N" ID, N a plain decimal (0 when
// malformed); it orders the list endpoint and anchors its cursor.
func jobNum(id string) int64 {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(rest, 10, 63)
	if err != nil {
		return 0
	}
	return int64(n)
}

// priority maps the job's stored class name back to the scheduler class.
func (j *Job) priority() admission.Priority {
	p, err := admission.ParsePriority(j.Priority)
	if err != nil {
		return admission.Batch
	}
	return p
}

// jobEntry is everything the server holds for one job: the job itself,
// its SSE progress stream, its telemetry series and, while it runs, the
// cancel function of its run. hub and scope are fixed at creation (and
// safe for concurrent use on their own); job and cancel are guarded by
// the store's lock.
type jobEntry struct {
	job    Job
	cancel context.CancelFunc // non-nil while the job runs
	hub    *jobHub
	scope  *telemetry.Scope
}

// jobStore is the concurrency-safe job table: one entry per live job.
type jobStore struct {
	mu   sync.Mutex
	next atomic.Int64
	jobs map[string]*jobEntry
}

func newJobStore() *jobStore {
	return &jobStore{jobs: map[string]*jobEntry{}}
}

// add registers an entry for j, its stream opened at j's state.
func (s *jobStore) add(j Job) {
	e := &jobEntry{job: j, hub: newJobHub(), scope: telemetry.NewScope()}
	e.hub.publishState(j)
	s.mu.Lock()
	s.jobs[j.ID] = e
	s.mu.Unlock()
}

// create registers a new pending job from the template (dataset,
// advisor, method, constraint, tenant, priority) and returns a snapshot.
func (s *jobStore) create(tpl Job) Job {
	tpl.ID = fmt.Sprintf("job-%d", s.next.Add(1))
	tpl.Status = JobPending
	tpl.Created = time.Now()
	s.add(tpl)
	return tpl
}

// restore inserts a replayed job under its original ID and keeps the ID
// sequence strictly ahead of every restored ID, so new submissions
// never collide with replayed ones. A terminal job's stream is already
// complete.
func (s *jobStore) restore(j Job) {
	if n := jobNum(j.ID); n > 0 {
		for {
			cur := s.next.Load()
			if cur >= n || s.next.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	s.add(j)
}

// get returns a snapshot of the job, if it exists.
func (s *jobStore) get(id string) (Job, bool) {
	j, e := s.entry(id)
	return j, e != nil
}

// entry returns a snapshot of the job with its entry, for the entry's
// stream and series (nil when the job is unknown).
func (s *jobStore) entry(id string) (Job, *jobEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return Job{}, nil
	}
	return e.job, e
}

// update applies fn to the job under the store lock.
func (s *jobStore) update(id string, fn func(*Job)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.jobs[id]; ok {
		fn(&e.job)
	}
}

// start moves a pending job to running and registers cancel for it in
// one step, so DELETE sees either a pending job or a cancelable one.
// It reports false when the job is no longer pending (canceled while
// queued): there is nothing to run.
func (s *jobStore) start(id string, cancel context.CancelFunc) (Job, *jobEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok || e.job.Status != JobPending {
		return Job{}, nil, false
	}
	now := time.Now()
	e.job.Status = JobRunning
	e.job.Started = &now
	e.cancel = cancel
	return e.job, e, true
}

// finish applies fn, the job's terminal transition, under the store
// lock and drops the run's cancel function.
func (s *jobStore) finish(id string, fn func(*Job)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.jobs[id]; ok {
		fn(&e.job)
		e.cancel = nil
	}
}

// cancel is DELETE /v1/jobs/{id}: a pending job becomes canceled at once
// (canceledNow; the worker skips it on dequeue), a running one has its
// run's context canceled and stops at its next epoch, workload or pair
// boundary, and a terminal one is left as it is. It returns the job's
// snapshot, and ok false for an unknown job.
func (s *jobStore) cancel(id string) (j Job, canceledNow, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return Job{}, false, false
	}
	switch {
	case e.job.Status == JobPending:
		now := time.Now()
		e.job.Status = JobCanceled
		e.job.Error = "canceled before start"
		e.job.Finished = &now
		canceledNow = true
	case e.cancel != nil:
		e.cancel()
	}
	return e.job, canceledNow, true
}

// list snapshots every live job, ordered by ascending job number (the
// stable order the list endpoint paginates over).
func (s *jobStore) list() []Job {
	s.mu.Lock()
	out := make([]Job, 0, len(s.jobs))
	for _, e := range s.jobs {
		out = append(out, e.job)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return jobNum(out[i].ID) < jobNum(out[k].ID) })
	return out
}

// countByStatus tallies jobs per status.
func (s *jobStore) countByStatus() map[JobStatus]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[JobStatus]int{}
	for _, e := range s.jobs {
		out[e.job.Status]++
	}
	return out
}

// size returns the number of jobs currently held (the live-job gauge).
func (s *jobStore) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// remove deletes the job's entry and ends its stream.
func (s *jobStore) remove(id string) {
	s.mu.Lock()
	e, ok := s.jobs[id]
	delete(s.jobs, id)
	s.mu.Unlock()
	if ok {
		e.hub.closeHub()
	}
}

// gc removes terminal jobs that finished more than ttl ago and returns
// their IDs so the caller can drop them from the job log too. It skips
// a job whose stream has not ended yet: the server ends it only after
// the terminal state is in the job log. Running and pending jobs are
// never collected.
func (s *jobStore) gc(ttl time.Duration, now time.Time) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dropped []string
	for id, e := range s.jobs {
		if !e.job.Status.terminal() || e.job.Finished == nil || !e.hub.ended() {
			continue
		}
		if now.Sub(*e.job.Finished) >= ttl {
			delete(s.jobs, id)
			dropped = append(dropped, id)
		}
	}
	return dropped
}

// Typed submission failures: handlers translate these into 503s with a
// Retry-After hint instead of silently dropping the job.
var (
	// ErrQueueFull means the pending-job queue is at capacity.
	ErrQueueFull = errors.New("job queue full")
	// ErrPoolClosed means the pool stopped intake (server shutting down).
	ErrPoolClosed = errors.New("worker pool is shut down")
)

// workerPool runs jobs on a bounded set of goroutines over a bounded
// two-class priority queue: interactive submissions are dequeued before
// batch ones, FIFO within a class, with one shared depth bound across
// both. Shutdown stops intake, cancels still-queued jobs and waits for
// in-flight jobs to drain.
type workerPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [admission.NumPriorities][]string
	depth  int
	// reserved counts slots held by reserve and not yet filled by
	// enqueue; they count against depth like queued jobs.
	reserved int
	closed   bool
	wg       sync.WaitGroup
}

// newWorkerPool starts n workers pulling job IDs off the priority queue
// (total depth as given) and handing them to run.
func newWorkerPool(n, depth int, run func(id string)) *workerPool {
	p := &workerPool{depth: depth}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				id, ok := p.next()
				if !ok {
					return
				}
				run(id)
			}
		}()
	}
	return p
}

// next blocks until a job is available (highest priority class first)
// or the pool is shut down.
func (p *workerPool) next() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for pri := admission.NumPriorities - 1; pri >= 0; pri-- {
			if q := p.queues[pri]; len(q) > 0 {
				id := q[0]
				p.queues[pri] = q[1:]
				return id, true
			}
		}
		if p.closed {
			return "", false
		}
		p.cond.Wait()
	}
}

// submit enqueues a job ID at the given priority, or reports why it
// cannot: ErrQueueFull when the shared queue is at capacity,
// ErrPoolClosed when intake has stopped.
func (p *workerPool) submit(id string, pri admission.Priority) error {
	if err := p.reserve(); err != nil {
		return err
	}
	return p.enqueue(id, pri)
}

// reserve holds one queue slot for a job not yet created, or reports
// why it cannot, as submit does. Every successful reserve must be
// followed by one enqueue.
func (p *workerPool) reserve() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if p.queuedLocked()+p.reserved >= p.depth {
		return ErrQueueFull
	}
	p.reserved++
	return nil
}

// enqueue fills a slot taken by reserve with a job ID. It fails only
// with ErrPoolClosed, when shutdown began after the reservation.
func (p *workerPool) enqueue(id string, pri admission.Priority) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reserved--
	if p.closed {
		return ErrPoolClosed
	}
	p.queues[pri] = append(p.queues[pri], id)
	p.cond.Signal()
	return nil
}

// queued returns how many jobs wait in the queue (all classes).
func (p *workerPool) queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queuedLocked()
}

func (p *workerPool) queuedLocked() int {
	n := 0
	for _, q := range p.queues {
		n += len(q)
	}
	return n
}

// shutdown stops intake and waits — up to ctx's deadline — for the
// workers to drain in-flight jobs. Job IDs still queued (never started)
// are returned so the caller can mark them canceled.
func (p *workerPool) shutdown(ctx context.Context) (canceled []string) {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		// Drain never-started jobs so workers exit after finishing only
		// what they already picked up.
		for pri := admission.NumPriorities - 1; pri >= 0; pri-- {
			canceled = append(canceled, p.queues[pri]...)
			p.queues[pri] = nil
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	return canceled
}
