package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/admission"
	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/obs"
)

// newFaultServer builds a dedicated (non-shared) server so fault rules
// and metric assertions cannot interfere with the other service tests.
func newFaultServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Datasets:       []string{"tpch"},
		Params:         tinyParams(),
		Seed:           23,
		Workers:        2,
		QueueDepth:     4,
		RequestTimeout: 30 * time.Second,
		JobTimeout:     2 * time.Minute,
		Registry:       obs.NewRegistry(),
		Logger:         discardLogger(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// submitJob posts an assessment and returns the accepted job.
func submitJob(t *testing.T, h http.Handler, advisor, method string) Job {
	t.Helper()
	code, body := postJSON(t, h, "/v1/assess", assessRequest{
		Dataset: "tpch", Advisor: advisor, Method: method,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit %s/%s: %d %s", advisor, method, code, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	return j
}

// pollTerminal waits for a job to reach any terminal state (unlike
// waitForJob, which fails the test on failed/canceled).
func pollTerminal(t *testing.T, h http.Handler, id string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := getPath(t, h, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job poll: %d %s", code, body)
		}
		var j Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if j.Status.terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func deletePath(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", path, nil))
	return rec.Code, rec.Body.Bytes()
}

func metricAtLeast(t *testing.T, h http.Handler, name string, min float64) {
	t.Helper()
	_, body := getPath(t, h, "/metrics")
	v, ok := metricValue(body, name)
	if !ok {
		t.Errorf("metrics missing %s", name)
	} else if v < min {
		t.Errorf("metric %s = %g, want >= %g", name, v, min)
	}
}

// TestJobPanicIsolation injects a panic into one job's RL training and
// verifies the job is marked failed with a stack trace while a sibling
// job and the worker itself survive.
func TestJobPanicIsolation(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLEpoch, Action: faultinject.ActPanic, Every: 1, Count: 1,
		})
	})
	h := s.Handler()

	// Only the GRU job RL-trains, so only it can hit the panic point.
	crash := submitJob(t, h, "Drop", "GRU")
	sibling := submitJob(t, h, "Drop", "Random")

	failed := pollTerminal(t, h, crash.ID, time.Minute)
	if failed.Status != JobFailed {
		t.Fatalf("panicking job ended %s (%s), want failed", failed.Status, failed.Error)
	}
	if !strings.Contains(failed.Error, "panic") {
		t.Errorf("panic job error %q does not mention the panic", failed.Error)
	}
	if !strings.Contains(failed.Stack, "goroutine") {
		t.Errorf("panic job carries no stack trace: %q", failed.Stack)
	}

	ok := pollTerminal(t, h, sibling.ID, time.Minute)
	if ok.Status != JobDone {
		t.Fatalf("sibling job ended %s (%s), want done", ok.Status, ok.Error)
	}

	// The rule is exhausted and the worker survived the panic: the same
	// kind of job now completes.
	again := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if again.Status != JobDone {
		t.Fatalf("post-panic job ended %s (%s), want done", again.Status, again.Error)
	}

	metricAtLeast(t, h, "trapd_job_panics_total", 1)
	metricAtLeast(t, h, "trapd_jobs_failed_total", 1)
}

// TestJobInjectedErrorFails checks that a job runs once: one injected
// error fails it, and once the rule is spent a resubmission completes.
func TestJobInjectedErrorFails(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLEpoch, Action: faultinject.ActError, Every: 1, Count: 1,
		})
	})
	h := s.Handler()

	j := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if j.Status != JobFailed || !strings.Contains(j.Error, "injected error at "+faultinject.PointRLEpoch) {
		t.Fatalf("job ended %s (%s), want failed on the injected error", j.Status, j.Error)
	}
	metricAtLeast(t, h, "trapd_jobs_failed_total", 1)

	again := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if again.Status != JobDone {
		t.Fatalf("resubmitted job ended %s (%s), want done", again.Status, again.Error)
	}
}

// peakGate is an Injector that sleeps every assessment reaching an RL
// workload for 300ms and records how many were inside the sleep at once.
type peakGate struct {
	mu           sync.Mutex
	inside, peak int
	entered      chan struct{} // signaled (without blocking) on each entry
}

func (g *peakGate) Fire(point string) error {
	if point != faultinject.PointRLWorkload {
		return nil
	}
	g.mu.Lock()
	g.inside++
	g.peak = max(g.peak, g.inside)
	g.mu.Unlock()
	select {
	case g.entered <- struct{}{}:
	default:
	}
	time.Sleep(300 * time.Millisecond)
	g.mu.Lock()
	g.inside--
	g.mu.Unlock()
	return nil
}

// TestCanceledJobHoldsItsWorker cancels a job while its assessment is
// inside a sleep and queues another: the worker must not start the next
// job before the canceled one has stopped, so a one-worker pool never
// runs two assessments at once.
func TestCanceledJobHoldsItsWorker(t *testing.T) {
	g := &peakGate{entered: make(chan struct{}, 1)}
	s := newFaultServer(t, func(c *Config) {
		c.Workers = 1
		c.Injector = g
	})
	h := s.Handler()

	first := submitJob(t, h, "Drop", "GRU")
	select {
	case <-g.entered:
	case <-time.After(time.Minute):
		t.Fatal("first job never reached an RL workload")
	}
	if code, body := deletePath(t, h, "/v1/jobs/"+first.ID); code != http.StatusAccepted {
		t.Fatalf("cancel running job: %d %s", code, body)
	}
	second := submitJob(t, h, "Drop", "GRU")
	if j := pollTerminal(t, h, first.ID, time.Minute); j.Status != JobCanceled {
		t.Fatalf("canceled job ended %s (%s)", j.Status, j.Error)
	}
	if j := pollTerminal(t, h, second.ID, time.Minute); j.Status != JobDone {
		t.Fatalf("second job ended %s (%s), want done", j.Status, j.Error)
	}
	g.mu.Lock()
	peak := g.peak
	g.mu.Unlock()
	if peak != 1 {
		t.Fatalf("%d assessments ran at once on a one-worker pool, want 1", peak)
	}
}

// costGate is an Injector that, once armed, holds the first what-if
// cost call to reach it until release is closed.
type costGate struct {
	armed   atomic.Bool
	entered chan struct{} // closed when the held call arrives
	release chan struct{}
}

func (g *costGate) Fire(point string) error {
	if point == faultinject.PointEngineCost && g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return nil
}

// TestCancelInFinalCellEndsCanceled cancels a job while its last (and
// only) measurement cell is inside its utility call. The cut-short cell
// counts as skipped, so the measurement must not then report the
// remaining partial assessment as a done job.
func TestCancelInFinalCellEndsCanceled(t *testing.T) {
	g := &costGate{entered: make(chan struct{}), release: make(chan struct{})}
	s := newFaultServer(t, func(c *Config) {
		c.Params.TestWorkloads = 1
		c.Injector = g
	})
	h := s.Handler()

	// Drop/Random trains nothing, so the first what-if cost call after
	// submission is Drop's recommendation inside the measurement cell.
	g.armed.Store(true)
	job := submitJob(t, h, "Drop", "Random")
	select {
	case <-g.entered:
	case <-time.After(time.Minute):
		t.Fatal("job never reached a what-if cost call")
	}
	if code, body := deletePath(t, h, "/v1/jobs/"+job.ID); code != http.StatusAccepted {
		t.Fatalf("cancel running job: %d %s", code, body)
	}
	close(g.release)
	j := pollTerminal(t, h, job.ID, time.Minute)
	if j.Status != JobCanceled {
		t.Fatalf("job canceled in its final cell ended %s (%q, result %+v), want canceled", j.Status, j.Error, j.Result)
	}
	metricAtLeast(t, h, "trapd_jobs_canceled_total", 1)
}

// TestJobTimeout checks that a running job past JobTimeout ends failed
// with the timeout named, and is counted as failed.
func TestJobTimeout(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		c.JobTimeout = 400 * time.Millisecond
		// Three RL workloads sleeping 300ms each outlast the timeout.
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLWorkload, Action: faultinject.ActDelay,
			Every: 1, Delay: 300 * time.Millisecond,
		})
	})
	h := s.Handler()

	j := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if j.Status != JobFailed || j.Error != "job timeout (400ms) exceeded" {
		t.Fatalf("job ended %s (%q), want failed with the timeout", j.Status, j.Error)
	}
	if j.Started == nil {
		t.Error("timed-out job never started")
	}
	metricAtLeast(t, h, "trapd_jobs_failed_total", 1)
}

// TestJobCancelEndpoints covers DELETE /v1/jobs/{id} for running,
// pending, terminal and unknown jobs, plus the queue-full 503.
func TestJobCancelEndpoints(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		// One slow worker so a second job stays pending: every RL
		// workload sleeps, keeping the first job running long enough to
		// cancel it mid-training.
		c.Workers = 1
		c.QueueDepth = 1
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLWorkload, Action: faultinject.ActDelay,
			Every: 1, Delay: 200 * time.Millisecond,
		})
	})
	h := s.Handler()

	running := submitJob(t, h, "Drop", "GRU")
	waitForJob(t, h, running.ID, JobRunning, 30*time.Second)
	pending := submitJob(t, h, "Drop", "Random")

	// Queue now full (depth 1): the next submit is refused with a hint.
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(assessRequest{Dataset: "tpch", Advisor: "Drop", Method: "Random"})
	req := httptest.NewRequest("POST", "/v1/assess", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 response has no Retry-After header")
	}

	// Unknown job.
	if code, _ := deletePath(t, h, "/v1/jobs/job-424242"); code != http.StatusNotFound {
		t.Errorf("cancel unknown job: %d, want 404", code)
	}

	// Pending job: canceled immediately, before a worker picks it up.
	code, resp := deletePath(t, h, "/v1/jobs/"+pending.ID)
	if code != http.StatusAccepted {
		t.Fatalf("cancel pending job: %d %s", code, resp)
	}
	var pj Job
	if err := json.Unmarshal(resp, &pj); err != nil {
		t.Fatal(err)
	}
	if pj.Status != JobCanceled || !strings.Contains(pj.Error, "canceled") {
		t.Fatalf("pending job after cancel: %+v", pj)
	}

	// Running job: context canceled, training stops at the next boundary.
	if code, resp := deletePath(t, h, "/v1/jobs/"+running.ID); code != http.StatusAccepted {
		t.Fatalf("cancel running job: %d %s", code, resp)
	}
	rj := pollTerminal(t, h, running.ID, 30*time.Second)
	if rj.Status != JobCanceled || rj.Error != "canceled" {
		t.Fatalf("running job after cancel: status %s error %q", rj.Status, rj.Error)
	}

	// Terminal job: cancel conflicts.
	if code, _ := deletePath(t, h, "/v1/jobs/"+running.ID); code != http.StatusConflict {
		t.Errorf("cancel terminal job: %d, want 409", code)
	}

	metricAtLeast(t, h, "trapd_jobs_canceled_total", 2)
}

// TestJobCheckpointResume injects an error into the second RL epoch,
// which fails the job with its first-epoch checkpoint left in the spool:
// resubmitting the job must resume from that checkpoint rather than
// restart training from scratch.
func TestJobCheckpointResume(t *testing.T) {
	spool := t.TempDir()
	s := newFaultServer(t, func(c *Config) {
		p := tinyParams()
		p.RLEpochs = 2
		c.Params = p
		c.SpoolDir = spool
		// The warmup job below consumes epoch hits 1-2. For the job
		// under test, hit 3 (epoch 0) passes and the epoch hook
		// checkpoints; hit 4 (epoch 1) fails the job; the resubmission
		// resumes at epoch 1 and hit 5 passes (the count is exhausted).
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLEpoch, Action: faultinject.ActError,
			Every: 1, After: 3, Count: 1,
		})
	})
	h := s.Handler()

	// Warmup: the first training run on a fresh suite registers unseen
	// tokens in the shared vocabulary, which changes the embedding shape
	// of later model builds — a checkpoint taken during that run would
	// not match the resubmission's model and resume would (safely) fall
	// back to fresh training. One completed job puts the vocabulary in steady
	// state so the checkpoint under test is shape-compatible.
	warm := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if warm.Status != JobDone {
		t.Fatalf("warmup job ended %s (%s), want done", warm.Status, warm.Error)
	}

	failed := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if failed.Status != JobFailed {
		t.Fatalf("job ended %s (%s), want failed on the injected error", failed.Status, failed.Error)
	}
	if failed.Resumed {
		t.Error("first run of the job claims a resume")
	}
	kept, err := filepath.Glob(filepath.Join(spool, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 {
		t.Fatalf("spool holds %v after the failure, want its one checkpoint", kept)
	}

	j := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if j.Status != JobDone {
		t.Fatalf("resubmitted job ended %s (%s), want done", j.Status, j.Error)
	}
	if !j.Resumed {
		t.Error("resubmitted job did not resume from its checkpoint")
	}
	metricAtLeast(t, h, "trapd_checkpoints_saved_total", 1)
	metricAtLeast(t, h, "trapd_checkpoints_resumed_total", 1)

	// Successful jobs clean up their spooled checkpoint.
	left, err := filepath.Glob(filepath.Join(spool, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("spool dir still holds %v after success", left)
	}
	if _, err := os.Stat(spool); err != nil {
		t.Errorf("spool dir missing: %v", err)
	}
}

// TestWorkerPoolTypedErrors exercises the submit failure modes directly.
func TestWorkerPoolTypedErrors(t *testing.T) {
	block := make(chan struct{})
	started := make(chan string, 4)
	p := newWorkerPool(1, 1, func(id string) { started <- id; <-block })
	defer close(block)

	if err := p.submit("a", admission.Batch); err != nil {
		t.Fatalf("submit a: %v", err)
	}
	<-started // worker is now busy with "a", queue is empty
	if err := p.submit("b", admission.Batch); err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if err := p.submit("c", admission.Interactive); err != ErrQueueFull {
		t.Fatalf("submit c: %v, want ErrQueueFull", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	drained := p.shutdown(ctx)
	if len(drained) != 1 || drained[0] != "b" {
		t.Fatalf("shutdown drained %v, want [b]", drained)
	}
	if err := p.submit("d", admission.Batch); err != ErrPoolClosed {
		t.Fatalf("submit after shutdown: %v, want ErrPoolClosed", err)
	}
}

// TestJobStoreGC verifies that only terminal jobs past their TTL are
// collected.
func TestJobStoreGC(t *testing.T) {
	st := newJobStore()
	now := time.Now()
	old := now.Add(-2 * time.Hour)
	recent := now.Add(-time.Minute)

	mk := func(status JobStatus, fin *time.Time) string {
		j := st.create(Job{Dataset: "tpch", Advisor: "Drop", Method: "Random"})
		st.update(j.ID, func(j *Job) {
			j.Status = status
			j.Finished = fin
		})
		j, e := st.entry(j.ID)
		e.hub.publishState(j)
		return j.ID
	}
	doneOld := mk(JobDone, &old)
	failedOld := mk(JobFailed, &old)
	canceledOld := mk(JobCanceled, &old)
	doneRecent := mk(JobDone, &recent)
	runningJob := mk(JobRunning, nil)
	pendingJob := mk(JobPending, nil)

	if dropped := st.gc(time.Hour, now); len(dropped) != 3 {
		t.Fatalf("gc removed %d jobs, want 3", len(dropped))
	}
	for _, id := range []string{doneOld, failedOld, canceledOld} {
		if _, ok := st.get(id); ok {
			t.Errorf("job %s survived gc", id)
		}
	}
	for _, id := range []string{doneRecent, runningJob, pendingJob} {
		if _, ok := st.get(id); !ok {
			t.Errorf("job %s was wrongly collected", id)
		}
	}
	if got := st.size(); got != 3 {
		t.Errorf("store size after gc = %d, want 3", got)
	}
}
