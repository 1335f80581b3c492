package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/admission"
	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/joblog"
	"github.com/trap-repro/trap/internal/obs"
)

// clusterServer is a shared server with per-tenant quotas on (high
// enough not to bother tests that use their own tenant).
var (
	clusterOnce sync.Once
	clusterSrv  *Server
	clusterErr  error
)

func clusterServer(t *testing.T) *Server {
	t.Helper()
	clusterOnce.Do(func() {
		clusterSrv, clusterErr = NewServer(Config{
			Datasets:   []string{"tpch"},
			Params:     tinyParams(),
			Seed:       11,
			Workers:    2,
			QueueDepth: 8,
			JobTimeout: 2 * time.Minute,
			TenantQPS:  2,
			Registry:   obs.NewRegistry(),
			Logger:     discardLogger(),
		})
	})
	if clusterErr != nil {
		t.Fatal(clusterErr)
	}
	return clusterSrv
}

// postJSONHdr is postJSON with request headers, returning the response
// headers too.
func postJSONHdr(t *testing.T, h http.Handler, path string, body any, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

func submitTenantJob(t *testing.T, h http.Handler, tenant, priority string) Job {
	t.Helper()
	hdr := map[string]string{"X-Trap-Tenant": tenant}
	if priority != "" {
		hdr["X-Trap-Priority"] = priority
	}
	code, _, body := postJSONHdr(t, h, "/v1/assess",
		assessRequest{Dataset: "tpch", Advisor: "Drop", Method: "Random"}, hdr)
	if code != http.StatusAccepted {
		t.Fatalf("submit as %s: %d %s", tenant, code, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	return j
}

func TestReadyz(t *testing.T) {
	s := clusterServer(t)
	h := s.Handler()
	code, body := getPath(t, h, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz: %d %s", code, body)
	}
	var resp readyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Ready || resp.Depth != s.cfg.QueueDepth {
		t.Fatalf("readyz payload: %+v", resp)
	}

	// Not ready while the job log replays.
	s.ready.Store(false)
	code, body = getPath(t, h, "/readyz")
	s.ready.Store(true)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "replaying") {
		t.Fatalf("readyz during replay: %d %s", code, body)
	}
}

func TestJobsListEndpoint(t *testing.T) {
	s := clusterServer(t)
	h := s.Handler()
	var subs []Job
	for i := 0; i < 3; i++ {
		subs = append(subs, submitTenantJob(t, h, fmt.Sprintf("list-%d", i), ""))
	}
	for _, j := range subs {
		pollTerminal(t, h, j.ID, time.Minute)
	}

	code, body := getPath(t, h, "/v1/jobs?advisor=Drop&dataset=tpch")
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var resp jobListResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) < 3 {
		t.Fatalf("list returned %d jobs, want >= 3", len(resp.Jobs))
	}
	for i := 1; i < len(resp.Jobs); i++ {
		if jobNum(resp.Jobs[i].ID) <= jobNum(resp.Jobs[i-1].ID) {
			t.Fatalf("list out of order: %s then %s", resp.Jobs[i-1].ID, resp.Jobs[i].ID)
		}
	}

	// Cursor pagination walks the same set page by page with no overlap.
	var paged []string
	cursor := ""
	for {
		path := "/v1/jobs?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		code, body := getPath(t, h, path)
		if code != http.StatusOK {
			t.Fatalf("page: %d %s", code, body)
		}
		var page jobListResponse
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Jobs) > 2 {
			t.Fatalf("page exceeds limit: %d jobs", len(page.Jobs))
		}
		for _, j := range page.Jobs {
			paged = append(paged, j.ID)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(paged) != len(s.jobs.list()) {
		t.Fatalf("pagination saw %d jobs, store has %d", len(paged), len(s.jobs.list()))
	}
	seen := map[string]bool{}
	for _, id := range paged {
		if seen[id] {
			t.Fatalf("pagination returned %s twice", id)
		}
		seen[id] = true
	}

	// Status filter: every listed job matches; a bogus status is a 400.
	code, body = getPath(t, h, "/v1/jobs?status=done")
	if code != http.StatusOK {
		t.Fatalf("status filter: %d %s", code, body)
	}
	var doneOnly jobListResponse
	if err := json.Unmarshal(body, &doneOnly); err != nil {
		t.Fatal(err)
	}
	if len(doneOnly.Jobs) == 0 {
		t.Fatal("no done jobs listed after three completed")
	}
	for _, j := range doneOnly.Jobs {
		if j.Status != JobDone {
			t.Fatalf("status filter leaked %s job %s", j.Status, j.ID)
		}
	}
	if code, _ := getPath(t, h, "/v1/jobs?status=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus status filter: %d, want 400", code)
	}
	if code, _ := getPath(t, h, "/v1/jobs?cursor=nope"); code != http.StatusBadRequest {
		t.Fatalf("bogus cursor: %d, want 400", code)
	}
}

func TestTenantQuota(t *testing.T) {
	s := clusterServer(t)
	h := s.Handler()

	// Burst of 2 admits; the third submission inside the same second is
	// shed with 429 and a whole-second Retry-After.
	submitTenantJob(t, h, "quota-hog", "")
	submitTenantJob(t, h, "quota-hog", "")
	code, hdr, body := postJSONHdr(t, h, "/v1/assess",
		assessRequest{Dataset: "tpch", Advisor: "Drop", Method: "Random"},
		map[string]string{"X-Trap-Tenant": "quota-hog"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d %s", code, body)
	}
	ra := hdr.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 has no Retry-After")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive whole-second count", ra)
	}

	// A different tenant is unaffected by the hog.
	submitTenantJob(t, h, "quota-bystander", "")
	metricAtLeast(t, h, "trapd_shed_quota_total", 1)
}

func TestPriorityHeaderValidation(t *testing.T) {
	h := clusterServer(t).Handler()
	code, _, body := postJSONHdr(t, h, "/v1/assess",
		assessRequest{Dataset: "tpch", Advisor: "Drop", Method: "Random"},
		map[string]string{"X-Trap-Tenant": "prio-bad", "X-Trap-Priority": "urgent"})
	if code != http.StatusBadRequest {
		t.Fatalf("bad priority header: %d %s", code, body)
	}
	j := submitTenantJob(t, h, "prio-ok", "interactive")
	if j.Priority != "interactive" {
		t.Fatalf("job priority = %q, want interactive", j.Priority)
	}
}

// TestWorkerPoolPriorityOrder pins the scheduling contract: with the
// single worker busy, interactive submissions overtake batch ones that
// were queued first.
func TestWorkerPoolPriorityOrder(t *testing.T) {
	block := make(chan struct{})
	var mu sync.Mutex
	var order []string
	ran := make(chan string, 8)
	p := newWorkerPool(1, 8, func(id string) {
		if id == "gate" {
			<-block
			return
		}
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
		ran <- id
	})
	if err := p.submit("gate", admission.Batch); err != nil {
		t.Fatal(err)
	}
	// Queue while the worker is blocked: batch first, interactive after.
	for _, sub := range []struct {
		id  string
		pri admission.Priority
	}{
		{"b1", admission.Batch}, {"b2", admission.Batch},
		{"i1", admission.Interactive}, {"i2", admission.Interactive},
	} {
		if err := p.submit(sub.id, sub.pri); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	for i := 0; i < 4; i++ {
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatal("pool stalled")
		}
	}
	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	if got != "i1,i2,b1,b2" {
		t.Fatalf("dequeue order %s, want i1,i2,b1,b2", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	p.shutdown(ctx)
}

// TestInteractiveJobOvertakesBatch: trapd honours X-Trap-Priority with
// no setting: with the single worker busy, an interactive submission
// starts before the batch ones queued ahead of it.
func TestInteractiveJobOvertakesBatch(t *testing.T) {
	g := &costGate{entered: make(chan struct{}), release: make(chan struct{})}
	s := newFaultServer(t, func(c *Config) {
		c.Workers = 1
		c.Injector = g
	})
	h := s.Handler()
	g.armed.Store(true)
	gate := submitJob(t, h, "Drop", "Random")
	select {
	case <-g.entered:
	case <-time.After(time.Minute):
		t.Fatal("gate job never reached a what-if cost call")
	}
	b1 := submitTenantJob(t, h, "prio", "")
	b2 := submitTenantJob(t, h, "prio", "batch")
	i1 := submitTenantJob(t, h, "prio", "interactive")
	close(g.release)
	started := map[string]time.Time{}
	for _, id := range []string{gate.ID, b1.ID, b2.ID, i1.ID} {
		j := pollTerminal(t, h, id, time.Minute)
		if j.Status != JobDone || j.Started == nil {
			t.Fatalf("job %s ended %s (%s)", id, j.Status, j.Error)
		}
		started[id] = *j.Started
	}
	if !started[i1.ID].Before(started[b1.ID]) || !started[i1.ID].Before(started[b2.ID]) {
		t.Fatalf("interactive job started at %v, after batch jobs queued before it (%v, %v)",
			started[i1.ID], started[b1.ID], started[b2.ID])
	}
}

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	ID    int64
	Event string
	Data  JobEvent
}

// readSSE consumes SSE frames from r until EOF (the server closes the
// stream at the job's terminal state) or the limit is hit.
func readSSE(t *testing.T, r io.Reader, limit int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" {
				frames = append(frames, cur)
				if len(frames) >= limit {
					return frames
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ": "): // heartbeat comment
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.ID)
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	return frames
}

// TestEventIDAndCursorParsing: an SSE Last-Event-ID (header or
// ?last_event_id=) and a /v1/jobs cursor are read as whole plain
// decimals; anything else is a 400, not a lenient prefix parse.
func TestEventIDAndCursorParsing(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	const id = "job-parse-test"
	// A job the pool never sees, whose complete stream holds three
	// events: its running state, then two epochs.
	s.jobs.restore(Job{ID: id, Status: JobRunning})
	defer dropTestJob(s, id)
	_, e := s.jobs.entry(id)
	for i := 0; i < 2; i++ {
		e.hub.publish(JobEvent{Type: evEpoch, Epoch: i + 1})
	}
	e.hub.closeHub()

	for _, tc := range []struct {
		lastID string
		code   int
		seqs   string // ids replayed after it, when accepted
	}{
		{"1", http.StatusOK, "2,3"},
		{"0", http.StatusOK, "1,2,3"},
		{"12abc", http.StatusBadRequest, ""},
		{"0x1f", http.StatusBadRequest, ""},
		{"-3", http.StatusBadRequest, ""},
		{"+1", http.StatusBadRequest, ""},
		{" 1", http.StatusBadRequest, ""},
		{"1 ", http.StatusBadRequest, ""},
		{"99999999999999999999", http.StatusBadRequest, ""},
	} {
		for _, viaHeader := range []bool{true, false} {
			req := httptest.NewRequest("GET", "/v1/jobs/"+id+"/events", nil)
			if viaHeader {
				req.Header.Set("Last-Event-ID", tc.lastID)
			} else {
				req.URL.RawQuery = url.Values{"last_event_id": {tc.lastID}}.Encode()
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.code {
				t.Fatalf("last event id %q (header %v): %d %s, want %d", tc.lastID, viaHeader, rec.Code, rec.Body, tc.code)
			}
			if tc.code != http.StatusOK {
				continue
			}
			var seqs []string
			for _, line := range strings.Split(rec.Body.String(), "\n") {
				if v, ok := strings.CutPrefix(line, "id: "); ok {
					seqs = append(seqs, v)
				}
			}
			if got := strings.Join(seqs, ","); got != tc.seqs {
				t.Fatalf("last event id %q (header %v) replayed %q, want %q", tc.lastID, viaHeader, got, tc.seqs)
			}
		}
	}

	for _, tc := range []struct {
		cursor string
		code   int
	}{
		{"job-3", http.StatusOK},
		{"job-5x", http.StatusBadRequest},
		{"job--3", http.StatusBadRequest},
		{"job-+3", http.StatusBadRequest},
		{"job-0x1f", http.StatusBadRequest},
		{"job-", http.StatusBadRequest},
		{"job-0", http.StatusBadRequest},
		{"5", http.StatusBadRequest},
		{"job-99999999999999999999", http.StatusBadRequest},
	} {
		path := "/v1/jobs?" + url.Values{"cursor": {tc.cursor}}.Encode()
		if code, body := getPath(t, h, path); code != tc.code {
			t.Fatalf("cursor %q: %d %s, want %d", tc.cursor, code, body, tc.code)
		}
	}
}

// TestSSEStreamAndResume runs a training job against a real listener,
// consumes its full progress stream, then replays the stream from the
// middle with Last-Event-ID and checks the resumed view is a suffix.
func TestSSEStreamAndResume(t *testing.T) {
	s := clusterServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// GRU RL-trains, so the stream carries epoch events.
	j := submitTenantJob(t, s.Handler(), "sse", "")
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	frames := readSSE(t, resp.Body, 10_000)
	if len(frames) < 3 {
		t.Fatalf("stream carried %d frames, want at least pending/running/terminal", len(frames))
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].ID != frames[i-1].ID+1 {
			t.Fatalf("non-contiguous event IDs: %d then %d", frames[i-1].ID, frames[i].ID)
		}
	}
	var sawRunning, sawCell, sawResult bool
	var last sseFrame
	for _, f := range frames {
		switch f.Event {
		case evState:
			if f.Data.Status == JobRunning {
				sawRunning = true
			}
		case evCell:
			sawCell = true
			if f.Data.Workload == nil {
				t.Error("cell event without workload index")
			}
		case evResult:
			sawResult = true
			if f.Data.Result == nil || f.Data.Result.Pairs == 0 {
				t.Errorf("result event payload: %+v", f.Data.Result)
			}
		}
		last = f
	}
	if !sawRunning || !sawResult {
		t.Fatalf("stream missing lifecycle events (running=%v result=%v) in %d frames",
			sawRunning, sawResult, len(frames))
	}
	if !sawCell {
		t.Error("stream carried no cell progress events")
	}
	if last.Event != evResult && (last.Event != evState || !last.Data.Status.terminal()) {
		t.Fatalf("stream did not end at a terminal event: %+v", last)
	}

	// Reconnect with Last-Event-ID halfway: the replay must be exactly
	// the suffix after that ID (the job is terminal, so the stream is
	// the retained backlog and then EOF).
	mid := frames[len(frames)/2]
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+j.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(mid.ID))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	resumed := readSSE(t, resp2.Body, 10_000)
	want := frames[len(frames)/2+1:]
	if len(resumed) != len(want) {
		t.Fatalf("resume replayed %d frames, want %d", len(resumed), len(want))
	}
	for i := range resumed {
		if resumed[i].ID != want[i].ID || resumed[i].Event != want[i].Event {
			t.Fatalf("resume frame %d: got (%d,%s), want (%d,%s)",
				i, resumed[i].ID, resumed[i].Event, want[i].ID, want[i].Event)
		}
	}

	// Unknown job and bad Last-Event-ID are clean errors.
	if code, _ := getPath(t, s.Handler(), "/v1/jobs/job-999999/events"); code != http.StatusNotFound {
		t.Fatalf("events for unknown job: %d", code)
	}
	req2, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+j.ID+"/events", nil)
	req2.Header.Set("Last-Event-ID", "third")
	resp3, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID: %d", resp3.StatusCode)
	}
}

// dropTestJob removes a job that a test put into a shared server's
// table by hand: it ends the job at the zero time and publishes that
// state, so the GC collects it and no job a real run finished.
func dropTestJob(s *Server, id string) {
	s.jobs.finish(id, func(j *Job) {
		if !j.Status.terminal() {
			j.Status = JobCanceled
		}
		j.Finished = &time.Time{}
	})
	s.publishState(id)
	s.jobs.gc(time.Hour, time.Now())
}

// TestSSEHeartbeat checks that an idle progress stream carries comment
// heartbeats, and that it ends once its job is canceled.
func TestSSEHeartbeat(t *testing.T) {
	s := testServer(t)
	defer func(d time.Duration) { sseHeartbeat = d }(sseHeartbeat)
	sseHeartbeat = 20 * time.Millisecond
	// A pending job the pool never sees: its stream stays open and idle.
	const id = "job-heartbeat-test"
	s.jobs.restore(Job{ID: id, Status: JobPending})
	defer dropTestJob(s, id)
	ts := httptest.NewServer(s.Handler())
	// Deferred after the restore above, so it runs first: Close waits for
	// the stream's handler to return before the heartbeat is put back.
	defer ts.Close()

	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for beats := 0; beats < 2; {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d heartbeats: %v", beats, sc.Err())
		}
		if sc.Text() == ": heartbeat" {
			beats++
		}
	}
	if code, body := deletePath(t, s.Handler(), "/v1/jobs/"+id); code != http.StatusAccepted {
		t.Fatalf("cancel: %d %s", code, body)
	}
	var last string
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			last = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not end after the cancel: %v", err)
	}
	var ev JobEvent
	if err := json.Unmarshal([]byte(last), &ev); err != nil || ev.Status != JobCanceled {
		t.Fatalf("stream ended at %q, want the canceled state", last)
	}
}

// TestJobLogReplayRestores exercises the in-process restart path: a
// terminal job survives a restart queryable under its original ID, and
// an interrupted (still running when the log closed) job is re-enqueued
// and finishes on the restarted server.
func TestJobLogReplayRestores(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		return newFaultServer(t, func(c *Config) {
			c.Workers = 1
			c.JobLogDir = dir
			c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
				Point: faultinject.PointRLWorkload, Action: faultinject.ActDelay,
				Every: 1, Delay: 200 * time.Millisecond,
			})
		})
	}
	s1 := mk()
	h1 := s1.Handler()
	done := pollTerminal(t, h1, submitJob(t, h1, "Drop", "Random").ID, time.Minute)
	if done.Status != JobDone {
		t.Fatalf("first job ended %s", done.Status)
	}
	// A GRU job slowed by the injector is still running when we cut the
	// log — the restart must treat it as interrupted.
	running := submitJob(t, h1, "Drop", "GRU")
	waitForJob(t, h1, running.ID, JobRunning, 30*time.Second)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mk()
	h2 := s2.Handler()
	defer s2.Close()

	// The terminal job is back, same ID, same result.
	got, ok := s2.jobs.get(done.ID)
	if !ok {
		t.Fatalf("terminal job %s not restored", done.ID)
	}
	if got.Status != JobDone || got.Result == nil || got.Result.MeanIUDR != done.Result.MeanIUDR {
		t.Fatalf("restored job mismatch: %+v vs %+v", got, done)
	}

	// The interrupted job was re-enqueued and completes.
	rj := pollTerminal(t, h2, running.ID, 2*time.Minute)
	if rj.Status != JobDone {
		t.Fatalf("restored job ended %s (%s)", rj.Status, rj.Error)
	}
	if !rj.Restored {
		t.Error("re-enqueued job not flagged Restored")
	}
	metricAtLeast(t, h2, "trapd_jobs_restored_total", 1)

	// New submissions never collide with restored IDs.
	fresh := submitJob(t, h2, "Drop", "Random")
	if jobNum(fresh.ID) <= jobNum(running.ID) {
		t.Fatalf("fresh job ID %s not past restored %s", fresh.ID, running.ID)
	}
	pollTerminal(t, h2, fresh.ID, time.Minute)
}

// TestCancelGCNoResurrectionNoLeak covers the GC/cancel interplay: a
// job canceled and then garbage-collected leaves nothing behind — no
// job-log resurrection on restart, no event hub, and no goroutines.
func TestCancelGCNoResurrectionNoLeak(t *testing.T) {
	dir := t.TempDir()
	s := newFaultServer(t, func(c *Config) {
		c.Workers = 1
		c.JobLogDir = dir
		c.JobTTL = time.Millisecond
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLWorkload, Action: faultinject.ActDelay,
			Every: 1, Delay: 200 * time.Millisecond,
		})
	})
	h := s.Handler()
	baseline := runtime.NumGoroutine()

	// Keep the single worker busy so the second job stays pending, then
	// cancel both: one mid-run, one before start.
	runningJob := submitJob(t, h, "Drop", "GRU")
	waitForJob(t, h, runningJob.ID, JobRunning, 30*time.Second)
	pendingJob := submitJob(t, h, "Drop", "Random")

	// A subscriber is attached when the cancel lands: its stream must
	// end, not leak.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + runningJob.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	if code, _ := deletePath(t, h, "/v1/jobs/"+pendingJob.ID); code != http.StatusAccepted {
		t.Fatal("cancel pending failed")
	}
	if code, _ := deletePath(t, h, "/v1/jobs/"+runningJob.ID); code != http.StatusAccepted {
		t.Fatal("cancel running failed")
	}
	for _, id := range []string{runningJob.ID, pendingJob.ID} {
		if j := pollTerminal(t, h, id, time.Minute); j.Status != JobCanceled {
			t.Fatalf("job %s ended %s, want canceled", id, j.Status)
		}
	}
	select {
	case <-streamDone:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream of the canceled job never ended")
	}

	// GC both canceled jobs (TTL 1ms is long past).
	if n := s.collectGarbage(context.Background(), time.Now().Add(time.Hour)); n != 2 {
		t.Fatalf("gc dropped %d jobs, want 2", n)
	}
	if code, _ := getPath(t, h, "/v1/jobs/"+pendingJob.ID); code != http.StatusNotFound {
		t.Fatal("GC'd job still queryable")
	}
	for _, id := range []string{runningJob.ID, pendingJob.ID} {
		if _, e := s.jobs.entry(id); e != nil {
			t.Fatalf("GC'd job %s still has an entry", id)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.Drain(ctx)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Everything the canceled jobs spawned has exited (workers, job
	// goroutines, SSE plumbing). The drained pool's workers are gone
	// too, so the count settles at or below the post-build baseline.
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", n, baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A restart over the same log must not resurrect the GC'd jobs.
	s2 := newFaultServer(t, func(c *Config) { c.JobLogDir = dir })
	defer s2.Close()
	if n := s2.jobs.size(); n != 0 {
		t.Fatalf("restart resurrected %d GC'd jobs: %+v", n, s2.jobs.list())
	}
}

// appendGate is a costGate that also delays the job log's n-th append.
type appendGate struct {
	costGate
	n       int32
	delay   time.Duration
	appends atomic.Int32
}

func (g *appendGate) Fire(point string) error {
	if point == faultinject.PointJoblogAppend && g.appends.Add(1) == g.n {
		time.Sleep(g.delay)
	}
	return g.costGate.Fire(point)
}

// TestStreamEndsAfterTerminalRecord: a job's SSE stream ends only once
// its terminal state record is in the job log on disk. The GC collects
// only jobs whose stream has ended, so the job's drop record can never
// come before that record, and replay cannot restore a GC'd job. The
// terminal append is slowed to widen the window.
func TestStreamEndsAfterTerminalRecord(t *testing.T) {
	dir := t.TempDir()
	g := &appendGate{
		costGate: costGate{entered: make(chan struct{}), release: make(chan struct{})},
		n:        3, // submit, running, then the terminal state
		delay:    500 * time.Millisecond,
	}
	s := newFaultServer(t, func(c *Config) {
		c.JobLogDir = dir
		c.Injector = g
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hold the job inside its run, so the stream is open before it ends.
	g.armed.Store(true)
	job := submitJob(t, s.Handler(), "Drop", "Random")
	select {
	case <-g.entered:
	case <-time.After(time.Minute):
		t.Fatal("job never reached a what-if cost call")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	close(g.release)
	io.Copy(io.Discard, resp.Body) // returns when the stream ends
	resp.Body.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var log []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, b...)
	}
	if !bytes.Contains(log, []byte(`"status":"done"`)) {
		t.Fatal("the job's stream ended before its terminal state was in the job log")
	}
}

// TestGCSkipsUnpublishedTerminalJob: a job made terminal in the store
// but not yet published (logged, then streamed) is not collected, however
// old; once published, it is.
func TestGCSkipsUnpublishedTerminalJob(t *testing.T) {
	s := newFaultServer(t, func(c *Config) { c.JobTTL = time.Millisecond })
	defer s.Close()
	j := s.jobs.create(Job{Dataset: "tpch", Advisor: "Drop", Method: "Random"})
	fin := time.Now().Add(-time.Hour)
	s.jobs.finish(j.ID, func(j *Job) {
		j.Status = JobDone
		j.Finished = &fin
	})
	if n := s.collectGarbage(context.Background(), time.Now()); n != 0 {
		t.Fatalf("gc collected %d jobs whose terminal state was not published, want 0", n)
	}
	s.publishState(j.ID)
	if n := s.collectGarbage(context.Background(), time.Now()); n != 1 {
		t.Fatalf("gc collected %d published terminal jobs, want 1", n)
	}
}

// TestJobLogReplaySkipsFleetRecords replays a log written by a release
// that also logged leases, heartbeats, metric snapshots, progress and
// cancels (and stamped a node and lease epoch on every job): replay
// skips those record types and restores the jobs themselves.
func TestJobLogReplaySkipsFleetRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := joblog.Open(dir, joblog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	type fleetJob struct {
		Job
		Node  string `json:"node"`
		Epoch uint64 `json:"leaseEpoch"`
	}
	now := time.Now()
	done := fleetJob{Job{ID: "job-1", Status: JobDone, Dataset: "tpch", Advisor: "Drop",
		Method: "Random", Created: now, Finished: &now,
		Result: &JobResult{MeanIUDR: 0.25, Workloads: 3, Pairs: 9}}, "n1", 2}
	running := fleetJob{Job{ID: "job-2", Status: JobRunning, Dataset: "tpch", Advisor: "Drop",
		Method: "Random", Created: now, Started: &now}, "n2", 1}
	for _, r := range []struct {
		typ, job string
		data     any
	}{
		{"node-heartbeat", "", map[string]string{"node": "n1"}},
		{recSubmit, "job-1", fleetJob{Job{ID: "job-1", Status: JobPending, Dataset: "tpch",
			Advisor: "Drop", Method: "Random", Created: now}, "", 0}},
		{"lease-claim", "job-1", map[string]any{"node": "n1", "epoch": 1, "deadline": now}},
		{"progress", "job-1", map[string]any{"epoch": 1}},
		{"lease-claim", "job-1", map[string]any{"node": "n1", "epoch": 2, "takeover": true}},
		{recState, "job-1", done},
		{"node-metrics", "", map[string]any{"node": "n1", "metrics": map[string]float64{"x": 1}}},
		{recSubmit, "job-2", running},
		{"lease-claim", "job-2", map[string]any{"node": "n2", "epoch": 1}},
		{"cancel", "job-3", nil},
		{"lease-release", "job-2", map[string]any{"node": "n2", "epoch": 1}},
	} {
		if _, err := l.Append(r.typ, r.job, r.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s := newFaultServer(t, func(c *Config) { c.JobLogDir = dir })
	defer s.Close()
	if n := s.jobs.size(); n != 2 {
		t.Fatalf("restored %d jobs, want 2: %+v", n, s.jobs.list())
	}
	got, _ := s.jobs.get("job-1")
	if got.Status != JobDone || got.Result == nil || *got.Result != *done.Result {
		t.Fatalf("restored done job: %+v", got)
	}
	rj := pollTerminal(t, s.Handler(), "job-2", time.Minute)
	if rj.Status != JobDone || !rj.Restored {
		t.Fatalf("restored interrupted job ended %s (restored=%v, %s)", rj.Status, rj.Restored, rj.Error)
	}
}

// TestFailedStartReleasesEverything checks that a NewServer that fails
// leaves nothing behind: no worker goroutines blocked on a pool nobody
// will drain, and no directory locks (a retry in the same process on
// the same directories succeeds).
func TestFailedStartReleasesEverything(t *testing.T) {
	base := t.TempDir()
	notDir := filepath.Join(base, "file")
	if err := os.WriteFile(notDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	dirs := func(c *Config) {
		c.JobLogDir = filepath.Join(base, "joblog")
		c.SpoolDir = filepath.Join(base, "spool")
	}
	baseline := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		cfg  func(c *Config)
	}{
		{"job log path is a file", func(c *Config) { c.JobLogDir = notDir }},
		{"unknown dataset after the locks", func(c *Config) { dirs(c); c.Datasets = []string{"nope"} }},
	} {
		cfg := Config{Datasets: []string{"tpch"}, Params: tinyParams(), Seed: 23, Workers: 4, Logger: discardLogger()}
		tc.cfg(&cfg)
		if s, err := NewServer(cfg); err == nil {
			s.Close()
			t.Fatalf("%s: NewServer succeeded", tc.name)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > baseline; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("failed starts leaked goroutines: %d now vs %d before", n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cfg := Config{Datasets: []string{"tpch"}, Params: tinyParams(), Seed: 23, Logger: discardLogger()}
	dirs(&cfg)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("retry on the failed start's directories: %v", err)
	}
	s.Close()
}

// crashChildEnv carries "joblogDir:spoolDir" to the crash-test child.
const crashChildEnv = "TRAPD_CRASH_DIRS"

// crashParams are shared by the crash child, the restarted server and
// the uninterrupted reference so all three build bit-identical suites.
func crashParams() Config {
	p := tinyParams()
	p.RLEpochs = 4
	return Config{
		Datasets:   []string{"tpch"},
		Params:     p,
		Seed:       31,
		Workers:    1,
		QueueDepth: 4,
		JobTimeout: 5 * time.Minute,
		Registry:   obs.NewRegistry(),
		Logger:     discardLogger(),
	}
}

// TestCrashReplayChild is the subprocess body of TestCrashReplayResume:
// it submits one GRU assessment with the durable log and checkpoint
// spool armed, then idles until the parent SIGKILLs it mid-epoch.
func TestCrashReplayChild(t *testing.T) {
	dirs := os.Getenv(crashChildEnv)
	if dirs == "" {
		t.Skip("crash-test child, driven by TestCrashReplayResume")
	}
	parts := strings.SplitN(dirs, ":", 2)
	cfg := crashParams()
	cfg.JobLogDir = parts[0]
	cfg.SpoolDir = parts[1]
	// Stretch every epoch so the parent's SIGKILL lands mid-training,
	// after at least one checkpoint. Delays do not change any results.
	cfg.Injector = faultinject.NewSeeded(1, faultinject.Rule{
		Point: faultinject.PointRLEpoch, Action: faultinject.ActDelay,
		Every: 1, Delay: 500 * time.Millisecond,
	})
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitJob(t, s.Handler(), "Drop", "GRU")
	time.Sleep(5 * time.Minute) // killed long before this expires
}

// TestCrashReplayResume is the end-to-end durability proof: a child
// process is SIGKILLed mid-epoch; a restarted server on the same
// -joblog/-spool re-enqueues the interrupted job, resumes it from the
// checkpoint, and produces a result bit-identical to an uninterrupted
// run with the same seed (the service-level analogue of core's
// TestCheckpointResumeEquivalence).
func TestCrashReplayResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess and builds three suites")
	}
	base := t.TempDir()
	jdir := filepath.Join(base, "joblog")
	sdir := filepath.Join(base, "spool")

	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashReplayChild$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+jdir+":"+sdir)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// SIGKILL once the first checkpoint hits the spool: training is
	// mid-flight, the job log says "running", and there is state to
	// resume from. No graceful path runs — this is a process death.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if ckpts, _ := filepath.Glob(filepath.Join(sdir, "*.ckpt")); len(ckpts) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child produced no checkpoint; output:\n%s", childOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	cfg := crashParams()
	cfg.JobLogDir = jdir
	cfg.SpoolDir = sdir
	// A standby started while the child lives is refused: the child holds
	// both directories.
	if dirLocks {
		if sb, err := NewServer(cfg); !errors.Is(err, joblog.ErrLocked) {
			if err == nil {
				sb.Close()
			}
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("NewServer beside the live child: %v, want joblog.ErrLocked", err)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to die on the signal

	// Restart on the same joblog + spool: the kernel dropped the dead
	// child's locks, and the interrupted job comes back pending with
	// Restored set and runs to completion.
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	jobs := s.jobs.list()
	if len(jobs) != 1 {
		t.Fatalf("restart restored %d jobs, want 1: %+v", len(jobs), jobs)
	}
	resumed := pollTerminal(t, h, jobs[0].ID, 3*time.Minute)
	if resumed.Status != JobDone {
		t.Fatalf("restored job ended %s (%s)", resumed.Status, resumed.Error)
	}
	if !resumed.Restored {
		t.Error("job not flagged Restored after crash replay")
	}
	if !resumed.Resumed {
		t.Error("job did not resume from the spooled checkpoint")
	}
	metricAtLeast(t, h, "trapd_checkpoints_resumed_total", 1)

	// Reference: the same assessment, same seed, uninterrupted, in a
	// fresh server. Bit-identical means the crash was invisible.
	ref, err := NewServer(crashParams())
	if err != nil {
		t.Fatal(err)
	}
	rh := ref.Handler()
	refJob := pollTerminal(t, rh, submitJob(t, rh, "Drop", "GRU").ID, 3*time.Minute)
	if refJob.Status != JobDone {
		t.Fatalf("reference job ended %s (%s)", refJob.Status, refJob.Error)
	}
	if resumed.Result.MeanIUDR != refJob.Result.MeanIUDR ||
		resumed.Result.Pairs != refJob.Result.Pairs ||
		resumed.Result.Workloads != refJob.Result.Workloads {
		t.Fatalf("crash-resumed result differs from uninterrupted run:\n  resumed:   %+v\n  reference: %+v",
			resumed.Result, refJob.Result)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobLogDegradedDraining (single node) injects a write failure into
// the job-log append path: the log latches read-only, the node flips to
// draining — /readyz 503, new submissions rejected 503 — while already
// accepted jobs still run to completion.
func TestJobLogDegradedDraining(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		c.JobLogDir = t.TempDir()
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointJoblogAppend, Action: faultinject.ActError,
			Every: 1, Count: 1,
		})
	})
	defer s.Close()
	h := s.Handler()

	// First submit: the submit-record append fails, degrading the log.
	// The job itself is still accepted (append failure is non-fatal for
	// in-memory execution) but the node starts draining.
	j := submitJob(t, h, "Drop", "Random")

	waitUntil(t, 10*time.Second, "draining readiness", func() bool {
		code, body := getPath(t, h, "/readyz")
		return code == http.StatusServiceUnavailable &&
			strings.Contains(string(body), "degraded")
	})

	code, body := postJSON(t, h, "/v1/assess", assessRequest{
		Dataset: "tpch", Advisor: "Drop", Method: "Random",
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %s, want 503", code, body)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Errorf("drain rejection body %q does not mention degradation", body)
	}

	fin := pollTerminal(t, h, j.ID, time.Minute)
	if fin.Status != JobDone {
		t.Errorf("accepted job after degradation: %s (err=%q)", fin.Status, fin.Error)
	}
	metricAtLeast(t, h, "trapd_joblog_degraded", 1)
}

// TestHubSlowConsumerEviction verifies the SSE hub never blocks on a
// stalled subscriber: the laggard's channel is closed once its buffer
// fills, and a reconnect with Last-Event-ID replays what it missed from
// the retained backlog.
func TestHubSlowConsumerEviction(t *testing.T) {
	h := newJobHub()
	_, ch := h.subscribe(0)
	if ch == nil {
		t.Fatal("subscribe on open hub returned nil channel")
	}

	total := subBuffer + 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			h.publish(JobEvent{Type: evEpoch, Epoch: i + 1})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow consumer")
	}

	// The evicted channel holds its buffered prefix and is then closed.
	n := 0
	for range ch {
		n++
	}
	if n != subBuffer {
		t.Fatalf("evicted consumer drained %d events, want %d buffered", n, subBuffer)
	}

	// Reconnect after the last seen Seq: the backlog fills the gap.
	replay, ch2 := h.subscribe(int64(n))
	if ch2 == nil {
		t.Fatal("re-subscribe returned nil channel on open hub")
	}
	defer h.unsubscribe(ch2)
	if len(replay) != total-n {
		t.Fatalf("resume replayed %d events, want %d", len(replay), total-n)
	}
	if replay[0].Seq != int64(n)+1 || replay[len(replay)-1].Seq != int64(total) {
		t.Fatalf("resume range [%d,%d], want [%d,%d]",
			replay[0].Seq, replay[len(replay)-1].Seq, n+1, total)
	}
}
