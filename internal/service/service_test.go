package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/faultinject"
	olog "github.com/trap-repro/trap/internal/obs/log"
	"github.com/trap-repro/trap/internal/schema"
)

// tinyParams shrinks QuickParams so the shared test server builds in a
// couple of seconds.
func tinyParams() assess.Params {
	p := assess.QuickParams()
	p.Templates = 8
	p.TrainWorkloads = 3
	p.TestWorkloads = 3
	p.WorkloadSize = 4
	p.UtilitySamples = 200
	p.PretrainPairs = 4
	p.PretrainEpochs = 1
	p.RLEpochs = 1
	p.AdvisorEpisodes = 8
	return p
}

// discardLogger keeps test servers quiet.
func discardLogger() *olog.Logger {
	return olog.New(io.Discard, slog.LevelInfo, olog.FormatText)
}

var (
	testSrvOnce sync.Once
	testSrv     *Server
	testSrvErr  error
)

// testServer builds one shared tpch server: one worker and a depth-2
// queue so the queue-full and drain paths are exercisable.
func testServer(t *testing.T) *Server {
	t.Helper()
	testSrvOnce.Do(func() {
		testSrv, testSrvErr = NewServer(Config{
			Datasets:       []string{"tpch"},
			Params:         tinyParams(),
			Seed:           7,
			Workers:        1,
			QueueDepth:     2,
			RequestTimeout: 30 * time.Second,
			JobTimeout:     2 * time.Minute,
			Logger:         discardLogger(),
		})
	})
	if testSrvErr != nil {
		t.Fatal(testSrvErr)
	}
	return testSrv
}

func postJSON(t *testing.T, h http.Handler, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func getPath(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	h := testServer(t).Handler()
	code, body := getPath(t, h, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var resp healthResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || len(resp.Datasets) != 1 || resp.Datasets[0] != "tpch" {
		t.Fatalf("healthz payload: %+v", resp)
	}
}

func TestParseEndpoint(t *testing.T) {
	h := testServer(t).Handler()

	code, body := postJSON(t, h, "/v1/parse", parseRequest{
		SQL: "SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_orderkey = 5",
	})
	if code != http.StatusOK {
		t.Fatalf("parse: %d %s", code, body)
	}
	var resp parseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tables) != 1 || resp.Tables[0] != "lineitem" || resp.Tokens == 0 {
		t.Fatalf("parse payload: %+v", resp)
	}

	// Parse errors are 400s with a JSON error envelope.
	code, body = postJSON(t, h, "/v1/parse", parseRequest{SQL: "SELECT FROM WHERE"})
	if code != http.StatusBadRequest {
		t.Fatalf("bad SQL: %d %s", code, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("error envelope: %s", body)
	}

	// Malformed JSON is a 400 too.
	req := httptest.NewRequest("POST", "/v1/parse", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", rec.Code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	code, body := postJSON(t, h, "/v1/explain", explainRequest{
		Dataset: "tpch",
		SQL:     "SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_orderkey = 5",
		Indexes: []string{"lineitem(l_orderkey)"},
	})
	if code != http.StatusOK {
		t.Fatalf("explain: %d %s", code, body)
	}
	var resp explainResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.EstimatedCost <= 0 || resp.TrueCost <= 0 || resp.RuntimeCost <= 0 {
		t.Fatalf("explain costs: %+v", resp)
	}
	if !strings.Contains(resp.EstimatedPlan, "Index") {
		t.Fatalf("expected an index scan in plan:\n%s", resp.EstimatedPlan)
	}

	// Bad index spec.
	code, _ = postJSON(t, h, "/v1/explain", explainRequest{
		Dataset: "tpch", SQL: "SELECT lineitem.l_quantity FROM lineitem", Indexes: []string{"oops"},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("bad index spec: %d", code)
	}
}

func TestUnknownDataset(t *testing.T) {
	h := testServer(t).Handler()
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/explain", explainRequest{Dataset: "mysterydb", SQL: "SELECT lineitem.l_quantity FROM lineitem"}},
		{"/v1/advise", adviseRequest{Dataset: "mysterydb", Advisor: "Extend", Queries: []string{"SELECT lineitem.l_quantity FROM lineitem"}}},
		{"/v1/assess", assessRequest{Dataset: "mysterydb", Advisor: "Extend"}},
	} {
		code, body := postJSON(t, h, tc.path, tc.body)
		if code != http.StatusNotFound {
			t.Errorf("%s with unknown dataset: got %d %s", tc.path, code, body)
		}
	}
}

func TestAdviseEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	code, body := postJSON(t, h, "/v1/advise", adviseRequest{
		Dataset: "tpch",
		Advisor: "Extend",
		Queries: []string{
			"SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_orderkey = 5",
			"SELECT orders.o_totalprice FROM orders WHERE orders.o_custkey = 7",
		},
	})
	if code != http.StatusOK {
		t.Fatalf("advise: %d %s", code, body)
	}
	var resp adviseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Advisor != "Extend" {
		t.Fatalf("advise payload: %+v", resp)
	}
	if len(resp.Indexes) == 0 || resp.WhatIfImprovement <= 0 {
		t.Fatalf("expected a useful recommendation, got %+v", resp)
	}
	// Recommended specs round-trip through the index-spec parser.
	if _, err := schema.ParseIndexes(resp.Indexes); err != nil {
		t.Fatalf("unparseable recommendation %v: %v", resp.Indexes, err)
	}

	// Unknown advisor is a 400.
	code, _ = postJSON(t, h, "/v1/advise", adviseRequest{
		Dataset: "tpch", Advisor: "Oracle", Queries: []string{"SELECT lineitem.l_quantity FROM lineitem"},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown advisor: %d", code)
	}
}

func TestRequestDeadline(t *testing.T) {
	s := testServer(t)
	old := s.cfg.RequestTimeout
	s.cfg.RequestTimeout = time.Nanosecond
	defer func() { s.cfg.RequestTimeout = old }()

	code, body := postJSON(t, s.Handler(), "/v1/advise", adviseRequest{
		Dataset: "tpch",
		Advisor: "Extend",
		Queries: []string{"SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_orderkey = 5"},
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expected 504, got %d %s", code, body)
	}
}

// costCounter is an injector that only counts engine.cost hits.
type costCounter struct{ hits atomic.Int64 }

func (c *costCounter) Fire(string) error {
	c.hits.Add(1)
	return nil
}

// TestAdviseDeadlineStopsTraining: when /v1/advise trains a learned
// advisor past the request deadline, training stops within about a
// second of the 504 instead of running to the end on an abandoned
// goroutine.
func TestAdviseDeadlineStopsTraining(t *testing.T) {
	p := tinyParams()
	p.AdvisorEpisodes = 1_000_000
	in := &costCounter{}
	s, err := NewServer(Config{
		Datasets:       []string{"tpch"},
		Params:         p,
		Seed:           7,
		Workers:        1,
		RequestTimeout: 200 * time.Millisecond,
		Injector:       in,
		Logger:         discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := postJSON(t, s.Handler(), "/v1/advise", adviseRequest{
		Dataset: "tpch",
		Advisor: "SWIRL",
		Queries: []string{"SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_orderkey = 5"},
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expected 504, got %d %s", code, body)
	}
	if in.hits.Load() == 0 {
		t.Fatal("training priced no query before the deadline; the check proves nothing")
	}
	// SWIRL checks its context at every episode boundary.
	time.Sleep(time.Second)
	before := in.hits.Load()
	time.Sleep(500 * time.Millisecond)
	if after := in.hits.Load(); after != before {
		t.Fatalf("training still running after the 504: %d what-if calls in 500ms", after-before)
	}
}

func waitForJob(t *testing.T, h http.Handler, id string, want JobStatus, timeout time.Duration) Job {
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
		if j.Status == want {
			return j
		}
		if j.Status == JobFailed || j.Status == JobCanceled {
			t.Fatalf("job %s ended %s: %s", id, j.Status, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, j.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAssessJobLifecycle(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	code, body := postJSON(t, h, "/v1/assess", assessRequest{
		Dataset: "tpch", Advisor: "Drop", Method: "Random", Constraint: "shared",
	})
	if code != http.StatusAccepted {
		t.Fatalf("assess submit: %d %s", code, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.Status != JobPending || j.ID == "" {
		t.Fatalf("submitted job: %+v", j)
	}

	done := waitForJob(t, h, j.ID, JobDone, time.Minute)
	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	if done.Started == nil || done.Finished == nil {
		t.Fatalf("job lifecycle timestamps missing: %+v", done)
	}
	if done.Result.Workloads < 0 || done.Result.Pairs == 0 {
		t.Fatalf("job result: %+v", done.Result)
	}

	// Unknown job IDs are 404s.
	if code, _ := getPath(t, h, "/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}

	// After a completed assessment the metrics exposition shows what-if
	// traffic and plan-cache activity.
	code, body = getPath(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, metric := range []string{
		"engine_whatif_calls_total",
		"engine_plan_cache_hits_total",
		"engine_plan_cache_misses_total",
		`engine_plan_cache_entries{dataset="tpch"}`,
		"advisor_recommend_total",
		"assess_measure_seconds_count",
		"trapd_jobs_done_total",
	} {
		val, ok := metricValue(body, metric)
		if !ok {
			t.Errorf("metrics missing %s", metric)
			continue
		}
		if val <= 0 {
			t.Errorf("metric %s is zero after an assessment", metric)
		}
	}
}

// metricValue extracts "name value" from the exposition text.
func metricValue(body []byte, name string) (float64, bool) {
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// TestQueueFullAndDrain saturates a single worker, checks queue
// overflow handling (the refused submission leaves no job behind, not
// even in the job log), then shuts the pool down and verifies the
// running job drains while queued jobs cancel. It uses a dedicated
// server with an injected per-workload delay so the first job stays
// observably running: on a warm cache the batch-costing path finishes a
// Drop/Random assessment faster than the poll interval.
func TestQueueFullAndDrain(t *testing.T) {
	dir := t.TempDir()
	s := newFaultServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 2
		c.JobLogDir = dir
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLWorkload, Action: faultinject.ActDelay,
			Every: 1, Delay: 200 * time.Millisecond,
		})
	})
	h := s.Handler()

	// Only the GRU job RL-trains, so only it hits the delay point; wait
	// for the worker to pick it up so the queue slots are free for the
	// jobs below.
	running := submitJob(t, h, "Drop", "GRU")
	waitForJob(t, h, running.ID, JobRunning, 30*time.Second)

	var queued []Job
	for i := 0; i < 2; i++ {
		queued = append(queued, submitJob(t, h, "Drop", "Random"))
	}
	// Queue (depth 2) is now full: the next submission is rejected.
	code, _ := postJSON(t, h, "/v1/assess", assessRequest{
		Dataset: "tpch", Advisor: "Drop", Method: "Random",
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 on full queue, got %d", code)
	}
	accepted := []string{running.ID, queued[0].ID, queued[1].ID}
	if got := listedJobIDs(t, h); got != strings.Join(accepted, ",") {
		t.Fatalf("/v1/jobs after the refusal lists %s, want only the accepted %v", got, accepted)
	}
	_, body := getPath(t, h, "/metrics")
	if v, _ := metricValue(body, "trapd_jobs_submitted_total"); v != 3 {
		t.Fatalf("trapd_jobs_submitted_total = %g after 3 accepted and 1 refused, want 3", v)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.Drain(ctx)

	j, _ := s.jobs.get(running.ID)
	if j.Status != JobDone {
		t.Fatalf("running job should drain to done, got %s (%s)", j.Status, j.Error)
	}
	for _, q := range queued {
		got, _ := s.jobs.get(q.ID)
		if got.Status != JobCanceled {
			t.Errorf("queued job %s: want canceled, got %s", q.ID, got.Status)
		}
	}

	// A restart on the job log restores the accepted jobs only.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newFaultServer(t, func(c *Config) { c.JobLogDir = dir })
	defer s2.Close()
	if got := listedJobIDs(t, s2.Handler()); got != strings.Join(accepted, ",") {
		t.Fatalf("restart restored %s, want only the accepted %v", got, accepted)
	}
}

// listedJobIDs returns the IDs /v1/jobs lists, comma-joined.
func listedJobIDs(t *testing.T, h http.Handler) string {
	t.Helper()
	code, body := getPath(t, h, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list jobs: %d %s", code, body)
	}
	var resp jobListResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, j := range resp.Jobs {
		ids = append(ids, j.ID)
	}
	return strings.Join(ids, ",")
}

// TestServeGracefulShutdown boots the real listener on the shared
// server, talks to it over TCP, cancels the serve context and verifies
// serve returns cleanly within the grace period.
func TestServeGracefulShutdown(t *testing.T) {
	s := testServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, ln) }()

	url := "http://" + ln.Addr().String() + "/healthz"
	var resp *http.Response
	for i := 0; ; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil && err != http.ErrServerClosed {
			t.Fatalf("serve returned: %v", err)
		}
	case <-time.After(shutdownGrace + 10*time.Second):
		t.Fatal("serve did not shut down")
	}
}
