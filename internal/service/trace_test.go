package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/obs"
	"github.com/trap-repro/trap/internal/trace"
)

// getRecorder is getPath keeping the full recorder (headers included).
func getRecorder(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
	}
	return rec
}

// TestJobTraceEndToEnd runs a full assessment job and verifies the
// pipeline trace it produced: the job links to a retrievable trace
// whose span tree nests at least 4 levels deep (job → measure → cell →
// perturb/cost), with per-span durations consistent with the job's
// wall time, listable and exportable in the Chrome trace_event format.
func TestJobTraceEndToEnd(t *testing.T) {
	// Dedicated server: the shared one's worker pool may already be
	// drained by the graceful-shutdown test.
	s := newFaultServer(t, nil)
	h := s.Handler()
	sub := submitJob(t, h, "Drop", "Random")
	done := waitForJob(t, h, sub.ID, JobDone, time.Minute)
	if done.TraceID == "" {
		t.Fatalf("done job has no trace ID: %+v", done)
	}

	code, body := getPath(t, h, "/v1/traces/"+done.TraceID)
	if code != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", code, body)
	}
	var tj trace.TraceJSON
	if err := json.Unmarshal(body, &tj); err != nil {
		t.Fatal(err)
	}
	if tj.ID != done.TraceID || tj.Op != "trapd.job" || tj.Status != "ok" {
		t.Fatalf("trace header: %+v", tj)
	}
	if tj.Root == nil {
		t.Fatal("trace has no root span")
	}
	if got := tj.Root.Attrs["advisor"]; got != "Drop" {
		t.Fatalf("root advisor attr = %v", got)
	}

	// The tree must cover the pipeline build→measure at ≥4 nesting
	// levels, and every span must fit inside its parent's duration
	// budget (and the root inside the job's wall time).
	names := map[string]bool{}
	maxDepth := 0
	var walk func(sp *trace.SpanJSON, depth int, parentDur int64)
	walk = func(sp *trace.SpanJSON, depth int, parentDur int64) {
		names[sp.Name] = true
		if depth > maxDepth {
			maxDepth = depth
		}
		if sp.DurMicro < 0 || sp.DurMicro > parentDur+1000 {
			t.Errorf("span %s (%d) duration %dus exceeds parent budget %dus",
				sp.Name, sp.ID, sp.DurMicro, parentDur)
		}
		for _, c := range sp.Children {
			walk(c, depth+1, sp.DurMicro)
		}
	}
	walk(tj.Root, 1, tj.DurMicro)
	if maxDepth < 4 {
		t.Fatalf("span tree only %d levels deep, want >= 4:\n%s", maxDepth, body)
	}
	for _, want := range []string{"trapd.job", "assess.build_advisor", "assess.build_method",
		"assess.measure", "assess.cell", "core.perturb_workload"} {
		if !names[want] {
			t.Errorf("trace missing %s span (have %v)", want, names)
		}
	}
	wall := done.Finished.Sub(*done.Started)
	if rootDur := time.Duration(tj.DurMicro) * time.Microsecond; rootDur > wall+50*time.Millisecond {
		t.Fatalf("root span %v longer than job wall time %v", rootDur, wall)
	}

	// The list endpoint filters by op and surfaces the same trace.
	code, body = getPath(t, h, "/v1/traces?op=trapd.job&limit=100")
	if code != http.StatusOK {
		t.Fatalf("trace list: %d %s", code, body)
	}
	var list traceListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range list.Traces {
		if tr.Op != "trapd.job" {
			t.Fatalf("op filter leaked %s", tr.Op)
		}
		if tr.ID == done.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not in list of %d", done.TraceID, len(list.Traces))
	}

	// Chrome export: complete events with depth lanes.
	code, body = getPath(t, h, "/v1/traces/"+done.TraceID+"?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome export: %d %s", code, body)
	}
	var evs []trace.ChromeEvent
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) < 4 {
		t.Fatalf("chrome export has %d events", len(evs))
	}
	laneDepth := 0
	for _, ev := range evs {
		if ev.Ph != "X" || ev.PID != 1 {
			t.Fatalf("chrome event: %+v", ev)
		}
		if ev.TID > laneDepth {
			laneDepth = ev.TID
		}
	}
	if laneDepth < 3 { // depth lanes are 0-based: >=4 levels means TID >= 3
		t.Fatalf("chrome lanes only reach depth %d", laneDepth)
	}

	// Unknown and evicted traces are 404s.
	if code, _ := getPath(t, h, "/v1/traces/ffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown trace: %d", code)
	}
	// Bad filter params are 400s.
	if code, _ := getPath(t, h, "/v1/traces?min_ms=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad min_ms: %d", code)
	}
	if code, _ := getPath(t, h, "/v1/traces?status=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad status: %d", code)
	}
}

// TestMetricsFormats checks the two /metrics expositions: Prometheus
// 0.0.4 by default (also for the retired ?format=plain) and OpenMetrics
// (with exemplars and # EOF) on request.
func TestMetricsFormats(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	rec := getRecorder(t, h, "/metrics")
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("prom content type: %q", ct)
	}
	out := rec.Body.String()
	if !strings.Contains(out, "# TYPE trapd_http_requests_total counter") {
		t.Fatalf("prom format missing TYPE header:\n%.400s", out)
	}
	if !strings.Contains(out, "# HELP trapd_jobs_submitted_total") {
		t.Fatalf("prom format missing HELP for described metric:\n%.400s", out)
	}
	if !strings.Contains(out, "# TYPE go_goroutines gauge") {
		t.Fatal("runtime health gauges not registered")
	}
	if strings.Contains(out, "# EOF") {
		t.Fatal("0.0.4 exposition must not contain # EOF")
	}

	rec = getRecorder(t, h, "/metrics?format=openmetrics")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("openmetrics content type: %q", ct)
	}
	if !strings.HasSuffix(rec.Body.String(), "# EOF\n") {
		t.Fatal("openmetrics missing # EOF")
	}

	rec = getRecorder(t, h, "/metrics?format=plain")
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentTypeProm {
		t.Fatalf("?format=plain content type: %q, want the Prometheus default", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE trapd_http_requests_total counter") {
		t.Fatalf("?format=plain did not serve the Prometheus exposition:\n%.200s", rec.Body.String())
	}
}
