package service

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	for _, v := range []string{"nope", "NaN", "Inf", "%2BInf", "1e300"} {
		if code, _ := getPath(t, h, "/v1/traces?min_ms="+v); code != http.StatusBadRequest {
			t.Fatalf("bad min_ms %s: %d", v, code)
		}
	}
	if code, _ := getPath(t, h, "/v1/traces?status=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad status: %d", code)
	}
}

// TestMetricsFormats checks the /metrics exposition: Prometheus 0.0.4,
// also for the retired ?format=plain and ?format=openmetrics.
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

	for _, format := range []string{"plain", "openmetrics"} {
		rec = getRecorder(t, h, "/metrics?format="+format)
		if ct := rec.Header().Get("Content-Type"); ct != obs.ContentTypeProm {
			t.Fatalf("?format=%s content type: %q, want the Prometheus default", format, ct)
		}
		if !strings.Contains(rec.Body.String(), "# TYPE trapd_http_requests_total counter") {
			t.Fatalf("?format=%s did not serve the Prometheus exposition:\n%.200s", format, rec.Body.String())
		}
	}
}

// TestJobSpanMetrics runs one TRAP job on a fresh server with a spool
// and checks that the job's spans are its one source of latency metrics
// and of progress events: every RL epoch's checkpoint has its own
// rl.checkpoint span, trapd_span_seconds counts every span of the job's
// trace under its name, and the SSE stream carries one epoch event per
// RL epoch, each directly followed by its telemetry event, and one cell
// event per measured workload.
func TestJobSpanMetrics(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		c.Params.RLEpochs = 2
		c.SpoolDir = t.TempDir()
	})
	defer s.Close()
	h := s.Handler()
	done := waitForJob(t, h, submitJob(t, h, "Drop", "TRAP").ID, JobDone, 2*time.Minute)

	code, body := getPath(t, h, "/v1/traces/"+done.TraceID)
	if code != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", code, body)
	}
	var tj trace.TraceJSON
	if err := json.Unmarshal(body, &tj); err != nil {
		t.Fatal(err)
	}
	if tj.Root == nil || tj.Dropped != 0 {
		t.Fatalf("trace: root %v, %d spans dropped", tj.Root != nil, tj.Dropped)
	}
	spans := map[string]int{}
	var walk func(*trace.SpanJSON)
	walk = func(sp *trace.SpanJSON) {
		spans[sp.Name]++
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(tj.Root)
	t.Logf("spans by name: %v", spans)
	for _, name := range []string{"trapd.job", "assess.build_method", "assess.measure", "rl.epoch", "pretrain.epoch"} {
		if spans[name] == 0 {
			t.Errorf("trace has no %s span (has %v)", name, spans)
		}
	}
	if spans["rl.checkpoint"] != spans["rl.epoch"] {
		t.Errorf("trace has %d rl.checkpoint spans for %d rl.epoch spans", spans["rl.checkpoint"], spans["rl.epoch"])
	}

	_, metrics := getPath(t, h, "/metrics")
	for name, n := range spans {
		series := fmt.Sprintf("trapd_span_seconds_count{span=%q}", name)
		if got, ok := metricValue(metrics, series); !ok || got != float64(n) {
			t.Errorf("%s = %v (present %v), want the trace's %d spans", series, got, ok, n)
		}
	}
	for _, line := range strings.Split(string(metrics), "\n") {
		if rest, ok := strings.CutPrefix(line, `trapd_span_seconds_count{span="`); ok {
			if name := rest[:strings.IndexByte(rest, '"')]; spans[name] == 0 {
				t.Errorf("metrics count %q spans, which the job's trace does not have", name)
			}
		}
	}
	if strings.Contains(string(metrics), "# EOF") || strings.Contains(string(metrics), "trace_id") {
		t.Errorf("metrics carry OpenMetrics syntax:\n%.400s", metrics)
	}

	code, body = getPath(t, h, "/v1/jobs/"+done.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	frames := readSSE(t, bytes.NewReader(body), 1<<20)
	epochs := 0
	cells := map[int]int{}
	for i, f := range frames {
		switch f.Event {
		case evEpoch:
			epochs++
			if f.Data.Epoch != epochs {
				t.Errorf("epoch event %d carries epoch %d", epochs, f.Data.Epoch)
			}
			if i+1 == len(frames) || frames[i+1].Event != evTelemetry || frames[i+1].Data.Epoch != epochs {
				t.Errorf("epoch event %d is not directly followed by its telemetry event", epochs)
			}
		case evTelemetry:
			if i == 0 || frames[i-1].Event != evEpoch {
				t.Errorf("telemetry event for epoch %d follows no epoch event", f.Data.Epoch)
			}
		case evCell:
			if f.Data.Workload == nil {
				t.Fatal("cell event without workload index")
			}
			cells[*f.Data.Workload]++
		}
	}
	if want := s.cfg.Params.RLEpochs; epochs != want {
		t.Errorf("stream carried %d epoch events, want %d", epochs, want)
	}
	if want := s.cfg.Params.TestWorkloads; len(cells) != want {
		t.Errorf("cell events for workloads %v, want one for each of %d", cells, want)
	}
	for w, n := range cells {
		if n != 1 {
			t.Errorf("workload %d has %d cell events, want 1", w, n)
		}
	}
}

// TestRouteCountersBounded: per-route request counters are named by the
// route that matched, so unknown paths share one series and the route
// table bounds how many there are.
func TestRouteCountersBounded(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	routeSeries := func() int {
		n := 0
		for name := range s.reg.Values() {
			if strings.HasPrefix(name, "trapd_http_requests_total{") {
				n++
			}
		}
		return n
	}
	before := routeSeries()
	for i := 0; i < 200; i++ {
		if code, _ := getPath(t, h, fmt.Sprintf("/no/such/path/%d", i)); code != http.StatusNotFound {
			t.Fatalf("unknown path: %d, want 404", code)
		}
	}
	if added := routeSeries() - before; added > 1 {
		t.Fatalf("200 unknown paths added %d route series, want at most 1", added)
	}
	getPath(t, h, "/v1/jobs/job-999999")
	if _, ok := s.reg.Values()[`trapd_http_requests_total{route="GET /v1/jobs/{id}"}`]; !ok {
		t.Fatal("no request counter named by the matched route GET /v1/jobs/{id}")
	}
}
