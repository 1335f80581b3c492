package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/buildinfo"
	"github.com/trap-repro/trap/internal/trace"
)

func TestVersionEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	code, body := getPath(t, h, "/version")
	if code != http.StatusOK {
		t.Fatalf("version: %d %s", code, body)
	}
	var resp versionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.GoVersion == "" || resp.GitRev == "" {
		t.Fatalf("version payload missing build info: %+v", resp)
	}
	if resp.Uptime == "" {
		t.Fatalf("version payload missing uptime: %+v", resp)
	}

	// The same build info is exported as a constant-1 gauge so dashboards
	// can join metrics to the running revision.
	bi := buildinfo.Get()
	gauge := fmt.Sprintf("trap_build_info{git_rev=%q,go_version=%q}", bi.GitRev, bi.GoVersion)
	_, mbody := getPath(t, h, "/metrics")
	if v, ok := metricValue(mbody, gauge); !ok || v != 1 {
		t.Errorf("metrics missing %s = 1 (ok=%v v=%g)", gauge, ok, v)
	}
}

// TestJobTelemetryEndToEnd runs a TRAP assessment (pretraining, RL
// training and the attack loop) and checks the whole telemetry surface: the per-job
// series endpoint in JSON and CSV, and the SSE stream's "telemetry"
// events carrying per-epoch training points with monotonic epochs.
func TestJobTelemetryEndToEnd(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		c.Params.RLEpochs = 2
	})
	defer s.Close()
	h := s.Handler()

	j := submitJob(t, h, "Drop", "TRAP")
	done := waitForJob(t, h, j.ID, JobDone, 2*time.Minute)
	if done.Result == nil {
		t.Fatal("done job has no result")
	}

	// JSON: training and attack series are all present with points.
	code, body := getPath(t, h, "/v1/jobs/"+j.ID+"/telemetry")
	if code != http.StatusOK {
		t.Fatalf("telemetry: %d %s", code, body)
	}
	var resp telemetryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Job != j.ID {
		t.Errorf("telemetry job = %q, want %q", resp.Job, j.ID)
	}
	series := map[string][]int64{}
	for _, sd := range resp.Series {
		if len(sd.Points) == 0 {
			t.Errorf("series %s has no points", sd.Name)
		}
		for _, p := range sd.Points {
			series[sd.Name] = append(series[sd.Name], p.Step)
		}
	}
	for _, name := range []string{
		"rl_loss", "rl_mean_reward", "rl_reward_var", "rl_grad_norm",
		"rl_entropy", "rl_rollout_ok_ratio", "pretrain_loss",
		"attack_cost_delta", "attack_best_iudr", "attack_accepted", "attack_rejected",
	} {
		steps, ok := series[name]
		if !ok {
			t.Errorf("telemetry missing series %s (have %v)", name, keysOf(series))
			continue
		}
		for i := 1; i < len(steps); i++ {
			if steps[i] <= steps[i-1] {
				t.Errorf("series %s steps not increasing: %v", name, steps)
				break
			}
		}
	}
	if got := len(series["rl_loss"]); got != 2 {
		t.Errorf("rl_loss points = %d, want 2 (one per epoch)", got)
	}

	// CSV rendering of the same data.
	code, body = getPath(t, h, "/v1/jobs/"+j.ID+"/telemetry?format=csv")
	if code != http.StatusOK {
		t.Fatalf("telemetry csv: %d %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if lines[0] != "series,step,value" {
		t.Fatalf("csv header = %q", lines[0])
	}
	csvSeries := map[string]bool{}
	for _, line := range lines[1:] {
		parts := strings.SplitN(line, ",", 3)
		if len(parts) != 3 {
			t.Fatalf("bad csv row %q", line)
		}
		csvSeries[parts[0]] = true
	}
	if !csvSeries["rl_loss"] || !csvSeries["attack_accepted"] {
		t.Errorf("csv missing series: %v", csvSeries)
	}

	// SSE backlog: telemetry events ride the job stream, one per epoch,
	// monotonically increasing, each carrying the rl_* points.
	code, body = getPath(t, h, "/v1/jobs/"+j.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	frames := readSSE(t, bytes.NewReader(body), 1<<20)
	lastEpoch := 0
	teleEvents := 0
	for _, f := range frames {
		if f.Event != evTelemetry {
			continue
		}
		teleEvents++
		if f.Data.Epoch <= lastEpoch {
			t.Errorf("telemetry epochs not monotonic: %d after %d", f.Data.Epoch, lastEpoch)
		}
		lastEpoch = f.Data.Epoch
		if f.Data.Points["rl_loss"] == 0 && f.Data.Points["rl_mean_reward"] == 0 {
			t.Errorf("telemetry event epoch %d has empty points: %+v", f.Data.Epoch, f.Data.Points)
		}
	}
	if teleEvents != 2 {
		t.Errorf("telemetry SSE events = %d, want 2 (one per epoch)", teleEvents)
	}

	// Unknown jobs are 404s.
	if code, _ := getPath(t, h, "/v1/jobs/job-999999/telemetry"); code != http.StatusNotFound {
		t.Errorf("unknown job telemetry: %d, want 404", code)
	}
}

func keysOf(m map[string][]int64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// jobTelemetry fetches a job's telemetry series keyed by name, checking
// that every listed series has points, stride 1 and a count equal to
// its number of points.
func jobTelemetry(t *testing.T, h http.Handler, id string) map[string][]point {
	t.Helper()
	code, body := getPath(t, h, "/v1/jobs/"+id+"/telemetry")
	if code != http.StatusOK {
		t.Fatalf("telemetry: %d %s", code, body)
	}
	var resp telemetryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	series := map[string][]point{}
	for _, sd := range resp.Series {
		if len(sd.Points) == 0 {
			t.Errorf("job %s lists series %s with no points", id, sd.Name)
		}
		if sd.Stride != 1 || sd.Count != int64(len(sd.Points)) {
			t.Errorf("job %s series %s: stride %d, count %d for %d points", id, sd.Name, sd.Stride, sd.Count, len(sd.Points))
		}
		series[sd.Name] = sd.Points
	}
	return series
}

// lastValue returns the value of a series' last point.
func lastValue(t *testing.T, series map[string][]point, name string) float64 {
	t.Helper()
	pts := series[name]
	if len(pts) == 0 {
		t.Fatalf("series %s has no points", name)
	}
	return pts[len(pts)-1].Value
}

// TestJobTelemetryListsRecordedSeries: a job lists only the series it
// recorded a point of. MCTS/Random trains nothing and measures no pair
// on this server, so it lists no training and no attack series; a
// Drop/TRAP job's attack counters end at its result's pair counts.
func TestJobTelemetryListsRecordedSeries(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		c.Params.RLEpochs = 2
	})
	defer s.Close()
	h := s.Handler()

	empty := waitForJob(t, h, submitJob(t, h, "MCTS", "Random").ID, JobDone, 2*time.Minute)
	if empty.Result == nil || empty.Result.Pairs != 0 {
		t.Fatalf("MCTS/Random result %+v: this test needs a job with no pairs", empty.Result)
	}
	if series := jobTelemetry(t, h, empty.ID); len(series) != 0 {
		t.Errorf("a job with no epochs and no pairs lists series %v", keysOfPoints(series))
	}

	done := waitForJob(t, h, submitJob(t, h, "Drop", "TRAP").ID, JobDone, 2*time.Minute)
	if done.Result == nil || done.Result.Pairs == 0 {
		t.Fatalf("Drop/TRAP result %+v: want measured pairs", done.Result)
	}
	series := jobTelemetry(t, h, done.ID)
	accepted := lastValue(t, series, "attack_accepted")
	rejected := lastValue(t, series, "attack_rejected")
	if accepted+rejected != float64(done.Result.Pairs) {
		t.Errorf("attack_accepted %g + attack_rejected %g, want the result's %d pairs", accepted, rejected, done.Result.Pairs)
	}
	if rejected != float64(done.Result.NonSargable) {
		t.Errorf("attack_rejected %g, want the result's %d non-sargable pairs", rejected, done.Result.NonSargable)
	}
}

// TestJobTelemetryMatchesTrace: a job's training series and its SSE
// telemetry events are a view of its epoch spans. Each rl_* and
// pretrain_loss point at step k is, bit for bit, the same-named
// attribute of the rl.epoch or pretrain.epoch span of epoch k-1, and
// each telemetry event carries exactly its own epoch span's rl_*
// attributes.
func TestJobTelemetryMatchesTrace(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		c.Params.RLEpochs = 2
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
	// want[series][step] is the attribute of the epoch span at step-1;
	// rlEpochs[step] holds each rl.epoch span's rl_* attributes.
	want := map[string]map[int64]float64{}
	rlEpochs := map[int64]map[string]float64{}
	var walk func(*trace.SpanJSON)
	walk = func(sp *trace.SpanJSON) {
		for _, c := range sp.Children {
			walk(c)
		}
		if sp.Name != "rl.epoch" && sp.Name != "pretrain.epoch" {
			return
		}
		ep, ok := sp.Attrs["epoch"].(float64)
		if !ok {
			t.Fatalf("%s span without an epoch: %v", sp.Name, sp.Attrs)
		}
		step := int64(ep) + 1
		if sp.Name == "rl.epoch" {
			rlEpochs[step] = map[string]float64{}
		}
		for k, v := range sp.Attrs {
			if !strings.HasPrefix(k, "rl_") && k != "pretrain_loss" {
				continue
			}
			if want[k] == nil {
				want[k] = map[int64]float64{}
			}
			want[k][step] = v.(float64)
			if sp.Name == "rl.epoch" {
				rlEpochs[step][k] = v.(float64)
			}
		}
	}
	walk(tj.Root)
	if len(rlEpochs) != s.cfg.Params.RLEpochs || len(want["pretrain_loss"]) == 0 {
		t.Fatalf("trace has %d rl.epoch spans and %d pretrain losses, want %d and some",
			len(rlEpochs), len(want["pretrain_loss"]), s.cfg.Params.RLEpochs)
	}

	series := jobTelemetry(t, h, done.ID)
	for name, byStep := range want {
		pts := series[name]
		if len(pts) != len(byStep) {
			t.Errorf("series %s has %d points, the trace %d epoch attributes", name, len(pts), len(byStep))
		}
		for _, p := range pts {
			if v, ok := byStep[p.Step]; !ok || math.Float64bits(v) != math.Float64bits(p.Value) {
				t.Errorf("series %s step %d = %v, epoch span attribute %v (present %v)", name, p.Step, p.Value, v, ok)
			}
		}
	}
	for name := range series {
		if (strings.HasPrefix(name, "rl_") || name == "pretrain_loss") && want[name] == nil {
			t.Errorf("series %s has no epoch span attribute", name)
		}
	}

	code, body = getPath(t, h, "/v1/jobs/"+done.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	events := 0
	for _, f := range readSSE(t, bytes.NewReader(body), 1<<20) {
		if f.Event != evTelemetry {
			continue
		}
		events++
		attrs := rlEpochs[int64(f.Data.Epoch)]
		if len(f.Data.Points) != len(attrs) {
			t.Errorf("telemetry event epoch %d points %v, epoch span rl_* attributes %v", f.Data.Epoch, f.Data.Points, attrs)
			continue
		}
		for k, v := range attrs {
			if got, ok := f.Data.Points[k]; !ok || math.Float64bits(got) != math.Float64bits(v) {
				t.Errorf("telemetry event epoch %d %s = %v (present %v), epoch span attribute %v", f.Data.Epoch, k, got, ok, v)
			}
		}
	}
	if events != len(rlEpochs) {
		t.Errorf("%d telemetry events for %d rl.epoch spans", events, len(rlEpochs))
	}
}

// TestJobSeriesAppendAndPoints: a job entry's series hold their points in
// append order, with stride 1 and a count of their points.
func TestJobSeriesAppendAndPoints(t *testing.T) {
	e := &jobEntry{series: map[string][]point{}}
	for step := int64(1); step <= 5; step++ {
		e.addPoints(step, map[string]float64{"s": 2 * float64(step)})
	}
	snap := e.snapshot()
	if len(snap) != 1 || snap[0].Name != "s" {
		t.Fatalf("snapshot = %+v, want one series s", snap)
	}
	sd := snap[0]
	if len(sd.Points) != 5 {
		t.Fatalf("got %d points, want 5", len(sd.Points))
	}
	for i, p := range sd.Points {
		if p.Step != int64(i+1) || p.Value != 2*float64(i+1) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	if sd.Stride != 1 || sd.Count != 5 {
		t.Fatalf("stride %d, count %d", sd.Stride, sd.Count)
	}
}

// TestJobSeriesSnapshotSorted: a job entry's snapshot lists its series
// sorted by name, each with its own points, copied so a later append does
// not show through.
func TestJobSeriesSnapshotSorted(t *testing.T) {
	e := &jobEntry{series: map[string][]point{}}
	for step := int64(1); step <= 3; step++ {
		e.addPoints(step, map[string]float64{"zeta": float64(step), "alpha": 2 * float64(step)})
	}
	e.addPoints(4, map[string]float64{"mid": 7})
	snap := e.snapshot()
	if len(snap) != 3 || snap[0].Name != "alpha" || snap[1].Name != "mid" || snap[2].Name != "zeta" {
		t.Fatalf("snapshot = %+v, want alpha, mid, zeta", snap)
	}
	for i, p := range snap[0].Points {
		if p.Step != int64(i+1) || p.Value != 2*float64(i+1) {
			t.Fatalf("alpha point %d = %+v", i, p)
		}
	}
	if sd := snap[1]; sd.Count != 1 || len(sd.Points) != 1 || sd.Points[0].Step != 4 || sd.Points[0].Value != 7 {
		t.Fatalf("mid = %+v", sd)
	}
	if sd := snap[2]; sd.Stride != 1 || sd.Count != 3 || len(sd.Points) != 3 {
		t.Fatalf("zeta: stride %d, count %d, %d points", sd.Stride, sd.Count, len(sd.Points))
	}
	e.addPoints(5, map[string]float64{"zeta": 5})
	if len(snap[2].Points) != 3 {
		t.Fatalf("an append after the snapshot shows through: %+v", snap[2].Points)
	}
}

// TestJobSeriesConcurrentAppend: a job's series take appends from the
// goroutines that end its spans while readers snapshot them (run it
// under -race).
func TestJobSeriesConcurrentAppend(t *testing.T) {
	e := &jobEntry{series: map[string][]point{}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			for step := int64(1); step <= 200; step++ {
				e.addPoints(step, map[string]float64{name: float64(step)})
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e.snapshot()
			}
		}()
	}
	wg.Wait()
	snap := e.snapshot()
	if len(snap) != 4 {
		t.Fatalf("%d series, want 4", len(snap))
	}
	for _, sd := range snap {
		for i, p := range sd.Points {
			if p.Step != int64(i+1) {
				t.Fatalf("series %s point %d has step %d", sd.Name, i, p.Step)
			}
		}
	}
}

func keysOfPoints(m map[string][]point) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
