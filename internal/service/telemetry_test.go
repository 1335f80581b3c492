package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/buildinfo"
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
