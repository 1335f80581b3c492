package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/trace"
)

// shortRun is a one-op run of a workload: the assessment workloads on
// the reference seed alone, trapd_open with a one-second load.
func shortRun(t *testing.T, workload string, traced bool) *run {
	t.Helper()
	var out bytes.Buffer
	r := &run{workload: workload, seed: referenceSeed, seconds: 1, traced: traced, log: &out, m: map[string]float64{}}
	var err error
	switch workload {
	case "grid_cold", "attack_full":
		spec := gridSpec()
		if workload == "attack_full" {
			spec = attackSpec()
		}
		spec.pool = 1
		err = runAssessOps(r, spec)
	default:
		err = workloads[workload](r)
	}
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	r.finish()
	if _, err := r.result(); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if r.failed != 0 || len(r.invalid) != 0 || r.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed, invalid %v\n%s", workload, r.failed, r.attempted, r.invalid, out.String())
	}
	return r
}

func TestShortModePassesOutputCheck(t *testing.T) {
	for _, w := range []string{"grid_cold", "attack_full", "trapd_open"} {
		t.Run(w, func(t *testing.T) {
			r := shortRun(t, w, false)
			for _, d := range endToEnd {
				if r.m[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, r.m[d.name])
				}
			}
		})
	}
}

func TestTracedRunSelfTimeSumsToWall(t *testing.T) {
	for _, w := range []string{"grid_cold", "attack_full"} {
		t.Run(w, func(t *testing.T) {
			r := shortRun(t, w, true)
			if c := r.m["bench.selftime_coverage"]; math.Abs(c-1) > 0.05 {
				t.Errorf("self times sum to %.4f of wall time, want within 5%%", c)
			}
			var shares float64
			for _, b := range cpuBuckets {
				shares += r.m["cpu."+b]
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("cpu shares sum to %v, want 1", shares)
			}
			if _, ok := r.m["bench.trace_overhead"]; !ok {
				t.Error("trace overhead not reported")
			}
		})
	}
}

// TestDecoratorKeepsOutputsBitIdentical runs the same cells with the
// advisor and its baseline wrapped and unwrapped, each on a fresh suite.
func TestDecoratorKeepsOutputsBitIdentical(t *testing.T) {
	p := assess.QuickParams()
	cells := func(wrap bool) []assess.Assessment {
		suite, err := assess.NewSuite("tpch", bench.TPCH(p.ScaleDown), p, referenceSeed)
		if err != nil {
			t.Fatal(err)
		}
		st := &recStats{}
		var out []assess.Assessment
		for _, name := range []string{"Extend", "SWIRL"} {
			spec, err := assess.SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			adv, err := suite.BuildAdvisor(spec)
			if err != nil {
				t.Fatal(err)
			}
			base := suite.BaselineAdvisor(spec)
			if wrap {
				adv, base = st.wrap(adv), st.wrap(base)
			}
			ac := suite.ConstraintFor(spec)
			for _, m := range []string{"Random", "TRAP"} {
				meth, err := suite.BuildMethod(context.Background(), m, core.SharedTable, adv, base, ac, assess.MethodConfig{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := suite.Measure(context.Background(), meth, adv, base, ac)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, *res)
			}
		}
		if wrap && st.calls.Load() == 0 {
			t.Fatal("the decorator saw no Recommend calls")
		}
		return out
	}
	plain, wrapped := cells(false), cells(true)
	for i := range plain {
		a, b := plain[i], wrapped[i]
		if math.Float64bits(a.MeanIUDR) != math.Float64bits(b.MeanIUDR) || a.N != b.N || len(a.Pairs) != len(b.Pairs) {
			t.Errorf("cell %d: unwrapped %v/%d/%d, wrapped %v/%d/%d",
				i, a.MeanIUDR, a.N, len(a.Pairs), b.MeanIUDR, b.N, len(b.Pairs))
		}
		for k := range a.Pairs {
			if math.Float64bits(a.Pairs[k].IUDR) != math.Float64bits(b.Pairs[k].IUDR) {
				t.Errorf("cell %d pair %d: IUDR %v vs %v", i, k, a.Pairs[k].IUDR, b.Pairs[k].IUDR)
			}
		}
	}
}

// TestSelfTimesSplitConcurrentSiblings checks the attribution on a
// hand-built trace: a root of 10s with two children overlapping for 4s.
func TestSelfTimesSplitConcurrentSiblings(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	span := func(name string, from, to float64, kids ...*trace.SpanJSON) *trace.SpanJSON {
		return &trace.SpanJSON{Name: name, Start: at(from), DurMicro: int64((to - from) * 1e6), Children: kids}
	}
	root := span("root", 0, 10, span("a", 0, 6), span("b", 2, 8))
	// One Recommend call inside b's exclusive stretch.
	got := selfTimes(root, []interval{{at(6.5), at(7)}})
	want := map[string]float64{"root": 2, "a": 4, "b": 3.5, "advisor.recommend": 0.5}
	var total float64
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s: self %v, want %v", name, got[name], w)
		}
		total += got[name]
	}
	if math.Abs(total-10) > 1e-9 || len(got) != len(want) {
		t.Errorf("self times %v sum to %v, want 10", got, total)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the benchmark's metric lists,
// BENCHMARK.json and the per-layer targets in targets.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	type def struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &cfg)
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %v, code %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	var targets struct {
		PerLayer map[string]struct {
			Layer string   `json:"layer"`
			Moves []string `json:"moves"`
		} `json:"per_layer"`
	}
	readJSON(t, "targets.json", &targets)
	for _, d := range perLayer {
		tg, ok := targets.PerLayer[d.name]
		if !ok || tg.Layer == "" {
			t.Errorf("targets.json has no layer for %s", d.name)
		}
		for _, m := range tg.Moves {
			metric, wl, ok := strings.Cut(m, "@")
			if !ok || workloads[wl] == nil || !isEndToEnd(metric) {
				t.Errorf("%s: target %q is not <end-to-end metric>@<workload>", d.name, m)
			}
		}
	}
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
