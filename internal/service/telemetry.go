package service

import (
	"fmt"
	"net/http"
	"slices"
	"sort"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/trace"
)

// Per-job training/attack telemetry is a view of what the job already
// records. The float attributes of its pretrain.epoch and rl.epoch spans
// (pretrain_loss, rl_loss, rl_mean_reward, ...) are its training series,
// one point per epoch at step epoch+1; the job's measured pairs are its
// attack_* series, one point per pair in pair order. The series live
// exactly as long as the job's entry — until the GC drops the job — and
// are served by GET /v1/jobs/{id}/telemetry as JSON or CSV.

// point is one sample of a series.
type point struct {
	Step  int64   `json:"step"`
	Value float64 `json:"value"`
}

// floatAttrs returns a span's float attributes keyed by name: an epoch
// span's training-series values (nil when it has none).
func floatAttrs(attrs []trace.Attr) map[string]float64 {
	var out map[string]float64
	for _, a := range attrs {
		if v, ok := a.Value.(float64); ok {
			if out == nil {
				out = make(map[string]float64, len(attrs))
			}
			out[a.Key] = v
		}
	}
	return out
}

// add appends one point to the named series. The caller holds e.mu.
func (e *jobEntry) add(name string, step int64, v float64) {
	e.series[name] = append(e.series[name], point{step, v})
}

// addPoints appends one point at step to each named series.
func (e *jobEntry) addPoints(step int64, vals map[string]float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, v := range vals {
		e.add(name, step, v)
	}
}

// addAttack appends the attack series of a measurement, one step per
// pair in pair order: the running counts of accepted and rejected
// perturbations (a non-sargable variant is a rejected action: it can
// never demonstrate index-utility degradation), and for each accepted
// one its utility delta and the best IUDR so far.
func (e *jobEntry) addAttack(pairs []assess.Pair) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var accepted, rejected, best float64
	for i, p := range pairs {
		step := int64(i + 1)
		if p.NonSargable {
			rejected++
		} else {
			accepted++
			if p.IUDR > best {
				best = p.IUDR
			}
			e.add("attack_cost_delta", step, p.U-p.UPert)
			e.add("attack_best_iudr", step, best)
		}
		e.add("attack_accepted", step, accepted)
		e.add("attack_rejected", step, rejected)
	}
}

// GET /v1/jobs/{id}/telemetry

// seriesDump is one series rendered for transport. Every point is a
// raw sample, so Stride is always 1 and Count the number of points.
type seriesDump struct {
	Name   string  `json:"name"`
	Stride int64   `json:"stride"`
	Count  int64   `json:"count"`
	Points []point `json:"points"`
}

// telemetryResponse is the JSON envelope: every series the job has
// recorded, sorted by name.
type telemetryResponse struct {
	Job    string       `json:"job"`
	Series []seriesDump `json:"series"`
}

// snapshot returns a copy of every series, sorted by name.
func (e *jobEntry) snapshot() []seriesDump {
	e.mu.Lock()
	out := make([]seriesDump, 0, len(e.series))
	for name, pts := range e.series {
		out = append(out, seriesDump{Name: name, Stride: 1, Count: int64(len(pts)), Points: slices.Clone(pts)})
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// handleJobTelemetry serves a job's time-series telemetry. The default
// is JSON; ?format=csv flattens every series into series,step,value
// rows for direct plotting.
func (s *Server) handleJobTelemetry(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, e := s.jobs.entry(id)
	if e == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	dump := e.snapshot()
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		fmt.Fprintf(w, "series,step,value\n")
		for _, sd := range dump {
			for _, p := range sd.Points {
				fmt.Fprintf(w, "%s,%d,%g\n", sd.Name, p.Step, p.Value)
			}
		}
		return
	}
	writeJSON(w, http.StatusOK, telemetryResponse{Job: id, Series: dump})
}
