package service

import (
	"fmt"
	"net/http"
	"strings"

	"github.com/trap-repro/trap/internal/telemetry"
)

// Per-job training/attack telemetry: every job entry holds a
// telemetry.Scope that the domain loops (internal/core RL epochs,
// internal/assess attack steps) append ring-buffered series into via the
// job context. The scope lives exactly as long as the job's entry —
// until the GC drops the job — and is served by
// GET /v1/jobs/{id}/telemetry as JSON or CSV.

// rlPoints filters a scope's latest values down to the per-epoch RL
// series (rl_loss, rl_mean_reward, ...), the points each epoch's SSE
// "telemetry" event carries.
func rlPoints(sc *telemetry.Scope) map[string]float64 {
	latest := sc.Latest()
	pts := make(map[string]float64, len(latest))
	for name, v := range latest {
		if strings.HasPrefix(name, "rl_") {
			pts[name] = v
		}
	}
	if len(pts) == 0 {
		return nil
	}
	return pts
}

// GET /v1/jobs/{id}/telemetry

// telemetryResponse is the JSON envelope: every series the job has
// recorded, each with its ring-buffer contents and current stride
// (stride > 1 means points beyond the buffer capacity were downsampled
// into coarser means).
type telemetryResponse struct {
	Job    string                 `json:"job"`
	Series []telemetry.SeriesDump `json:"series"`
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
	dump := e.scope.Snapshot()
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
	if dump == nil {
		dump = []telemetry.SeriesDump{}
	}
	writeJSON(w, http.StatusOK, telemetryResponse{Job: id, Series: dump})
}
