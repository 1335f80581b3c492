package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"github.com/trap-repro/trap/internal/telemetry"
)

// Per-job training/attack telemetry: every job gets a telemetry.Scope
// that the domain loops (internal/core RL epochs, internal/assess
// attack steps) append ring-buffered series into via the job context.
// The scope lives exactly as long as the job does — created when the
// run starts, dropped when the GC drops the job — and is served by
// GET /v1/jobs/{id}/telemetry as JSON or CSV.

// scopeStore owns the per-job telemetry scopes.
type scopeStore struct {
	mu sync.Mutex
	m  map[string]*telemetry.Scope
}

func newScopeStore() *scopeStore {
	return &scopeStore{m: map[string]*telemetry.Scope{}}
}

// getOrCreate returns the job's scope, creating it on first use. The
// scope survives retries: the series' monotonic step gates dedup re-run
// epochs.
func (st *scopeStore) getOrCreate(id string) *telemetry.Scope {
	st.mu.Lock()
	defer st.mu.Unlock()
	sc, ok := st.m[id]
	if !ok {
		sc = telemetry.NewScope(telemetry.Options{})
		st.m[id] = sc
	}
	return sc
}

// get returns the job's scope, nil when none exists yet.
func (st *scopeStore) get(id string) *telemetry.Scope {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m[id]
}

// drop removes a job's scope (the job was GC'd).
func (st *scopeStore) drop(id string) {
	st.mu.Lock()
	delete(st.m, id)
	st.mu.Unlock()
}

// size counts live scopes (the trapd_telemetry_scopes gauge).
func (st *scopeStore) size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// rlPoints filters a scope's latest values down to the per-epoch RL
// series (rl_loss, rl_mean_reward, ...), the points each epoch's SSE
// "telemetry" event carries.
func rlPoints(sc *telemetry.Scope) map[string]float64 {
	if sc == nil {
		return nil
	}
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
	if _, ok := s.jobs.get(id); !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	dump := s.tscopes.get(id).Snapshot() // nil-scope safe: empty dump
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
