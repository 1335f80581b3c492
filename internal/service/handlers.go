package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/trap-repro/trap/internal/admission"
	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/buildinfo"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/obs"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/trace"
	"github.com/trap-repro/trap/internal/workload"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/parse", s.handleParse)
	s.mux.HandleFunc("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("POST /v1/advise", s.handleAdvise)
	s.mux.HandleFunc("POST /v1/assess", s.handleAssess)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobsList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/telemetry", s.handleJobTelemetry)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	if s.cfg.EnablePprof {
		// Profiling a live assessment: with -pprof on, e.g.
		//   go tool pprof 'http://localhost:8080/debug/pprof/profile?seconds=30'
		// while a job runs captures the rollout and measurement pools,
		// their samples labelled by job and layer (see runJob).
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON request body, rejecting unknown fields.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}

// reqCtx bounds a synchronous handler by the configured request timeout.
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// writeCtxError maps a context error onto 504/499-style responses.
func writeCtxError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
		return
	}
	writeError(w, http.StatusServiceUnavailable, "request aborted: %v", err)
}

// GET /healthz

type healthResponse struct {
	Status   string            `json:"status"`
	Datasets []string          `json:"datasets"`
	Uptime   string            `json:"uptime"`
	Jobs     map[JobStatus]int `json:"jobs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:   "ok",
		Datasets: s.Datasets(),
		Uptime:   time.Since(s.start).Round(time.Millisecond).String(),
		Jobs:     s.jobs.countByStatus(),
	})
}

// GET /version

// versionResponse is the /version envelope: the binary's provenance as
// resolved by internal/buildinfo (also carried by the trap_build_info
// metric and the benchmark provenance records).
type versionResponse struct {
	buildinfo.Info
	Uptime string `json:"uptime"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, versionResponse{
		Info:   buildinfo.Get(),
		Uptime: time.Since(s.start).Round(time.Millisecond).String(),
	})
}

// GET /readyz

// readyResponse reports whether trapd should receive traffic.
type readyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	Queued int    `json:"queued"`
	Depth  int    `json:"depth"`
}

// handleReadyz is the load-balancer readiness gate, distinct from the
// /healthz liveness probe: the process can be alive (healthz 200) but
// not ready — still replaying the job log, with a degraded (read-only)
// job log, or with a saturated queue that would shed new work anyway.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	queued := s.pool.queued()
	resp := readyResponse{Queued: queued, Depth: s.cfg.QueueDepth}
	if !s.ready.Load() {
		resp.Reason = "replaying job log"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	if s.draining.Load() {
		resp.Reason = "job log degraded; draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	if queued >= s.cfg.QueueDepth {
		resp.Reason = "job queue saturated"
		w.Header().Set("Retry-After", retrySeconds(s.adm.CapacityRetryAfter(queued, time.Now())))
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	resp.Ready = true
	writeJSON(w, http.StatusOK, resp)
}

// GET /metrics
//
// The exposition is the Prometheus text format (0.0.4): counters and
// gauges as families with # TYPE headers, histograms as cumulative
// _bucket/_sum/_count series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentTypeProm)
	_ = s.reg.WriteProm(w)
}

// GET /v1/traces

// traceListResponse is the /v1/traces envelope.
type traceListResponse struct {
	Traces []trace.TraceJSON `json:"traces"`
}

// handleTraces lists retained traces, filterable by root operation
// (?op=trapd.job), minimum duration (?min_ms=250), outcome
// (?status=ok|error) and result size (?limit=20).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := trace.Filter{Op: q.Get("op"), Status: q.Get("status")}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		// NaN, ±Inf and anything past the largest Duration would convert
		// to a garbage (on amd64, minimum) Duration that keeps every trace.
		d := ms * float64(time.Millisecond)
		if err != nil || !(d >= 0 && d < math.MaxInt64) {
			writeError(w, http.StatusBadRequest, "bad min_ms %q", v)
			return
		}
		f.MinDur = time.Duration(d)
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		f.Limit = n
	}
	switch f.Status {
	case "", "ok", "error":
	default:
		writeError(w, http.StatusBadRequest, "bad status %q (want ok or error)", f.Status)
		return
	}
	resp := traceListResponse{Traces: []trace.TraceJSON{}}
	for _, tr := range s.tr.List(f) {
		resp.Traces = append(resp.Traces, tr.Summary())
	}
	writeJSON(w, http.StatusOK, resp)
}

// GET /v1/traces/{id}

// handleTrace returns one trace's full span tree; ?format=chrome
// exports trace_event JSON loadable in chrome://tracing / Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.tr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown trace %q (evicted or never sampled)", id)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		writeJSON(w, http.StatusOK, tr.Chrome())
		return
	}
	writeJSON(w, http.StatusOK, tr.Tree())
}

// POST /v1/parse

type parseRequest struct {
	SQL string `json:"sql"`
}

type parseResponse struct {
	Query   string   `json:"query"`
	Tables  []string `json:"tables"`
	Columns []string `json:"columns"`
	Tokens  int      `json:"tokens"`
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	var req parseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, err := sqlx.Parse(req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse error: %v", err)
		return
	}
	resp := parseResponse{Query: q.String(), Tables: q.Tables()}
	for _, c := range q.Columns() {
		resp.Columns = append(resp.Columns, c.String())
	}
	resp.Tokens = len(q.Tokens())
	writeJSON(w, http.StatusOK, resp)
}

// POST /v1/explain

type explainRequest struct {
	Dataset string   `json:"dataset"`
	SQL     string   `json:"sql"`
	Indexes []string `json:"indexes"`
}

type explainResponse struct {
	EstimatedPlan string  `json:"estimatedPlan"`
	TruePlan      string  `json:"truePlan"`
	EstimatedCost float64 `json:"estimatedCost"`
	TrueCost      float64 `json:"trueCost"`
	RuntimeCost   float64 `json:"runtimeCost"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	suite, ok := s.suiteFor(w, req.Dataset)
	if !ok {
		return
	}
	q, err := sqlx.Parse(req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse error: %v", err)
		return
	}
	cfg, err := schema.ParseIndexes(req.Indexes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	resp, err := runBounded(ctx, func() (*explainResponse, error) {
		est, err := suite.E.Plan(q, cfg, engine.ModeEstimated)
		if err != nil {
			return nil, err
		}
		tru, err := suite.E.Plan(q, cfg, engine.ModeTrue)
		if err != nil {
			return nil, err
		}
		rc, err := suite.E.RuntimeCost(q, cfg)
		if err != nil {
			return nil, err
		}
		return &explainResponse{
			EstimatedPlan: est.String(),
			TruePlan:      tru.String(),
			EstimatedCost: est.Cost,
			TrueCost:      tru.Cost,
			RuntimeCost:   rc,
		}, nil
	})
	if err != nil {
		if ctx.Err() != nil {
			writeCtxError(w, ctx.Err())
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "planning failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// POST /v1/advise

type adviseRequest struct {
	Dataset string   `json:"dataset"`
	Advisor string   `json:"advisor"`
	Queries []string `json:"queries"`
}

type adviseResponse struct {
	Advisor           string   `json:"advisor"`
	Indexes           []string `json:"indexes"`
	SizeBytes         float64  `json:"sizeBytes"`
	WhatIfImprovement float64  `json:"whatIfImprovement"`
	ElapsedMilli      int64    `json:"elapsedMs"`
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req adviseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	suite, ok := s.suiteFor(w, req.Dataset)
	if !ok {
		return
	}
	spec, err := assess.SpecByName(req.Advisor)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "queries must contain at least one SQL statement")
		return
	}
	var queries []*sqlx.Query
	for i, sql := range req.Queries {
		q, err := sqlx.Parse(sql)
		if err != nil {
			writeError(w, http.StatusBadRequest, "queries[%d]: parse error: %v", i, err)
			return
		}
		queries = append(queries, q)
	}
	wl := workload.New(queries...)

	ctx, cancel := s.reqCtx(r)
	defer cancel()
	t0 := time.Now()
	resp, err := runBounded(ctx, func() (*adviseResponse, error) {
		// Learned advisors are trained on the suite's training workloads
		// first, until the request's deadline; heuristics recommend
		// directly.
		adv, err := suite.BuildAdvisorCtx(ctx, spec)
		if err != nil {
			return nil, err
		}
		ac := suite.ConstraintFor(spec)
		cfg, err := adv.Recommend(suite.E, wl, ac)
		if err != nil {
			return nil, err
		}
		resp := &adviseResponse{
			Advisor:   spec.Name,
			Indexes:   []string{},
			SizeBytes: cfg.SizeBytes(suite.E.Schema()),
		}
		for _, ix := range cfg {
			resp.Indexes = append(resp.Indexes, ix.Key())
		}
		base, err := workload.Cost(suite.E, wl, nil, engine.ModeEstimated)
		if err == nil && base > 0 {
			with, err := workload.Cost(suite.E, wl, cfg, engine.ModeEstimated)
			if err == nil {
				resp.WhatIfImprovement = 1 - with/base
			}
		}
		return resp, nil
	})
	if err != nil {
		if ctx.Err() != nil {
			writeCtxError(w, ctx.Err())
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "advising failed: %v", err)
		return
	}
	resp.ElapsedMilli = time.Since(t0).Milliseconds()
	writeJSON(w, http.StatusOK, resp)
}

// POST /v1/assess

type assessRequest struct {
	Dataset    string `json:"dataset"`
	Advisor    string `json:"advisor"`
	Method     string `json:"method"`
	Constraint string `json:"constraint"`
}

func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	var req assessRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if _, ok := s.suiteFor(w, req.Dataset); !ok {
		return
	}
	if _, err := assess.SpecByName(req.Advisor); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Method == "" {
		req.Method = "TRAP"
	}
	if !validMethod(req.Method) {
		writeError(w, http.StatusBadRequest, "unknown method %q (want one of %s)",
			req.Method, strings.Join(assess.MethodNames, ", "))
		return
	}
	if _, err := core.ParseConstraint(req.Constraint); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.draining.Load() {
		// The job log degraded (an append or fsync failed): this server
		// can no longer persist job transitions, so it drains — existing
		// jobs finish, new ones must wait for a restart.
		writeError(w, http.StatusServiceUnavailable, "job log degraded; server is draining and not accepting jobs")
		return
	}

	// Admission: identify the tenant and priority class, then charge the
	// tenant's token bucket before the job touches the queue.
	tenant := r.Header.Get("X-Trap-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	pri, err := admission.ParsePriority(r.Header.Get("X-Trap-Priority"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if d := s.adm.Admit(tenant, time.Now()); !d.Admit {
		s.mShedQuota.Inc()
		w.Header().Set("Retry-After", retrySeconds(d.RetryAfter))
		writeError(w, http.StatusTooManyRequests,
			"tenant %q over submission quota (%s); retry after %s", tenant, d.Reason, d.RetryAfter)
		return
	}

	// A slot is reserved before the job exists, so a full queue or a
	// shutdown refuses the submission without touching the job log. The
	// submit record is durable before the job is enqueued, and so before
	// any worker can start it.
	if err := s.pool.reserve(); err != nil {
		s.refuseCapacity(w, err)
		return
	}
	job := s.jobs.create(Job{
		Dataset:    req.Dataset,
		Advisor:    req.Advisor,
		Method:     req.Method,
		Constraint: req.Constraint,
		Tenant:     tenant,
		Priority:   pri.String(),
	})
	s.appendJobRecord(recSubmit, job)
	if err := s.pool.enqueue(job.ID, pri); err != nil {
		// Shutdown began after the reservation. The client gets no job
		// ID, so no job is left behind: the entry goes, and a drop
		// record keeps a restart from bringing it back.
		s.jobs.remove(job.ID)
		s.appendDrop(r.Context(), job.ID)
		s.refuseCapacity(w, err)
		return
	}
	s.mJobsSub.Inc()
	writeJSON(w, http.StatusAccepted, job)
}

// refuseCapacity answers a submission the pool refused with 503 +
// Retry-After: the condition is load (or shutdown), not a bad request,
// so the client should resubmit later. The hint comes from the observed
// queue drain rate, not a constant guess.
func (s *Server) refuseCapacity(w http.ResponseWriter, err error) {
	s.mShedCapacity.Inc()
	w.Header().Set("Retry-After", retrySeconds(s.adm.CapacityRetryAfter(s.pool.queued(), time.Now())))
	if errors.Is(err, ErrPoolClosed) {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	} else {
		writeError(w, http.StatusServiceUnavailable, "job queue full (%d pending)", s.cfg.QueueDepth)
	}
}

// retrySeconds renders a Retry-After header value: whole seconds,
// rounded up so the client never retries early.
func retrySeconds(d time.Duration) string {
	return strconv.FormatInt(int64(math.Ceil(d.Seconds())), 10)
}

func validMethod(name string) bool {
	for _, m := range assess.MethodNames {
		if m == name {
			return true
		}
	}
	return false
}

// GET /v1/jobs

// jobListResponse is the /v1/jobs envelope. NextCursor, when non-empty,
// is the ?cursor= value that continues the listing after the last job
// returned.
type jobListResponse struct {
	Jobs       []Job  `json:"jobs"`
	NextCursor string `json:"nextCursor,omitempty"`
}

// handleJobsList lists jobs in submission order, filterable by
// ?status=, ?advisor= and ?dataset=, paginated with ?limit= (default
// 100, cap 1000) and ?cursor= (a job ID; the listing resumes strictly
// after it, so a page boundary never duplicates or skips jobs that
// existed when the cursor was issued).
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	statusF := JobStatus(q.Get("status"))
	if statusF != "" && !validJobStatus(statusF) {
		writeError(w, http.StatusBadRequest, "bad status %q (want pending, running, done, failed or canceled)", statusF)
		return
	}
	advisorF := q.Get("advisor")
	datasetF := q.Get("dataset")
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		if n > 1000 {
			n = 1000
		}
		limit = n
	}
	var after int64
	if v := q.Get("cursor"); v != "" {
		after = jobNum(v)
		if after == 0 {
			writeError(w, http.StatusBadRequest, "bad cursor %q (want a job ID)", v)
			return
		}
	}

	resp := jobListResponse{Jobs: []Job{}}
	for _, j := range s.jobs.list() {
		if jobNum(j.ID) <= after {
			continue
		}
		if statusF != "" && j.Status != statusF {
			continue
		}
		if advisorF != "" && j.Advisor != advisorF {
			continue
		}
		if datasetF != "" && j.Dataset != datasetF {
			continue
		}
		if len(resp.Jobs) == limit {
			resp.NextCursor = resp.Jobs[limit-1].ID
			break
		}
		resp.Jobs = append(resp.Jobs, j)
	}
	writeJSON(w, http.StatusOK, resp)
}

// GET /v1/jobs/{id}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// DELETE /v1/jobs/{id}

// handleJobCancel cancels a job: a still-queued job is finalized as
// canceled immediately (the worker skips it on dequeue); a running job
// has its context canceled, which the training and measurement loops
// honor at the next epoch/pair boundary. Terminal jobs are a 409.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, canceledNow, ok := s.jobs.cancel(id)
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	case canceledNow:
		s.mJobsCanceled.Inc()
		s.publishState(id)
	case j.Status.terminal():
		writeError(w, http.StatusConflict, "job %s already %s", id, j.Status)
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

// suiteFor resolves a dataset name, writing a 404 when it is not loaded.
func (s *Server) suiteFor(w http.ResponseWriter, name string) (*assess.Suite, bool) {
	if name == "" {
		writeError(w, http.StatusBadRequest, "dataset is required (one of %s)",
			strings.Join(s.Datasets(), ", "))
		return nil, false
	}
	suite := s.suites[name]
	if suite == nil {
		writeError(w, http.StatusNotFound, "dataset %q not loaded (have %s)",
			name, strings.Join(s.Datasets(), ", "))
		return nil, false
	}
	return suite, true
}
