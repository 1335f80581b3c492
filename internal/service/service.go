// Package service implements trapd, the long-running TRAP assessment
// daemon: an HTTP JSON API over a registry of pre-built per-dataset
// assessment suites, a bounded worker pool for async assessment jobs,
// and a /metrics endpoint exposing the internal/obs registry.
//
// Endpoints:
//
//	POST /v1/parse    — parse SPAJ SQL, return the canonical form
//	POST /v1/explain  — plan a query under hypothetical indexes
//	POST /v1/advise   — recommend an index configuration for a workload
//	POST /v1/assess   — start an async robustness assessment (job ID)
//	GET  /v1/jobs     — list jobs (status/advisor/dataset filters, cursor pagination)
//	GET  /v1/jobs/{id} — poll job status and result
//	GET  /v1/jobs/{id}/events — stream job progress as Server-Sent Events
//	GET  /metrics     — text metric exposition
//	GET  /healthz     — liveness and suite inventory
//	GET  /readyz      — readiness (replay finished, queue not saturated)
//	GET  /debug/pprof/* — profiling endpoints (only with Config.EnablePprof)
//
// With Config.JobLogDir set, every job transition is appended to a
// durable, CRC-framed job log (internal/joblog). On startup the log is
// replayed: terminal jobs come back queryable, and jobs that were
// pending or running when the process died are re-enqueued and resume
// from their latest spooled checkpoint. Admission control
// (internal/admission) adds per-tenant quotas and honest Retry-After
// hints on load sheds.
//
// One server writes each directory it is given (job log, spool):
// NewServer locks them (joblog.DirLock) before it builds anything, so a
// second trapd on the same directories fails fast. A standby is simply a
// second trapd whose supervisor restarts it until the first one is gone;
// it then replays the log and resumes the jobs.
//
// A job runs under the pprof label job=<id>, and its advisor build,
// method training, pretraining and measurement add layer=advisor_build,
// train, pretrain and measure, so any /debug/pprof/profile capture
// splits by job and layer (go tool pprof -tagfocus job=job-3).
//
// The suites (engine, workloads, vocabulary, learned utility model) are
// built once at startup and shared by every request; the engine and
// suite concurrency contracts (see internal/engine and internal/assess)
// make that safe.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trap-repro/trap/internal/admission"
	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/buildinfo"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/joblog"
	"github.com/trap-repro/trap/internal/obs"
	olog "github.com/trap-repro/trap/internal/obs/log"
	"github.com/trap-repro/trap/internal/telemetry"
	"github.com/trap-repro/trap/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the listen address (":8080" style). Only used by Run.
	Addr string
	// Datasets to pre-build suites for (default: tpch).
	Datasets []string
	// Params scales the suites (default assess.QuickParams()).
	Params assess.Params
	// Seed makes suite construction deterministic (default 42).
	Seed int64
	// Workers sizes the assessment worker pool (default runtime.NumCPU()).
	Workers int
	// EnablePprof mounts net/http/pprof profiling endpoints under
	// /debug/pprof/ (off by default: profiles expose internals, so the
	// flag is an explicit opt-in).
	EnablePprof bool
	// QueueDepth bounds the pending-job queue (default 4×Workers).
	QueueDepth int
	// RequestTimeout bounds synchronous endpoints (default 30s).
	RequestTimeout time.Duration
	// JobTimeout bounds one assessment job (default 15m).
	JobTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1MiB).
	MaxBodyBytes int64
	// Registry receives the service metrics (default obs.Default()).
	Registry *obs.Registry
	// Tracer records pipeline traces for /v1/traces (default: a tracer
	// with trace.Options defaults — 64 recent + 8 slowest per op).
	Tracer *trace.Tracer
	// Logger is the structured server logger (default: a text logger on
	// stderr at info level).
	Logger *olog.Logger

	// JobTTL is how long terminal jobs stay queryable before the
	// garbage collector, which runs every minute, drops them (default 1h).
	JobTTL time.Duration
	// SpoolDir, when set, enables RL-training checkpoints: jobs write a
	// checkpoint there after every epoch, and a resubmitted or replayed
	// job resumes from it. Empty disables checkpointing. The server holds
	// the directory's lock while it lives.
	SpoolDir string
	// JobLogDir, when set, enables the durable job log: every job
	// transition is appended (fsync'd) there and replayed on startup, so
	// jobs survive a process death. Empty disables the log. The server
	// holds the directory's lock while it lives; it may be the SpoolDir.
	JobLogDir string
	// TenantQPS enables per-tenant admission quotas: each tenant (the
	// X-Trap-Tenant header) may submit at this sustained rate, in bursts
	// of ceil(TenantQPS). <= 0 disables quotas.
	TenantQPS float64
	// Injector arms the fault-injection points in the suites' engines
	// and frameworks (nil — the default — disables injection).
	Injector faultinject.Injector
}

func (c *Config) fill() {
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"tpch"}
	}
	if c.Params == (assess.Params{}) {
		c.Params = assess.QuickParams()
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Tracer == nil {
		c.Tracer = trace.New(trace.Options{})
	}
	if c.Logger == nil {
		c.Logger = olog.New(os.Stderr, slog.LevelInfo, olog.FormatText)
	}
	if c.JobTTL <= 0 {
		c.JobTTL = time.Hour
	}
}

// Server is the trapd HTTP service.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	tr     *trace.Tracer
	log    *olog.Logger
	suites map[string]*assess.Suite
	jobs   *jobStore
	pool   *workerPool
	ckpt   *ckptStore  // nil when SpoolDir is unset
	jlog   *joblog.Log // nil when JobLogDir is unset; holds its own lock
	// lock is the spool's lock; nil when there is no spool or it is the
	// job-log directory.
	lock  *joblog.DirLock
	adm   *admission.Controller
	ready atomic.Bool // false until the job-log replay has finished
	// draining latches true when the job log degrades (an append or
	// fsync failed): the server stops accepting jobs, serves what it
	// has, and /readyz turns 503.
	draining atomic.Bool
	mux      *http.ServeMux
	start    time.Time

	mRequests     *obs.Counter
	mReqSecs      *obs.Histogram
	mJobsSub      *obs.Counter
	mJobsDone     *obs.Counter
	mJobsFailed   *obs.Counter
	mJobsCanceled *obs.Counter
	mJobPanics    *obs.Counter
	mJobsGCed     *obs.Counter
	mJobsRestored *obs.Counter
	mCkptSaved    *obs.Counter
	mCkptResumed  *obs.Counter
	mShedQuota    *obs.Counter
	mShedCapacity *obs.Counter
	mJobsRun      *obs.Gauge
	// spanSecs maps a span name to its trapd_span_seconds histogram, so
	// a span end formats no metric name.
	spanSecs sync.Map
}

// Job-log record types. Submit and state records carry a full Job
// snapshot (replay folds them last-write-wins); drop records mark a
// GC'd job so replay forgets it.
const (
	recSubmit = "submit"
	recState  = "state"
	recDrop   = "drop"
)

// NewServer locks the server's directories and reads its job log, builds
// the suites for every configured dataset (this is the slow part:
// workload generation and utility-model training), restores the replayed
// jobs and wires the handlers and worker pool. A directory another
// server holds fails NewServer before any suite is built, with an error
// that names it and wraps joblog.ErrLocked. A failed NewServer releases
// everything it took. The server is ready to serve as soon as NewServer
// returns.
func NewServer(cfg Config) (_ *Server, err error) {
	cfg.fill()
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Registry,
		tr:     cfg.Tracer,
		log:    cfg.Logger,
		suites: map[string]*assess.Suite{},
		jobs:   newJobStore(),
		adm:    admission.New(cfg.TenantQPS),
		start:  time.Now(),

		mRequests:     cfg.Registry.Counter("trapd_http_requests_total"),
		mReqSecs:      cfg.Registry.Histogram("trapd_http_request_seconds"),
		mJobsSub:      cfg.Registry.Counter("trapd_jobs_submitted_total"),
		mJobsDone:     cfg.Registry.Counter("trapd_jobs_done_total"),
		mJobsFailed:   cfg.Registry.Counter("trapd_jobs_failed_total"),
		mJobsCanceled: cfg.Registry.Counter("trapd_jobs_canceled_total"),
		mJobPanics:    cfg.Registry.Counter("trapd_job_panics_total"),
		mJobsGCed:     cfg.Registry.Counter("trapd_jobs_gced_total"),
		mJobsRestored: cfg.Registry.Counter("trapd_jobs_restored_total"),
		mCkptSaved:    cfg.Registry.Counter("trapd_checkpoints_saved_total"),
		mCkptResumed:  cfg.Registry.Counter("trapd_checkpoints_resumed_total"),
		mShedQuota:    cfg.Registry.Counter("trapd_shed_quota_total"),
		mShedCapacity: cfg.Registry.Counter("trapd_shed_capacity_total"),
		mJobsRun:      cfg.Registry.Gauge("trapd_jobs_running"),
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	var replayed []Job
	if cfg.JobLogDir != "" {
		if replayed, err = s.openJobLog(); err != nil {
			return nil, err
		}
	}
	if cfg.SpoolDir != "" {
		if err := s.lockSpool(); err != nil {
			return nil, err
		}
		s.ckpt = &ckptStore{dir: cfg.SpoolDir, seed: cfg.Seed}
	}
	for _, name := range cfg.Datasets {
		sch, err := bench.ByName(name, cfg.Params.ScaleDown)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		t0 := time.Now()
		suite, err := assess.NewSuite(name, sch, cfg.Params, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("service: building %s suite: %w", name, err)
		}
		suite.Inject = cfg.Injector
		suite.E.SetInjector(cfg.Injector)
		s.suites[name] = suite
		s.log.Info(context.Background(), "trapd: suite built",
			"dataset", name, "elapsed", time.Since(t0).Round(time.Millisecond),
			"train", len(suite.Train), "test", len(suite.Test))

		// Per-dataset plan-cache gauges, read from the engine's own
		// counters at scrape time.
		e := suite.E
		for metric, stat := range map[string]func(engine.CacheStats) float64{
			"engine_plan_cache_entries":      func(c engine.CacheStats) float64 { return float64(c.Entries) },
			"engine_plan_cache_hit_ratio":    engine.CacheStats.HitRatio,
			"engine_plan_cache_hits":         func(c engine.CacheStats) float64 { return float64(c.Hits) },
			"engine_plan_cache_misses":       func(c engine.CacheStats) float64 { return float64(c.Misses) },
			"engine_plan_cache_evicted":      func(c engine.CacheStats) float64 { return float64(c.Evicted) },
			"engine_plan_singleflight_dedup": func(c engine.CacheStats) float64 { return float64(c.SingleflightDedup) },
		} {
			s.reg.GaugeFunc(fmt.Sprintf("%s{dataset=%q}", metric, name),
				func() float64 { return stat(e.CacheStats()) })
		}
	}
	s.reg.GaugeFunc("trapd_jobs_pending", func() float64 {
		return float64(s.jobs.countByStatus()[JobPending])
	})
	s.reg.GaugeFunc("trapd_jobs_live", func() float64 {
		return float64(s.jobs.size())
	})
	s.reg.GaugeFunc("trapd_admission_drain_per_sec", func() float64 {
		return s.adm.Stats().DrainPerSec
	})
	s.reg.GaugeFunc("trapd_admission_tenants", func() float64 {
		return float64(s.adm.Stats().Tenants)
	})
	bi := buildinfo.Get()
	s.reg.GaugeFunc(
		fmt.Sprintf("trap_build_info{git_rev=%q,go_version=%q}", bi.GitRev, bi.GoVersion),
		func() float64 { return 1 })
	s.reg.Describe("trap_build_info",
		"Build provenance carried as labels; the value is always 1.")
	obs.RegisterRuntimeGauges(s.reg)
	for name, help := range map[string]string{
		"trapd_jobs_submitted_total": "Assessment jobs accepted by POST /v1/assess.",
		"trapd_jobs_done_total":      "Assessment jobs that finished successfully.",
		"trapd_jobs_failed_total":    "Assessment jobs that terminated with an error.",
		"trapd_span_seconds":         "Wall time of the spans of assessment jobs' traces, by span name; trapd.job is the whole run of a job.",
		"trapd_http_requests_total":  "HTTP requests served, all routes.",
		"trapd_http_request_seconds": "HTTP request latency.",
		"engine_cost_batch_seconds":  "Wall time of one what-if cost batch.",
	} {
		s.reg.Describe(name, help)
	}
	var requeue []string
	if s.jlog != nil {
		s.registerJoblogMetrics()
		if requeue, err = s.restoreJobs(replayed); err != nil {
			return nil, err
		}
	}
	// Nothing below can fail, so a failed NewServer never started a worker.
	s.pool = newWorkerPool(cfg.Workers, cfg.QueueDepth, s.runJob)
	for _, id := range requeue {
		j, _ := s.jobs.get(id)
		if err := s.pool.submit(id, j.priority()); err != nil {
			now := time.Now()
			s.jobs.update(id, func(j *Job) {
				j.Status = JobFailed
				j.Error = fmt.Sprintf("re-enqueue after restart: %v", err)
				j.Finished = &now
			})
			s.publishState(id)
		}
	}
	s.ready.Store(true)
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// openJobLog opens (or creates) the durable job log, which takes the
// directory's lock, and folds its records last-write-wins into the jobs
// to restore, in first-submission order. Record types this server does
// not write (older releases also logged leases, heartbeats, metrics,
// progress and cancels) are skipped.
func (s *Server) openJobLog() ([]Job, error) {
	byID := map[string]*Job{}
	var order []string // first-seen order, preserved across folding
	l, err := joblog.Open(s.cfg.JobLogDir, joblog.Options{
		Injector: s.cfg.Injector,
		Replay: func(r joblog.Record) error {
			switch r.Type {
			case recSubmit, recState:
				var j Job
				if err := json.Unmarshal(r.Data, &j); err != nil || j.ID == "" {
					return nil // tolerate a damaged payload: skip the record
				}
				if _, seen := byID[j.ID]; !seen {
					order = append(order, j.ID)
				}
				byID[j.ID] = &j
			case recDrop:
				delete(byID, r.JobID)
			}
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("service: job log: %w", err)
	}
	s.jlog = l
	var jobs []Job
	for _, id := range order {
		if j, ok := byID[id]; ok { // else dropped later in the log
			jobs = append(jobs, *j)
		}
	}
	return jobs, nil
}

// lockSpool locks the spool directory, unless it is also the job log
// (compared as absolute paths), whose lock joblog.Open already holds.
func (s *Server) lockSpool() error {
	if s.cfg.JobLogDir != "" {
		spool, err := filepath.Abs(s.cfg.SpoolDir)
		if err != nil {
			return fmt.Errorf("service: %w", err)
		}
		jlog, err := filepath.Abs(s.cfg.JobLogDir)
		if err != nil {
			return fmt.Errorf("service: %w", err)
		}
		if spool == jlog {
			return nil
		}
	}
	l, err := joblog.LockDir(s.cfg.SpoolDir)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.lock = l
	return nil
}

// restoreJobs loads the replayed jobs into the store and compacts the
// log down to one state record per job. Jobs a process death interrupted
// while queued or running come back pending and flagged Restored; their
// IDs are returned for the worker pool, and a spooled checkpoint (if the
// server has a spool) makes each re-run resume mid-training.
func (s *Server) restoreJobs(jobs []Job) ([]string, error) {
	var requeue []string
	snapshot := make([]joblog.Record, 0, len(jobs))
	for _, j := range jobs {
		if !j.Status.terminal() {
			j.Status = JobPending
			j.Restored = true
			j.Started, j.Finished = nil, nil
			j.Error, j.Stack = "", ""
			j.Result = nil
			requeue = append(requeue, j.ID)
		}
		s.jobs.restore(j)
		if data, err := json.Marshal(j); err == nil {
			snapshot = append(snapshot, joblog.Record{Type: recState, JobID: j.ID, Data: data})
		}
	}
	if err := s.jlog.Compact(snapshot); err != nil {
		return nil, fmt.Errorf("service: job log compact: %w", err)
	}
	if len(jobs) > 0 {
		s.mJobsRestored.Add(int64(len(requeue)))
		s.log.Info(context.Background(), "trapd: job log replayed",
			"jobs", len(jobs), "requeued", len(requeue), "dir", s.cfg.JobLogDir)
	}
	return requeue, nil
}

// registerJoblogMetrics exposes the durable log's replay/durability
// counters as scrape-time gauges.
func (s *Server) registerJoblogMetrics() {
	for name, fn := range map[string]func(joblog.Stats) float64{
		"trapd_joblog_records_replayed":     func(st joblog.Stats) float64 { return float64(st.Replayed) },
		"trapd_joblog_appends_total":        func(st joblog.Stats) float64 { return float64(st.Appends) },
		"trapd_joblog_corrupt_frames_total": func(st joblog.Stats) float64 { return float64(st.CorruptFrames) },
		"trapd_joblog_torn_tails_total":     func(st joblog.Stats) float64 { return float64(st.TornTails) },
		"trapd_joblog_truncated_bytes":      func(st joblog.Stats) float64 { return float64(st.TruncatedBytes) },
		"trapd_joblog_compactions_total":    func(st joblog.Stats) float64 { return float64(st.Compactions) },
		"trapd_joblog_segments":             func(st joblog.Stats) float64 { return float64(st.Segments) },
		"trapd_joblog_active_bytes":         func(st joblog.Stats) float64 { return float64(st.ActiveBytes) },
		"trapd_joblog_degraded": func(st joblog.Stats) float64 {
			if st.Degraded {
				return 1
			}
			return 0
		},
	} {
		fn := fn
		s.reg.GaugeFunc(name, func() float64 { return fn(s.jlog.Stats()) })
	}
	for name, help := range map[string]string{
		"trapd_joblog_records_replayed":     "Job-log records recovered by replay at startup.",
		"trapd_joblog_corrupt_frames_total": "Job-log frames dropped during replay (CRC mismatch or torn tail).",
		"trapd_joblog_torn_tails_total":     "Torn-tail truncation events recovered by replay.",
		"trapd_joblog_truncated_bytes":      "Tail bytes cut from the last segment to recover a torn write.",
		"trapd_joblog_compactions_total":    "Successful job-log compactions this process lifetime.",
		"trapd_joblog_degraded":             "1 when an append failed and the job log is read-only (the server drains).",
	} {
		s.reg.Describe(name, help)
	}
}

// appendJobRecord durably appends the job's current state to the job
// log. Log failures are non-fatal for the job itself (they cost
// durability, not correctness of the in-memory run) — but a degraded
// log flips the server into read-only draining: it finishes what it has
// and stops accepting work whose transitions it could not persist.
func (s *Server) appendJobRecord(typ string, j Job) {
	if s.jlog == nil {
		return
	}
	if _, err := s.jlog.Append(typ, j.ID, j); err != nil {
		if errors.Is(err, joblog.ErrDegraded) && s.draining.CompareAndSwap(false, true) {
			s.log.Error(context.Background(),
				"trapd: job log degraded, entering read-only drain", "err", err)
		}
		s.log.Warn(context.Background(), "trapd: job log append failed", "job", j.ID, "err", err)
	}
}

// publishState appends the job's current lifecycle state to the job log,
// then streams it and — when the state is terminal — ends the stream.
// The GC collects only jobs whose stream has ended, so a job's drop
// record always follows its terminal state record in the log.
func (s *Server) publishState(id string) {
	j, e := s.jobs.entry(id)
	if e == nil {
		return
	}
	s.appendJobRecord(recState, j)
	e.hub.publishState(j)
}

// appendDrop appends the drop record that makes replay forget the job.
func (s *Server) appendDrop(ctx context.Context, id string) {
	if s.jlog == nil {
		return
	}
	if _, err := s.jlog.Append(recDrop, id, nil); err != nil {
		s.log.Warn(ctx, "trapd: job log drop append failed", "job", id, "err", err)
	}
}

// Close closes the job log and releases the spool's lock, so another
// server may take the directories over. Safe to call more than once;
// serving continues degraded if it ever races an in-flight append
// (appends after close fail soft).
func (s *Server) Close() error {
	var err error
	if s.jlog != nil {
		err = s.jlog.Close()
	}
	s.lock.Unlock()
	return err
}

// Handler returns the service's HTTP handler (metrics middleware
// included) — used directly by tests and in-process embedding.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.Inc()
		s.reg.Counter(routeCounterName(s.mux, r)).Inc()
		defer obs.StartSpan(s.mReqSecs).End()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		s.mux.ServeHTTP(w, r)
	})
}

// routeCounterName names the per-route request counter by the pattern
// the request matches, so the route table bounds the series; requests
// that match no route share one series.
func routeCounterName(mux *http.ServeMux, r *http.Request) string {
	_, route := mux.Handler(r)
	if route == "" {
		route = "unmatched"
	}
	return fmt.Sprintf("trapd_http_requests_total{route=%q}", route)
}

// Suite returns the named dataset's suite (nil when not loaded).
func (s *Server) Suite(name string) *assess.Suite { return s.suites[name] }

// Datasets lists the loaded dataset names in config order.
func (s *Server) Datasets() []string {
	out := make([]string, 0, len(s.suites))
	for _, n := range s.cfg.Datasets {
		if _, ok := s.suites[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Run serves on cfg.Addr until ctx is canceled, then shuts down
// gracefully: the listener closes, in-flight HTTP requests get
// shutdownGrace to finish, and the worker pool drains running jobs.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.serve(ctx, ln)
}

const shutdownGrace = 30 * time.Second

func (s *Server) serve(ctx context.Context, ln net.Listener) error {
	defer s.Close()
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	gctx, stopGC := context.WithCancel(ctx)
	defer stopGC()
	go s.gcLoop(gctx)
	s.log.Info(ctx, "trapd: serving",
		"addr", ln.Addr().String(), "datasets", strings.Join(s.Datasets(), ","), "workers", s.cfg.Workers)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.Info(context.Background(), "trapd: shutting down, draining in-flight jobs")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := hs.Shutdown(sctx)
	s.Drain(sctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("trapd: shutdown grace period expired")
	}
	return err
}

// gcInterval is how often the job garbage collector runs.
const gcInterval = time.Minute

// gcLoop periodically drops terminal jobs older than JobTTL so the job
// store does not grow without bound under sustained load.
func (s *Server) gcLoop(ctx context.Context) {
	t := time.NewTicker(gcInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			s.collectGarbage(ctx, now)
		}
	}
}

// collectGarbage drops terminal jobs past their TTL whose streams have
// ended: their entries (and with them their streams and series) from the
// job table and — via a tombstone — from the durable job log, so a
// restart does not resurrect what the GC already forgot.
func (s *Server) collectGarbage(ctx context.Context, now time.Time) int {
	dropped := s.jobs.gc(s.cfg.JobTTL, now)
	if len(dropped) == 0 {
		return 0
	}
	for _, id := range dropped {
		s.appendDrop(ctx, id)
	}
	s.mJobsGCed.Add(int64(len(dropped)))
	s.log.Info(ctx, "trapd: gc dropped finished jobs", "count", len(dropped), "ttl", s.cfg.JobTTL)
	return len(dropped)
}

// Drain stops job intake, cancels queued-but-unstarted jobs, and waits
// (bounded by ctx) for running jobs to finish.
func (s *Server) Drain(ctx context.Context) {
	for _, id := range s.pool.shutdown(ctx) {
		now := time.Now()
		changed := false
		s.jobs.update(id, func(j *Job) {
			if j.Status == JobPending {
				j.Status = JobCanceled
				j.Error = "server shut down before the job started"
				j.Finished = &now
				changed = true
			}
		})
		if changed {
			s.publishState(id)
		}
	}
}

// panicError wraps a recovered panic value and its stack so the job
// layer can mark the job failed with full context instead of letting
// the panic kill the worker (or the process).
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// runJob executes one assessment job on a worker goroutine, once: it
// gives the job a timeout context that DELETE /v1/jobs/{id} can cancel,
// runs the assessment on this goroutine (so the worker takes no other
// job until this one has stopped), and classifies the terminal state.
func (s *Server) runJob(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.JobTimeout)
	defer cancel()
	j, e, ok := s.jobs.start(id, cancel)
	if !ok {
		// Canceled (or otherwise finalized) while queued: nothing to run.
		return
	}
	s.publishState(id)
	// The training and attack loops below append their per-epoch /
	// per-step series into the job's telemetry scope through the context;
	// GET /v1/jobs/{id}/telemetry serves it.
	ctx = telemetry.NewContext(ctx, e.scope)
	// Root span of the job's trace: every span the assessment pipeline
	// opens below (advisor/method builds, training epochs, measurement
	// cells, cost batches) nests under it, and every log line carries the
	// job and trace IDs.
	ctx = olog.WithJob(ctx, id)
	ctx, tsp := s.tr.Start(ctx, "trapd.job")
	tsp.Str("job", id)
	tsp.Str("dataset", j.Dataset)
	tsp.Str("advisor", j.Advisor)
	tsp.Str("method", j.Method)
	tsp.Str("constraint", j.Constraint)
	s.jobs.update(id, func(j *Job) { j.TraceID = tsp.TraceID() })
	tsp.Observe(s.jobObserver(e))
	s.mJobsRun.Add(1)
	// The job label covers the assessment's goroutine and the pool
	// goroutines it starts, and is gone from the worker once it returns.
	var res *JobResult
	var err error
	pprof.Do(ctx, pprof.Labels("job", id), func(ctx context.Context) {
		res, err = s.runAssessment(ctx, j)
	})
	var pe *panicError
	isPanic := errors.As(err, &pe)
	if !isPanic && ctx.Err() != nil {
		// Stopped by the cancel or the deadline: classify it as such,
		// whatever the stage that noticed it returned. A stage that
		// treats a cut-short call as a skip can return a partial result
		// with no error, which must not count as done.
		err = ctx.Err()
	}
	tsp.Fail(err)
	elapsed := tsp.End()
	s.mJobsRun.Add(-1)

	fin := time.Now()
	s.jobs.finish(id, func(j *Job) {
		j.Finished = &fin
		switch {
		case err == nil:
			res.ElapsedMilli = elapsed.Milliseconds()
			j.Status = JobDone
			j.Result = res
		case errors.Is(err, context.Canceled):
			j.Status = JobCanceled
			j.Error = "canceled"
		case errors.Is(err, context.DeadlineExceeded):
			j.Status = JobFailed
			j.Error = fmt.Sprintf("job timeout (%v) exceeded", s.cfg.JobTimeout)
		case isPanic:
			j.Status = JobFailed
			j.Error = err.Error()
			j.Stack = string(pe.stack)
		default:
			j.Status = JobFailed
			j.Error = err.Error()
		}
	})
	s.publishState(id)
	s.adm.JobDone(fin)
	switch {
	case err == nil:
		if s.ckpt != nil {
			s.ckpt.remove(j)
		}
		s.mJobsDone.Inc()
		s.log.Info(ctx, "trapd: job done", "elapsed", elapsed.Round(time.Millisecond),
			"meanIUDR", res.MeanIUDR, "workloads", res.Workloads)
	case errors.Is(err, context.Canceled):
		s.mJobsCanceled.Inc()
		s.log.Info(ctx, "trapd: job canceled", "elapsed", elapsed.Round(time.Millisecond))
	case isPanic:
		s.mJobPanics.Inc()
		s.mJobsFailed.Inc()
		s.log.Error(ctx, "trapd: job panicked", "elapsed", elapsed.Round(time.Millisecond), "err", err)
	default:
		s.mJobsFailed.Inc()
		s.log.Error(ctx, "trapd: job failed", "elapsed", elapsed.Round(time.Millisecond), "err", err)
	}
}

// jobObserver is the observer of one job's trace. Every span end,
// failed spans included, is an observation of
// trapd_span_seconds{span=<name>}. The spans that mark progress also
// stream it to the job's SSE subscribers: a finished measurement cell
// as a "cell" event, and a completed RL epoch as an "epoch" event
// followed by the epoch's rl_* "telemetry" event.
func (s *Server) jobObserver(e *jobEntry) func(trace.SpanEnd) {
	return func(se trace.SpanEnd) {
		s.spanSeconds(se.Name).ObserveDuration(se.Dur)
		switch {
		case se.Name == "assess.cell":
			ev := JobEvent{Type: evCell}
			if w, ok := intAttr(se.Attrs, "workload"); ok {
				ev.Workload = &w
			}
			ev.Pairs, _ = intAttr(se.Attrs, "pairs")
			e.hub.publish(ev)
		case se.Name == "rl.epoch" && se.Err == "":
			ep, _ := intAttr(se.Attrs, "epoch")
			e.hub.publish(JobEvent{Type: evEpoch, Epoch: ep + 1})
			if pts := rlPoints(e.scope); len(pts) > 0 {
				e.hub.publish(JobEvent{Type: evTelemetry, Epoch: ep + 1, Points: pts})
			}
		}
	}
}

// spanSeconds returns the trapd_span_seconds histogram of a span name,
// creating it on the name's first end.
func (s *Server) spanSeconds(name string) *obs.Histogram {
	if h, ok := s.spanSecs.Load(name); ok {
		return h.(*obs.Histogram)
	}
	h, _ := s.spanSecs.LoadOrStore(name, s.reg.Histogram(fmt.Sprintf("trapd_span_seconds{span=%q}", name)))
	return h.(*obs.Histogram)
}

// intAttr returns a span's integer attribute.
func intAttr(attrs []trace.Attr, key string) (int, bool) {
	for _, a := range attrs {
		if a.Key == key {
			v, ok := a.Value.(int64)
			return int(v), ok
		}
	}
	return 0, false
}

// runAssessment trains the method against the advisor and measures IUDR
// over the suite's test workloads under the job's context. Every stage
// is context-aware and stops at its next epoch, episode, workload or
// pair boundary on cancellation (RL advisor training included, via
// BuildAdvisorCtx). A panic anywhere in the assessment is captured as a
// *panicError return.
func (s *Server) runAssessment(ctx context.Context, j Job) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &panicError{val: r, stack: debug.Stack()}
		}
	}()
	suite := s.suites[j.Dataset]
	if suite == nil {
		return nil, fmt.Errorf("dataset %q not loaded", j.Dataset)
	}
	spec, err := assess.SpecByName(j.Advisor)
	if err != nil {
		return nil, err
	}
	pc, err := core.ParseConstraint(j.Constraint)
	if err != nil {
		return nil, err
	}
	adv, err := suite.BuildAdvisorCtx(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("building advisor: %w", err)
	}
	base := suite.BaselineAdvisor(spec)
	ac := suite.ConstraintFor(spec)
	mc := assess.MethodConfig{}
	if s.ckpt != nil {
		if data, derr := s.ckpt.load(j); derr == nil && len(data) > 0 {
			mc.Resume = bytes.NewReader(data)
		}
		mc.EpochHook = func(fw *core.Framework, epoch int) error {
			if serr := s.ckpt.save(j, fw, epoch+1); serr != nil {
				// Best-effort: a failed checkpoint write must not fail the
				// job, it only loses resumability.
				s.log.Warn(ctx, "trapd: checkpoint save failed", "err", serr)
				return nil
			}
			s.mCkptSaved.Inc()
			return nil
		}
	}
	m, err := suite.BuildMethod(ctx, j.Method, pc, adv, base, ac, mc)
	if err != nil {
		return nil, fmt.Errorf("building method: %w", err)
	}
	if m.Resumed {
		s.mCkptResumed.Inc()
		s.jobs.update(j.ID, func(jj *Job) { jj.Resumed = true })
		s.log.Info(ctx, "trapd: resumed from checkpoint")
	}
	rep, err := suite.Measure(ctx, m, adv, base, ac)
	if err != nil {
		return nil, fmt.Errorf("measuring: %w", err)
	}
	res = &JobResult{MeanIUDR: rep.MeanIUDR, Workloads: rep.N, Pairs: len(rep.Pairs)}
	for _, p := range rep.Pairs {
		if p.NonSargable {
			res.NonSargable++
		}
	}
	return res, nil
}

// runBounded runs f on its own goroutine and returns its result, or
// ctx's error once the deadline passes (f keeps running and its result
// is dropped). The synchronous explain and advise handlers use it:
// Plan and Recommend do not take a context.
func runBounded[T any](ctx context.Context, f func() (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	type res struct {
		v   T
		err error
	}
	ch := make(chan res, 1)
	go func() {
		v, err := f()
		ch <- res{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}
