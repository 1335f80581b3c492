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
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trap-repro/trap/internal/admission"
	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/buildinfo"
	"github.com/trap-repro/trap/internal/cluster"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/joblog"
	"github.com/trap-repro/trap/internal/obs"
	olog "github.com/trap-repro/trap/internal/obs/log"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/telemetry"
	"github.com/trap-repro/trap/internal/trace"
)

// DatasetNames lists the datasets trapd can serve.
var DatasetNames = []string{"tpch", "tpcds", "transaction"}

// SchemaByName builds the named benchmark schema.
func SchemaByName(name string, scaleDown int64) (*schema.Schema, error) {
	switch name {
	case "tpch":
		return bench.TPCH(scaleDown), nil
	case "tpcds":
		return bench.TPCDS(scaleDown), nil
	case "transaction":
		return bench.TRANSACTION(scaleDown), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

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
	// CostWorkers sizes each suite engine's CostBatch fan-out pool
	// (default 0: GOMAXPROCS at call time; 1 forces sequential costing).
	CostWorkers int
	// TrainWorkers sizes the RL trajectory rollout pool of every
	// framework the suites build (default 0: GOMAXPROCS at call time;
	// 1 forces sequential rollouts). Trained parameters are bit-identical
	// for every value.
	TrainWorkers int
	// AssessWorkers sizes each suite's per-workload measurement pool
	// (default 0: GOMAXPROCS at call time; 1 forces sequential
	// measurement). Assessments are bit-identical for every value.
	AssessWorkers int
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
	// Logger is the structured server logger. Defaults to a Logf adapter
	// when Logf is set, else a text logger on stderr at info level.
	Logger *olog.Logger
	// Logf is the legacy printf-style log sink. When set (and Logger is
	// not), server logs render through it as "msg k=v ..." lines.
	Logf func(format string, args ...any)

	// MaxRetries bounds re-executions of a job that failed on a
	// transient error (default 2; negative disables retries).
	MaxRetries int
	// RetryBackoff is the base of the exponential retry backoff
	// (default 100ms; attempt n waits ~RetryBackoff·2ⁿ plus jitter).
	RetryBackoff time.Duration
	// JobTTL is how long terminal jobs stay queryable before the
	// garbage collector drops them (default 1h).
	JobTTL time.Duration
	// GCInterval is how often the job garbage collector runs while the
	// server is serving (default 1m).
	GCInterval time.Duration
	// SpoolDir, when set, enables RL-training checkpoints: jobs write a
	// checkpoint there every CheckpointEvery epochs and resume from it
	// after a cancel, crash or retry. Empty disables checkpointing.
	SpoolDir string
	// CheckpointEvery is the epoch stride between checkpoints (default 1).
	CheckpointEvery int
	// JobLogDir, when set, enables the durable job log: every job
	// transition is appended (fsync'd) there and replayed on startup, so
	// jobs survive a process death. Empty disables the log.
	JobLogDir string
	// JobLogSegmentBytes overrides the job-log segment size (testing).
	JobLogSegmentBytes int64
	// TenantQPS enables per-tenant admission quotas: each tenant (the
	// X-Trap-Tenant header) may submit at this sustained rate. <= 0
	// disables quotas.
	TenantQPS float64
	// TenantBurst is the per-tenant burst allowance
	// (default ceil(TenantQPS)).
	TenantBurst int
	// PriorityQueue honors the X-Trap-Priority header (interactive jobs
	// are dequeued before batch ones). Off by default: without the flag
	// the header is ignored and all jobs are batch.
	PriorityQueue bool
	// SSEHeartbeat is the comment-heartbeat interval of idle progress
	// streams (default 15s).
	SSEHeartbeat time.Duration
	// ProfileDir, when set, enables continuous profiling: every traced
	// span that runs longer than ProfileThreshold triggers a heap + CPU
	// profile capture into this directory, retained ProfileKeep-deep and
	// indexed by GET /v1/profiles. Empty disables the harness.
	ProfileDir string
	// ProfileThreshold is the span latency that triggers a capture
	// (default 1s).
	ProfileThreshold time.Duration
	// ProfileKeep bounds the rolling capture retention (default 8).
	ProfileKeep int
	// ProfileCPUWindow is how long the post-breach CPU profile runs
	// (default 1s).
	ProfileCPUWindow time.Duration
	// MetricsInterval is the cadence of cluster metric federation: each
	// node publishes its registry snapshot to the shared bus this often
	// (default 5s; only meaningful in cluster mode).
	MetricsInterval time.Duration
	// Injector arms the fault-injection points in the suites' engines
	// and frameworks (nil — the default — disables injection).
	Injector faultinject.Injector

	// NodeID, when set, joins the server to a multi-node fleet: jobs are
	// owned via leases over the shared job log (worker-pull placement),
	// with fencing-token takeover when a node dies. Requires JobLogDir or
	// Bus. Empty (the default) keeps the single-node job path.
	NodeID string
	// LeaseTTL is how long a job lease survives without renewal; a node
	// that misses heartbeats for this long loses its jobs to takeover
	// (default 15s).
	LeaseTTL time.Duration
	// HeartbeatInterval is the heartbeat/renew/reconcile cadence
	// (default LeaseTTL/3).
	HeartbeatInterval time.Duration
	// Bus attaches the server to an existing in-process fleet bus
	// (chaos drills, cmd/trapload). When nil and NodeID is set, the
	// server opens its own bus over JobLogDir.
	Bus *cluster.Bus
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
		if c.Logf != nil {
			c.Logger = olog.NewLogf(c.Logf)
		} else {
			c.Logger = olog.New(os.Stderr, slog.LevelInfo, olog.FormatText)
		}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.JobTTL <= 0 {
		c.JobTTL = time.Hour
	}
	if c.GCInterval <= 0 {
		c.GCInterval = time.Minute
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	if c.ProfileThreshold <= 0 {
		c.ProfileThreshold = time.Second
	}
	if c.ProfileKeep <= 0 {
		c.ProfileKeep = 8
	}
	if c.ProfileCPUWindow <= 0 {
		c.ProfileCPUWindow = time.Second
	}
	if c.MetricsInterval <= 0 {
		c.MetricsInterval = 5 * time.Second
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
	jlog   *joblog.Log // nil when JobLogDir is unset
	adm    *admission.Controller
	events *eventBus
	ready  atomic.Bool // false until the job-log replay has finished
	// draining latches true when the job log degrades (an append or
	// fsync failed): the node stops accepting jobs and claiming leases,
	// serves what it has, and /readyz turns 503.
	draining atomic.Bool
	mux      *http.ServeMux
	start    time.Time

	// Cluster mode (Config.NodeID): the shared bus, this node's lease
	// coordinator, and its fold subscription. ownBus marks a bus this
	// server opened itself (and must close).
	bus    *cluster.Bus
	coord  *cluster.Coordinator
	sub    *cluster.Sub
	ownBus bool

	// Telemetry: per-job time-series scopes, the continuous-profiling
	// harness, and the cluster metric-federation publisher.
	tscopes      *scopeStore
	prof         *profiler // nil when ProfileDir is unset
	metricsEvery time.Duration
	metricsStop  chan struct{}
	metricsDone  chan struct{}
	metricsOnce  sync.Once

	mRequests     *obs.Counter
	mReqSecs      *obs.Histogram
	mJobsSub      *obs.Counter
	mJobsDone     *obs.Counter
	mJobsFailed   *obs.Counter
	mJobsCanceled *obs.Counter
	mJobRetries   *obs.Counter
	mJobPanics    *obs.Counter
	mJobsGCed     *obs.Counter
	mJobsRestored *obs.Counter
	mJobsFenced   *obs.Counter
	mCkptSaved    *obs.Counter
	mCkptResumed  *obs.Counter
	mShedQuota    *obs.Counter
	mShedCapacity *obs.Counter
	mJobsRun      *obs.Gauge
	mJobSecs      *obs.Histogram
}

// Job-log record types. Submit and state records carry a full Job
// snapshot (replay folds them last-write-wins); drop records mark a
// GC'd job so replay forgets it.
const (
	recSubmit = "submit"
	recState  = "state"
	recDrop   = "drop"
)

// NewServer builds the suites for every configured dataset (this is the
// slow part: workload generation and utility-model training) and wires
// the handlers and worker pool. The server is ready to serve as soon as
// NewServer returns.
func NewServer(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		tr:      cfg.Tracer,
		log:     cfg.Logger,
		suites:  map[string]*assess.Suite{},
		jobs:    newJobStore(),
		events:  newEventBus(),
		tscopes: newScopeStore(),
		adm: admission.New(admission.Options{
			TenantQPS:   cfg.TenantQPS,
			TenantBurst: cfg.TenantBurst,
		}),
		start: time.Now(),

		mRequests:     cfg.Registry.Counter("trapd_http_requests_total"),
		mReqSecs:      cfg.Registry.Histogram("trapd_http_request_seconds"),
		mJobsSub:      cfg.Registry.Counter("trapd_jobs_submitted_total"),
		mJobsDone:     cfg.Registry.Counter("trapd_jobs_done_total"),
		mJobsFailed:   cfg.Registry.Counter("trapd_jobs_failed_total"),
		mJobsCanceled: cfg.Registry.Counter("trapd_jobs_canceled_total"),
		mJobRetries:   cfg.Registry.Counter("trapd_job_retries_total"),
		mJobPanics:    cfg.Registry.Counter("trapd_job_panics_total"),
		mJobsGCed:     cfg.Registry.Counter("trapd_jobs_gced_total"),
		mJobsRestored: cfg.Registry.Counter("trapd_jobs_restored_total"),
		mJobsFenced:   cfg.Registry.Counter("trapd_jobs_fenced_total"),
		mCkptSaved:    cfg.Registry.Counter("trapd_checkpoints_saved_total"),
		mCkptResumed:  cfg.Registry.Counter("trapd_checkpoints_resumed_total"),
		mShedQuota:    cfg.Registry.Counter("trapd_shed_quota_total"),
		mShedCapacity: cfg.Registry.Counter("trapd_shed_capacity_total"),
		mJobsRun:      cfg.Registry.Gauge("trapd_jobs_running"),
		mJobSecs:      cfg.Registry.Histogram("trapd_job_seconds"),
	}
	if cfg.SpoolDir != "" {
		ck, err := newCkptStore(cfg.SpoolDir, cfg.Seed)
		if err != nil {
			return nil, err
		}
		s.ckpt = ck
	}
	for _, name := range cfg.Datasets {
		sch, err := SchemaByName(name, cfg.Params.ScaleDown)
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
		suite.E.SetBatchWorkers(cfg.CostWorkers)
		suite.TrainWorkers = cfg.TrainWorkers
		suite.MeasureWorkers = cfg.AssessWorkers
		s.suites[name] = suite
		s.log.Info(context.Background(), "trapd: suite built",
			"dataset", name, "elapsed", time.Since(t0).Round(time.Millisecond),
			"train", len(suite.Train), "test", len(suite.Test))

		// Per-dataset plan-cache gauges, evaluated at scrape time.
		e := suite.E
		s.reg.GaugeFunc(fmt.Sprintf("engine_plan_cache_entries{dataset=%q}", name),
			func() float64 { return float64(e.CacheStats().Entries) })
		s.reg.GaugeFunc(fmt.Sprintf("engine_plan_cache_hit_ratio{dataset=%q}", name),
			func() float64 { return e.CacheStats().HitRatio() })
		s.reg.GaugeFunc(fmt.Sprintf("engine_plan_singleflight_dedup{dataset=%q}", name),
			func() float64 { return float64(e.CacheStats().SingleflightDedup) })
	}
	s.reg.GaugeFunc("trapd_jobs_pending", func() float64 {
		return float64(s.jobs.countByStatus()[JobPending])
	})
	s.reg.GaugeFunc("trapd_jobs_live", func() float64 {
		return float64(s.jobs.size())
	})
	s.reg.GaugeFunc("trapd_sse_streams", func() float64 {
		return float64(s.events.size())
	})
	s.reg.GaugeFunc("trapd_admission_drain_per_sec", func() float64 {
		return s.adm.Stats().DrainPerSec
	})
	s.reg.GaugeFunc("trapd_admission_tenants", func() float64 {
		return float64(s.adm.Stats().Tenants)
	})
	s.reg.GaugeFunc("trapd_telemetry_scopes", func() float64 {
		return float64(s.tscopes.size())
	})
	bi := buildinfo.Get()
	s.reg.GaugeFunc(
		fmt.Sprintf("trap_build_info{git_rev=%q,go_version=%q}", bi.GitRev, bi.GoVersion),
		func() float64 { return 1 })
	s.reg.Describe("trap_build_info",
		"Build provenance carried as labels; the value is always 1.")
	if cfg.ProfileDir != "" {
		p, err := newProfiler(cfg, s.reg, s.log)
		if err != nil {
			return nil, err
		}
		s.prof = p
		s.tr.SetOnSpanEnd(p.onSpanEnd)
	}
	obs.RegisterRuntimeGauges(s.reg)
	for name, help := range map[string]string{
		"trapd_jobs_submitted_total":  "Assessment jobs accepted by POST /v1/assess.",
		"trapd_jobs_done_total":       "Assessment jobs that finished successfully.",
		"trapd_jobs_failed_total":     "Assessment jobs that terminated with an error.",
		"trapd_job_seconds":           "Wall time of one assessment job, submission to terminal state.",
		"trapd_http_requests_total":   "HTTP requests served, all routes.",
		"trapd_http_request_seconds":  "HTTP request latency.",
		"engine_cost_batch_seconds":   "Wall time of one what-if cost batch.",
		"assess_measure_seconds":      "Wall time of one full measurement (all cells).",
		"trap_rl_epoch_seconds":       "Wall time of one RL training epoch.",
		"trap_pretrain_epoch_seconds": "Wall time of one pretraining epoch.",
	} {
		s.reg.Describe(name, help)
	}
	s.pool = newWorkerPool(cfg.Workers, cfg.QueueDepth, s.runJob)
	switch {
	case cfg.NodeID != "":
		if err := s.setupCluster(); err != nil {
			return nil, err
		}
	case cfg.JobLogDir != "":
		if err := s.openJobLog(); err != nil {
			return nil, err
		}
		s.registerJoblogMetrics(s.jlog)
	}
	s.ready.Store(true)
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// openJobLog opens (or creates) the durable job log, replays it into
// the job store — re-enqueuing jobs interrupted by a process death —
// and compacts the log down to one state record per live job.
func (s *Server) openJobLog() error {
	byID := map[string]*Job{}
	var order []string // first-seen order, preserved across folding
	l, err := joblog.Open(s.cfg.JobLogDir, joblog.Options{
		SegmentBytes: s.cfg.JobLogSegmentBytes,
		Injector:     s.cfg.Injector,
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
		return fmt.Errorf("service: job log: %w", err)
	}
	s.jlog = l

	var snapshot []joblog.Record
	restored, requeued := 0, 0
	for _, id := range order {
		j, ok := byID[id]
		if !ok {
			continue // dropped later in the log
		}
		if !j.Status.terminal() {
			// The process died while this job was queued or running:
			// re-enqueue it. A spooled checkpoint (if the server has a
			// spool) makes the re-run resume mid-training.
			j.Status = JobPending
			j.Restored = true
			j.Started, j.Finished = nil, nil
			j.Error, j.Stack = "", ""
			j.Result = nil
			requeued++
		}
		s.jobs.restore(*j)
		hub := s.events.create(j.ID)
		ev := JobEvent{Type: evState, Status: j.Status, Error: j.Error}
		hub.publish(ev)
		if j.Status.terminal() {
			if j.Status == JobDone && j.Result != nil {
				hub.publish(JobEvent{Type: evResult, Result: j.Result})
			}
			hub.closeHub()
		} else if err := s.pool.submit(j.ID, j.priority()); err != nil {
			now := time.Now()
			s.jobs.update(j.ID, func(jj *Job) {
				jj.Status = JobFailed
				jj.Error = fmt.Sprintf("re-enqueue after restart: %v", err)
				jj.Finished = &now
			})
			cur, _ := s.jobs.get(j.ID)
			*j = cur
			hub.publish(JobEvent{Type: evState, Status: j.Status, Error: j.Error})
			hub.closeHub()
		}
		cur, _ := s.jobs.get(j.ID)
		data, merr := json.Marshal(cur)
		if merr != nil {
			continue
		}
		snapshot = append(snapshot, joblog.Record{Type: recState, JobID: j.ID, Data: data})
		restored++
	}
	if err := l.Compact(snapshot); err != nil {
		return fmt.Errorf("service: job log compact: %w", err)
	}
	if restored > 0 {
		s.mJobsRestored.Add(int64(requeued))
		s.log.Info(context.Background(), "trapd: job log replayed",
			"jobs", restored, "requeued", requeued, "dir", s.cfg.JobLogDir)
	}
	return nil
}

// appendJobRecord durably appends the job's current state to the job
// log. Log failures are non-fatal for the job itself (they cost
// durability, not correctness of the in-memory run) — but a degraded
// log flips the node into read-only draining: it finishes what it has
// and stops accepting work whose transitions it could not persist.
func (s *Server) appendJobRecord(typ string, j Job) {
	if s.jlog == nil {
		return
	}
	if _, err := s.jlog.Append(typ, j.ID, j); err != nil {
		if errors.Is(err, joblog.ErrDegraded) && s.draining.CompareAndSwap(false, true) {
			s.log.Error(context.Background(),
				"trapd: job log degraded, node entering read-only drain", "err", err)
		}
		s.log.Warn(context.Background(), "trapd: job log append failed", "job", j.ID, "err", err)
	}
}

// publishState streams the job's current lifecycle state, mirrors it to
// the job log, and — when the state is terminal — finalizes the stream.
//
// In cluster mode the state is appended under this node's lease and hub
// events come only from the fold (identical Seqs on every node). The
// return value reports a rejected terminal publication: the lease was
// lost (fenced), the node is dead/partitioned, or the log degraded —
// either way the result did not reach the shared log and the caller
// must not account the job as completed (another node owns it now).
func (s *Server) publishState(id string) (rejected bool) {
	j, ok := s.jobs.get(id)
	if !ok {
		return false
	}
	if s.coord != nil {
		if _, err := s.coord.AppendOwned(recState, id, j); err != nil {
			if errors.Is(err, joblog.ErrDegraded) && s.draining.CompareAndSwap(false, true) {
				s.log.Error(context.Background(),
					"trapd: job log degraded, node entering read-only drain", "err", err)
			}
			s.log.Warn(context.Background(), "trapd: cluster state append rejected",
				"job", id, "status", j.Status, "err", err)
			return j.Status.terminal()
		}
		return false
	}
	ev := JobEvent{Type: evState, Status: j.Status, Error: j.Error}
	s.events.publish(id, ev)
	s.appendJobRecord(recState, j)
	if j.Status.terminal() {
		if j.Status == JobDone && j.Result != nil {
			s.events.publish(id, JobEvent{Type: evResult, Result: j.Result})
		}
		s.events.closeHub(id)
	}
	return false
}

// Close releases the server's durable resources (the job log, the
// fleet attachment) and waits out an in-flight profile capture. Safe
// to call more than once; serving continues degraded if it ever races
// an in-flight append (appends after close fail soft).
func (s *Server) Close() error {
	if s.prof != nil {
		s.prof.stop()
	}
	if s.metricsStop != nil {
		s.metricsOnce.Do(func() {
			close(s.metricsStop)
			<-s.metricsDone
		})
	}
	if s.coord != nil {
		s.coord.Stop()
	}
	if s.bus != nil {
		s.bus.Detach(s.cfg.NodeID)
		if s.ownBus {
			return s.bus.Close()
		}
		return nil
	}
	if s.jlog != nil {
		return s.jlog.Close()
	}
	return nil
}

// Handler returns the service's HTTP handler (metrics middleware
// included) — used directly by tests and in-process embedding.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.Inc()
		s.reg.Counter(routeCounterName(r)).Inc()
		defer obs.StartSpan(s.mReqSecs).End()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		s.mux.ServeHTTP(w, r)
	})
}

// routeCounterName buckets request paths into low-cardinality metric
// names (job IDs are collapsed).
func routeCounterName(r *http.Request) string {
	path := r.URL.Path
	if strings.HasPrefix(path, "/v1/jobs/") {
		path = "/v1/jobs"
	}
	if strings.HasPrefix(path, "/v1/traces/") {
		path = "/v1/traces"
	}
	return fmt.Sprintf("trapd_http_requests_total{path=%q}", path)
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

// gcLoop periodically drops terminal jobs older than JobTTL so the job
// store does not grow without bound under sustained load.
func (s *Server) gcLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.GCInterval)
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

// collectGarbage drops terminal jobs past their TTL from every layer:
// the in-memory store, the SSE event hubs, and — via a tombstone — the
// durable job log, so a restart does not resurrect what the GC already
// forgot.
func (s *Server) collectGarbage(ctx context.Context, now time.Time) int {
	dropped := s.jobs.gc(s.cfg.JobTTL, now)
	if len(dropped) == 0 {
		return 0
	}
	for _, id := range dropped {
		s.events.drop(id)
		s.tscopes.drop(id)
		switch {
		case s.bus != nil:
			// Fleet-wide tombstone: every node's fold forgets the job
			// (duplicate tombstones from concurrent GCs are idempotent).
			if _, err := s.bus.Append(s.cfg.NodeID, recDrop, id, nil); err != nil {
				s.log.Warn(ctx, "trapd: job log drop append failed", "job", id, "err", err)
			}
		case s.jlog != nil:
			if _, err := s.jlog.Append(recDrop, id, nil); err != nil {
				s.log.Warn(ctx, "trapd: job log drop append failed", "job", id, "err", err)
			}
		}
	}
	s.mJobsGCed.Add(int64(len(dropped)))
	s.log.Info(ctx, "trapd: gc dropped finished jobs", "count", len(dropped), "ttl", s.cfg.JobTTL)
	return len(dropped)
}

// Drain stops job intake, cancels queued-but-unstarted jobs, and waits
// (bounded by ctx) for running jobs to finish. In cluster mode queued
// jobs are released instead of canceled: their leases go back to the
// fleet and a surviving node picks them up.
func (s *Server) Drain(ctx context.Context) {
	for _, id := range s.pool.shutdown(ctx) {
		if s.coord != nil {
			s.coord.Release(id)
			continue
		}
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

// runJob executes one assessment job on a worker goroutine: it gives the
// job a cancelable timeout context (registered for DELETE /v1/jobs/{id}),
// retries transient failures with exponential backoff + jitter, isolates
// panics as job failures, and classifies the terminal state.
func (s *Server) runJob(id string) {
	j, ok := s.jobs.get(id)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.JobTimeout)
	s.jobs.setCancel(id, cancel)
	defer func() {
		s.jobs.clearCancel(id)
		cancel()
	}()
	if s.coord != nil {
		// Lease gate: the run proceeds only while this node still owns
		// the job; the coordinator cancels ctx the moment the lease is
		// taken over at a higher epoch (the fence).
		if _, ok := s.coord.RunStarted(id, cancel); !ok {
			return // lease lost while queued: another node owns the job
		}
		defer s.coord.RunEnded(id)
	}
	started := false
	now := time.Now()
	s.jobs.update(id, func(j *Job) {
		if j.Status == JobPending {
			j.Status = JobRunning
			j.Started = &now
			started = true
		}
	})
	if !started {
		// Canceled (or otherwise finalized) while queued: nothing to run.
		return
	}
	s.publishState(id)
	// Telemetry scope: the training and attack loops below append their
	// per-epoch / per-step series into it through the context. The scope
	// survives retries — the series' monotonic step gates dedup re-run
	// epochs — and is served by GET /v1/jobs/{id}/telemetry.
	ctx = telemetry.NewContext(ctx, s.tscopes.getOrCreate(id))
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
	if tid := tsp.TraceID(); tid != "" {
		s.jobs.update(id, func(j *Job) { j.TraceID = tid })
	}
	// Span→event bridge: each finished measurement cell streams a "cell"
	// progress event to the job's SSE subscribers. Only sampled jobs have
	// a trace to observe; unsampled ones still stream state and epoch
	// events. Cluster mode skips the bridge: hub events must come only
	// from folded records so Seqs stay identical across nodes.
	if s.coord == nil {
		tsp.Observe(s.cellObserver(id))
	}
	s.mJobsRun.Add(1)
	sp := obs.StartSpan(s.mJobSecs)
	var res *JobResult
	var err error
	for attempt := 1; ; attempt++ {
		s.jobs.update(id, func(j *Job) { j.Attempts = attempt })
		res, err = s.runAssessment(ctx, j)
		if err == nil || ctx.Err() != nil {
			break
		}
		var pe *panicError
		if errors.As(err, &pe) {
			// Panics are never retried: they indicate a bug (or an
			// injected crash), not a transient condition.
			break
		}
		if attempt > s.cfg.MaxRetries || !faultinject.IsTransient(err) {
			break
		}
		backoff := s.cfg.RetryBackoff << (attempt - 1)
		backoff += time.Duration(rand.Int63n(int64(backoff)/2 + 1))
		s.mJobRetries.Inc()
		tsp.Event("retry")
		s.log.Warn(ctx, "trapd: job attempt failed on transient error, retrying",
			"attempt", attempt, "backoff", backoff.Round(time.Millisecond), "err", err)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			err = ctx.Err()
		}
		if ctx.Err() != nil {
			break
		}
	}
	elapsed := sp.EndExemplar(tsp.TraceID())
	s.mJobsRun.Add(-1)
	tsp.Fail(err)
	tsp.End()

	var pe *panicError
	isPanic := errors.As(err, &pe)
	fin := time.Now()
	s.jobs.update(id, func(j *Job) {
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
	if s.publishState(id) {
		// The terminal record bounced off the fence (or the node is dead
		// or partitioned): another node owns the job now and will publish
		// the real result. This run's outcome is discarded — not counted
		// as done, the checkpoint left in place for the new owner.
		s.mJobsFenced.Inc()
		s.log.Warn(ctx, "trapd: job result fenced, discarding",
			"elapsed", elapsed.Round(time.Millisecond), "err", err)
		return
	}
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

// cellObserver builds the span→event bridge that streams one "cell"
// progress event per finished measurement cell.
func (s *Server) cellObserver(id string) func(trace.SpanEnd) {
	return func(se trace.SpanEnd) {
		if se.Name != "assess.cell" {
			return
		}
		ev := JobEvent{Type: evCell}
		for _, a := range se.Attrs {
			switch a.Key {
			case "workload":
				if v, ok := a.Value.(int64); ok {
					w := int(v)
					ev.Workload = &w
				}
			case "pairs":
				if v, ok := a.Value.(int64); ok {
					ev.Pairs = int(v)
				}
			}
		}
		s.events.publish(id, ev)
	}
}

// runAssessment trains the method against the advisor and measures IUDR
// over the suite's test workloads under the job's context. The training
// and measurement loops are context-aware and stop at the next epoch,
// episode or pair boundary on cancellation (RL advisor training included,
// via BuildAdvisorCtx); runBounded additionally bounds the remaining
// non-context-aware stretches (heuristic advisor training), whose
// discarded goroutine then exits at the next context check it reaches. A
// panic anywhere in the assessment is captured as a *panicError return.
func (s *Server) runAssessment(ctx context.Context, j Job) (*JobResult, error) {
	suite := s.suites[j.Dataset]
	if suite == nil {
		return nil, fmt.Errorf("dataset %q not loaded", j.Dataset)
	}
	spec, err := assess.SpecByName(j.Advisor)
	if err != nil {
		return nil, err
	}
	pc, err := parseConstraint(j.Constraint)
	if err != nil {
		return nil, err
	}
	return runBounded(ctx, func() (res *JobResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, &panicError{val: r, stack: debug.Stack()}
			}
		}()
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
		}
		// The epoch hook always runs (it feeds the progress stream);
		// checkpointing piggybacks on it when a spool is configured.
		every := s.cfg.CheckpointEvery
		mc.EpochHook = func(fw *core.Framework, epoch int) error {
			// The epoch's telemetry rides along: the per-epoch RL series
			// values stream to SSE subscribers and (in cluster mode)
			// replicate fleet-wide inside the progress record, where every
			// node's fold re-appends them into its local scope.
			pts := rlPoints(s.tscopes.get(j.ID))
			if s.coord != nil {
				// Progress replicates through the shared log so every
				// node's SSE streams carry it. A fenced append means the
				// lease is gone: abort training immediately rather than
				// burn cores on a result nobody will accept. Append comes
				// before the checkpoint save, so a crash between the two
				// re-runs the epoch and the fold's high-water dedups it.
				if _, perr := s.coord.AppendOwned(recProgress, j.ID, progressData{Epoch: epoch + 1, Points: pts}); perr != nil {
					if errors.Is(perr, cluster.ErrFenced) || errors.Is(perr, cluster.ErrNotOwner) {
						return perr
					}
					// Partitioned or degraded: keep training; the fence
					// decides when the terminal state is published.
				}
			} else {
				s.events.publish(j.ID, JobEvent{Type: evEpoch, Epoch: epoch + 1})
				if len(pts) > 0 {
					s.events.publish(j.ID, JobEvent{Type: evTelemetry, Epoch: epoch + 1, Points: pts})
				}
			}
			if s.ckpt == nil || (epoch+1)%every != 0 {
				return nil
			}
			if serr := s.ckpt.save(j, fw, epoch+1); serr != nil {
				// Best-effort: a failed checkpoint write must not
				// fail the job, it only loses resumability.
				s.log.Warn(ctx, "trapd: checkpoint save failed", "err", serr)
				return nil
			}
			s.mCkptSaved.Inc()
			return nil
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
	})
}

// parseConstraint maps the wire name to a perturbation constraint.
func parseConstraint(name string) (core.PerturbConstraint, error) {
	switch name {
	case "", "shared", "shared-table":
		return core.SharedTable, nil
	case "value", "value-only":
		return core.ValueOnly, nil
	case "column", "column-consistent":
		return core.ColumnConsistent, nil
	}
	return 0, fmt.Errorf("unknown perturbation constraint %q (want value, column or shared)", name)
}

// runBounded runs f on its own goroutine and returns its result, or
// ctx's error once the deadline passes (f keeps running and its result
// is dropped).
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
