// Command trapd is the long-running TRAP assessment service: it
// pre-builds per-dataset assessment suites, serves the HTTP JSON API of
// internal/service, runs assessment jobs on a bounded worker pool, and
// exposes runtime metrics at /metrics.
//
// Usage:
//
//	trapd [-addr :8080] [-datasets tpch,tpcds,transaction] [-scale quick|full]
//	      [-workers N] [-queue N] [-seed 42]
//	      [-request-timeout 30s] [-job-timeout 15m] [-max-body 1048576]
//	      [-max-retries 2] [-retry-backoff 100ms] [-job-ttl 1h] [-gc-interval 1m]
//	      [-spool DIR] [-checkpoint-every 1] [-inject SPEC] [-pprof]
//	      [-joblog DIR] [-tenant-qps N] [-tenant-burst N] [-priority-queue]
//	      [-log-level info] [-log-format text|json]
//	      [-trace-recent 64] [-trace-slow 8] [-trace-every 1]
//	      [-profile-dir DIR] [-profile-threshold 1s] [-profile-keep 8]
//	      [-profile-cpu-window 1s]
//
// trapd shuts down gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests and running assessment jobs drain, and queued jobs
// are canceled. With -spool set, RL training checkpoints every
// -checkpoint-every epochs so canceled/crashed/retried jobs resume from
// the last completed epoch. -inject arms the deterministic fault
// harness (see internal/faultinject), e.g.
//
//	trapd -spool /tmp/trapd -inject 'core.rl.epoch:error:count=1'
//
// -joblog makes jobs durable: every transition is appended (fsync'd) to
// a CRC-framed log that is replayed on startup, so jobs interrupted by
// a process death are re-enqueued and — combined with -spool — resume
// mid-training. -tenant-qps arms per-tenant admission quotas (the
// X-Trap-Tenant request header identifies the tenant; over-quota
// submissions get 429 + Retry-After), and -priority-queue honors the
// X-Trap-Priority header (interactive jobs are dequeued before batch):
//
//	trapd -joblog /var/lib/trapd/joblog -spool /var/lib/trapd/spool \
//	      -tenant-qps 5 -tenant-burst 10 -priority-queue
//
// One trapd writes each of -joblog, -spool and -profile-dir: it locks
// them at startup, before building any suite, and a second trapd on a
// locked directory exits at once with an error naming it. A standby is
// that second trapd under a supervisor that restarts it until the first
// process is gone; it then replays the log and resumes the interrupted
// jobs from the spool.
//
// -workers bounds the jobs that run at once. Inside a job, the RL
// rollout pool and the per-workload measurement pool size to GOMAXPROCS.
// -pprof mounts net/http/pprof under /debug/pprof/ for profiling a
// running assessment:
//
//	go tool pprof 'http://localhost:8080/debug/pprof/profile?seconds=30'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/faultinject"
	olog "github.com/trap-repro/trap/internal/obs/log"
	"github.com/trap-repro/trap/internal/service"
	"github.com/trap-repro/trap/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	datasets := flag.String("datasets", "tpch", "comma-separated datasets to serve (tpch,tpcds,transaction)")
	scale := flag.String("scale", "quick", "suite parameters: quick or full")
	workers := flag.Int("workers", 0, "assessment worker pool size (default: NumCPU)")
	queue := flag.Int("queue", 0, "pending-job queue depth (default: 4x workers)")
	seed := flag.Int64("seed", 42, "random seed for suite construction")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "synchronous request deadline")
	jobTimeout := flag.Duration("job-timeout", 15*time.Minute, "assessment job deadline")
	maxBody := flag.Int64("max-body", 1<<20, "maximum request body bytes")
	maxRetries := flag.Int("max-retries", 2, "max retries for jobs failing on transient errors (negative disables)")
	retryBackoff := flag.Duration("retry-backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt, plus jitter)")
	jobTTL := flag.Duration("job-ttl", time.Hour, "how long finished jobs stay queryable before GC")
	gcInterval := flag.Duration("gc-interval", time.Minute, "job garbage-collection interval")
	spool := flag.String("spool", "", "checkpoint spool directory (empty disables checkpoint/resume)")
	ckptEvery := flag.Int("checkpoint-every", 1, "RL epochs between training checkpoints")
	joblogDir := flag.String("joblog", "", "durable job-log directory, locked by this trapd (empty disables job durability)")
	tenantQPS := flag.Float64("tenant-qps", 0, "per-tenant job submission rate (0 disables quotas)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant submission burst (default: ceil of -tenant-qps)")
	priorityQueue := flag.Bool("priority-queue", false, "honor the X-Trap-Priority header (interactive before batch)")
	injectSpec := flag.String("inject", "", "fault-injection rules, e.g. 'core.rl.epoch:error:count=1;engine.cost:delay:every=100,delay=5ms'")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof endpoints under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", olog.FormatText, "log format: text or json")
	traceRecent := flag.Int("trace-recent", 0, "recency ring size of the trace store (default 64)")
	traceSlow := flag.Int("trace-slow", 0, "slowest traces kept per operation (default 8)")
	traceEvery := flag.Int("trace-every", 1, "head-sampling stride: trace every Nth job (1 = all)")
	profileDir := flag.String("profile-dir", "", "continuous-profiling capture directory (empty disables)")
	profileThreshold := flag.Duration("profile-threshold", 0, "span duration that triggers a profile capture (default 1s)")
	profileKeep := flag.Int("profile-keep", 0, "profile captures retained before the oldest is pruned (default 8)")
	profileCPUWindow := flag.Duration("profile-cpu-window", 0, "CPU-profile window captured after a slow span (default 1s)")
	flag.Parse()

	level, err := olog.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trapd:", err)
		os.Exit(1)
	}
	if *logFormat != olog.FormatText && *logFormat != olog.FormatJSON {
		fmt.Fprintf(os.Stderr, "trapd: unknown log format %q (want text or json)\n", *logFormat)
		os.Exit(1)
	}
	logger := olog.New(os.Stderr, level, *logFormat)

	parsed, err := faultinject.Parse(*injectSpec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trapd:", err)
		os.Exit(1)
	}
	// Assign through the interface only when armed: a typed-nil *Seeded
	// stored in the Injector interface would defeat the nil check in
	// faultinject.Fire and panic at the first injection point.
	var injector faultinject.Injector
	if parsed != nil {
		injector = parsed
		fmt.Fprintln(os.Stderr, "trapd: FAULT INJECTION ARMED:", *injectSpec)
	}

	p := assess.QuickParams()
	if *scale == "full" {
		p = assess.FullParams()
	} else if *scale != "quick" {
		fmt.Fprintf(os.Stderr, "trapd: unknown scale %q (want quick or full)\n", *scale)
		os.Exit(1)
	}

	var names []string
	for _, d := range strings.Split(*datasets, ",") {
		if d = strings.TrimSpace(d); d != "" {
			names = append(names, d)
		}
	}

	srv, err := service.NewServer(service.Config{
		Addr:             *addr,
		Datasets:         names,
		Params:           p,
		Seed:             *seed,
		Workers:          *workers,
		QueueDepth:       *queue,
		RequestTimeout:   *reqTimeout,
		JobTimeout:       *jobTimeout,
		MaxBodyBytes:     *maxBody,
		MaxRetries:       *maxRetries,
		RetryBackoff:     *retryBackoff,
		JobTTL:           *jobTTL,
		GCInterval:       *gcInterval,
		SpoolDir:         *spool,
		CheckpointEvery:  *ckptEvery,
		JobLogDir:        *joblogDir,
		TenantQPS:        *tenantQPS,
		TenantBurst:      *tenantBurst,
		PriorityQueue:    *priorityQueue,
		Injector:         injector,
		EnablePprof:      *enablePprof,
		ProfileDir:       *profileDir,
		ProfileThreshold: *profileThreshold,
		ProfileKeep:      *profileKeep,
		ProfileCPUWindow: *profileCPUWindow,
		Logger:           logger,
		Tracer: trace.New(trace.Options{
			Recent: *traceRecent, SlowPerOp: *traceSlow, Every: *traceEvery,
		}),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "trapd:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "trapd:", err)
		os.Exit(1)
	}
}
