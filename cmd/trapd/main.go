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
//	      [-job-ttl 1h] [-spool DIR] [-inject SPEC] [-pprof]
//	      [-joblog DIR] [-tenant-qps N]
//	      [-log-level info] [-log-format text|json]
//
// trapd shuts down gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests and running assessment jobs drain, and queued jobs
// are canceled. Each job runs once; with -spool set, RL training
// checkpoints after every epoch, so a canceled, failed or crashed job
// that is resubmitted (or replayed from -joblog) resumes from the last
// completed epoch. -inject arms the deterministic fault harness (see
// internal/faultinject); an injected error fails its job, e.g.
//
//	trapd -spool /tmp/trapd -inject 'core.rl.epoch:error:count=1'
//
// -joblog makes jobs durable: every transition is appended (fsync'd) to
// a CRC-framed log that is replayed on startup, so jobs interrupted by
// a process death are re-enqueued and — combined with -spool — resume
// mid-training. -tenant-qps arms per-tenant admission quotas (the
// X-Trap-Tenant request header identifies the tenant; over-quota
// submissions get 429 + Retry-After):
//
//	trapd -joblog /var/lib/trapd/joblog -spool /var/lib/trapd/spool -tenant-qps 5
//
// The X-Trap-Priority header is always honoured: interactive jobs are
// dequeued before batch ones, a job without the header is batch, and an
// unknown value is a 400. /v1/traces keeps the last 64 job traces and
// the 8 slowest of each operation.
//
// One trapd writes each of -joblog and -spool: it locks them at
// startup, before building any suite, and a second trapd on a locked
// directory exits at once with an error naming it. A standby is that
// second trapd under a supervisor that restarts it until the first
// process is gone; it then replays the log and resumes the interrupted
// jobs from the spool.
//
// -workers bounds the jobs that run at once. Inside a job, the RL
// rollout pool and the per-workload measurement pool size to GOMAXPROCS.
// -pprof mounts net/http/pprof under /debug/pprof/ for profiling a
// running assessment. Samples carry the labels job (the job ID) and
// layer (advisor_build, train, pretrain or measure), so one capture
// splits by job and by layer:
//
//	go tool pprof 'http://localhost:8080/debug/pprof/profile?seconds=30'
//	go tool pprof -tagfocus job=job-3 'http://localhost:8080/debug/pprof/profile?seconds=30'
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
	jobTTL := flag.Duration("job-ttl", time.Hour, "how long finished jobs stay queryable before GC")
	spool := flag.String("spool", "", "checkpoint spool directory (empty disables checkpoint/resume)")
	joblogDir := flag.String("joblog", "", "durable job-log directory, locked by this trapd (empty disables job durability)")
	tenantQPS := flag.Float64("tenant-qps", 0, "per-tenant job submission rate, in bursts of its ceiling (0 disables quotas)")
	injectSpec := flag.String("inject", "", "fault-injection rules, e.g. 'core.rl.epoch:error:count=1;engine.cost:delay:every=100,delay=5ms'")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof endpoints under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", olog.FormatText, "log format: text or json")
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
		Addr:           *addr,
		Datasets:       names,
		Params:         p,
		Seed:           *seed,
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *reqTimeout,
		JobTimeout:     *jobTimeout,
		MaxBodyBytes:   *maxBody,
		JobTTL:         *jobTTL,
		SpoolDir:       *spool,
		JobLogDir:      *joblogDir,
		TenantQPS:      *tenantQPS,
		Injector:       injector,
		EnablePprof:    *enablePprof,
		Logger:         logger,
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
