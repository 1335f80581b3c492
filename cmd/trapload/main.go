// Command trapload is the service-level load harness: it boots an
// in-process trapd server and slams it with concurrent assessment
// submissions across many tenants, honoring Retry-After on every shed,
// then waits for all the jobs to finish and writes the measured SLOs
// (admission latency, queue wait, throughput, shed counts, tenant
// fairness) as JSON:
//
//	trapload -jobs 1000 -clients 64 -tenants 8 -out BENCH_service.json
//
// The harness exercises the whole job path — admission quotas (429),
// capacity shedding (503), the priority queue, the worker pool, and job
// GC bookkeeping — without a network: clients drive http.Handler
// directly, so the latencies are the service's own, not the kernel's. Exit status is non-zero when an SLO is violated (a job
// never completed, a shed response lacked Retry-After, or admission
// p99 exceeded -slo-admit-p99).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/obs"
	olog "github.com/trap-repro/trap/internal/obs/log"
	"github.com/trap-repro/trap/internal/service"
)

// loadParams is the reduced assessment scale the harness runs at: the
// point is queue/admission behavior under many jobs, not model quality,
// so each job is a fast Random-method assessment.
func loadParams() assess.Params {
	p := assess.QuickParams()
	p.Templates = 8
	p.TrainWorkloads = 3
	p.TestWorkloads = 3
	p.WorkloadSize = 4
	p.UtilitySamples = 200
	p.PretrainPairs = 4
	p.PretrainEpochs = 1
	p.RLEpochs = 1
	p.AdvisorEpisodes = 8
	return p
}

// report is the BENCH_service.json shape: configuration, counters, and
// the measured SLOs of one harness run.
type report struct {
	Jobs       int     `json:"jobs"`
	Clients    int     `json:"clients"`
	Tenants    int     `json:"tenants"`
	Workers    int     `json:"workers"`
	QueueDepth int     `json:"queue_depth"`
	TenantQPS  float64 `json:"tenant_qps"`

	Accepted     int64 `json:"accepted"`
	ShedQuota    int64 `json:"shed_quota"`    // 429 responses observed
	ShedCapacity int64 `json:"shed_capacity"` // 503 responses observed
	Retries      int64 `json:"retries"`
	GiveUps      int64 `json:"give_ups"`

	AdmitP50Ms float64 `json:"admit_p50_ms"` // POST /v1/assess round latency
	AdmitP95Ms float64 `json:"admit_p95_ms"`
	AdmitP99Ms float64 `json:"admit_p99_ms"`
	AdmitMaxMs float64 `json:"admit_max_ms"`

	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"` // created → started
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	ExecP50Ms      float64 `json:"exec_p50_ms"` // started → finished
	ExecP99Ms      float64 `json:"exec_p99_ms"`

	Done          int     `json:"done"`
	Failed        int     `json:"failed"`
	WallSeconds   float64 `json:"wall_seconds"`
	JobsPerSecond float64 `json:"jobs_per_second"`

	TenantMinDone int     `json:"tenant_min_done"`
	TenantMaxDone int     `json:"tenant_max_done"`
	FairnessRatio float64 `json:"fairness_ratio"` // max/min done per tenant

	// Telemetry-scrape latency: GET /v1/jobs/{id}/telemetry issued
	// continuously while the jobs run, measuring how expensive the
	// observability read path is under load.
	TelemetryScrapes     int     `json:"telemetry_scrapes"`
	TelemetryScrapeP50Ms float64 `json:"telemetry_scrape_p50_ms"`
	TelemetryScrapeP99Ms float64 `json:"telemetry_scrape_p99_ms"`

	MaxRetryAfterSec int  `json:"max_retry_after_sec"`
	SLOViolated      bool `json:"slo_violated"`
}

func main() {
	jobs := flag.Int("jobs", 1000, "total assessment jobs to push through")
	clients := flag.Int("clients", 64, "concurrent submitting clients")
	tenants := flag.Int("tenants", 8, "distinct tenants the jobs are spread over")
	workers := flag.Int("workers", 0, "server worker pool size (default: NumCPU)")
	queue := flag.Int("queue", 0, "server queue depth (default: 4x workers)")
	tenantQPS := flag.Float64("tenant-qps", 4, "per-tenant admission rate, in bursts of its ceiling (0 disables quotas)")
	interactiveEvery := flag.Int("interactive-every", 4, "every Nth job is submitted interactive (0 = all batch)")
	seed := flag.Int64("seed", 42, "suite construction seed")
	maxAttempts := flag.Int("max-attempts", 200, "submission attempts per job before giving up")
	sloAdmitP99 := flag.Duration("slo-admit-p99", 250*time.Millisecond, "admission latency p99 budget")
	timeout := flag.Duration("timeout", 15*time.Minute, "whole-run deadline")
	out := flag.String("out", "BENCH_service.json", "output path for the JSON report")
	flag.Parse()

	if err := run(*jobs, *clients, *tenants, *workers, *queue, *tenantQPS,
		*interactiveEvery, *seed, *maxAttempts, *sloAdmitP99, *timeout, *out); err != nil {
		fmt.Fprintln(os.Stderr, "trapload:", err)
		os.Exit(1)
	}
}

func run(jobs, clients, tenants, workers, queue int, tenantQPS float64,
	interactiveEvery int, seed int64, maxAttempts int, sloAdmitP99, timeout time.Duration, out string) error {
	srv, err := service.NewServer(service.Config{
		Datasets:      []string{"tpch"},
		Params:        loadParams(),
		Seed:          seed,
		Workers:       workers,
		QueueDepth:    queue,
		JobTimeout:    5 * time.Minute,
		TenantQPS:     tenantQPS,
		PriorityQueue: true,
		Registry:      obs.NewRegistry(),
		Logger:        olog.New(io.Discard, slog.LevelInfo, olog.FormatText),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	deadline := time.Now().Add(timeout)

	var (
		accepted, shedQuota, shedCapacity, retries, giveUps atomic.Int64
		maxRetryAfter                                       atomic.Int64
		badShed                                             atomic.Int64

		mu       sync.Mutex
		admitLat []time.Duration
		ids      []string
		idTenant = map[string]string{}
	)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				tenant := fmt.Sprintf("t%02d", i%tenants)
				body := `{"dataset":"tpch","advisor":"Drop","method":"Random"}`
				for attempt := 1; ; attempt++ {
					req := httptest.NewRequest("POST", "/v1/assess", strings.NewReader(body))
					req.Header.Set("Content-Type", "application/json")
					req.Header.Set("X-Trap-Tenant", tenant)
					if interactiveEvery > 0 && i%interactiveEvery == 0 {
						req.Header.Set("X-Trap-Priority", "interactive")
					}
					rec := httptest.NewRecorder()
					t0 := time.Now()
					h.ServeHTTP(rec, req)
					lat := time.Since(t0)
					mu.Lock()
					admitLat = append(admitLat, lat)
					mu.Unlock()

					switch rec.Code {
					case http.StatusAccepted:
						var j service.Job
						if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
							fmt.Fprintf(os.Stderr, "trapload: bad accept body: %v\n", err)
							giveUps.Add(1)
						} else {
							accepted.Add(1)
							mu.Lock()
							ids = append(ids, j.ID)
							idTenant[j.ID] = tenant
							mu.Unlock()
						}
					case http.StatusTooManyRequests, http.StatusServiceUnavailable:
						if rec.Code == http.StatusTooManyRequests {
							shedQuota.Add(1)
						} else {
							shedCapacity.Add(1)
						}
						ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
						if err != nil || ra < 1 {
							// Every shed must carry an actionable Retry-After.
							badShed.Add(1)
							ra = 1
						}
						if int64(ra) > maxRetryAfter.Load() {
							maxRetryAfter.Store(int64(ra))
						}
						if attempt < maxAttempts && time.Now().Add(time.Duration(ra)*time.Second).Before(deadline) {
							retries.Add(1)
							time.Sleep(time.Duration(ra) * time.Second)
							continue
						}
						giveUps.Add(1)
					default:
						fmt.Fprintf(os.Stderr, "trapload: unexpected status %d: %s\n",
							rec.Code, rec.Body.String())
						giveUps.Add(1)
					}
					break
				}
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	fmt.Fprintf(os.Stderr, "trapload: submitted %d jobs in %.1fs (quota sheds %d, capacity sheds %d, retries %d)\n",
		accepted.Load(), time.Since(start).Seconds(), shedQuota.Load(), shedCapacity.Load(), retries.Load())

	// Scrape job telemetry continuously while the jobs drain, so the
	// report captures the observability read path's latency under load.
	var scrapeLat []time.Duration
	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for k := 0; ; k++ {
			select {
			case <-scrapeStop:
				return
			default:
			}
			if len(ids) == 0 {
				return
			}
			req := httptest.NewRequest("GET", "/v1/jobs/"+ids[k%len(ids)]+"/telemetry", nil)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			if rec.Code == http.StatusOK {
				scrapeLat = append(scrapeLat, time.Since(t0))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Wait for every accepted job to reach a terminal state.
	finals := make(map[string]service.Job, len(ids))
	pendingIDs := append([]string(nil), ids...)
	for len(pendingIDs) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("deadline: %d jobs still not terminal", len(pendingIDs))
		}
		remaining := pendingIDs[:0]
		for _, id := range pendingIDs {
			req := httptest.NewRequest("GET", "/v1/jobs/"+id, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("job %s: status %d", id, rec.Code)
			}
			var j service.Job
			if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
				return fmt.Errorf("job %s: %w", id, err)
			}
			switch j.Status {
			case service.JobDone, service.JobFailed, service.JobCanceled:
				finals[id] = j
			default:
				remaining = append(remaining, id)
			}
		}
		pendingIDs = remaining
		if len(pendingIDs) > 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	wall := time.Since(start)
	close(scrapeStop)
	<-scrapeDone

	// Fold the terminal snapshots into the report.
	var queueWait, exec []time.Duration
	perTenant := map[string]int{}
	done, failed := 0, 0
	for id, j := range finals {
		if j.Status == service.JobDone {
			done++
			perTenant[idTenant[id]]++
		} else {
			failed++
			fmt.Fprintf(os.Stderr, "trapload: job %s ended %s: %s\n", id, j.Status, j.Error)
		}
		if j.Started != nil {
			queueWait = append(queueWait, j.Started.Sub(j.Created))
			if j.Finished != nil {
				exec = append(exec, j.Finished.Sub(*j.Started))
			}
		}
	}
	minDone, maxDone := -1, 0
	for i := 0; i < tenants; i++ {
		n := perTenant[fmt.Sprintf("t%02d", i)]
		if minDone < 0 || n < minDone {
			minDone = n
		}
		if n > maxDone {
			maxDone = n
		}
	}
	fairness := 0.0
	if minDone > 0 {
		fairness = float64(maxDone) / float64(minDone)
	}

	r := report{
		Jobs: jobs, Clients: clients, Tenants: tenants,
		Workers: workers, QueueDepth: queue, TenantQPS: tenantQPS,
		Accepted: accepted.Load(), ShedQuota: shedQuota.Load(),
		ShedCapacity: shedCapacity.Load(), Retries: retries.Load(), GiveUps: giveUps.Load(),
		AdmitP50Ms: ms(pct(admitLat, 0.50)), AdmitP95Ms: ms(pct(admitLat, 0.95)),
		AdmitP99Ms: ms(pct(admitLat, 0.99)), AdmitMaxMs: ms(pct(admitLat, 1.0)),
		QueueWaitP50Ms: ms(pct(queueWait, 0.50)), QueueWaitP99Ms: ms(pct(queueWait, 0.99)),
		ExecP50Ms: ms(pct(exec, 0.50)), ExecP99Ms: ms(pct(exec, 0.99)),
		Done: done, Failed: failed,
		WallSeconds:   wall.Seconds(),
		JobsPerSecond: float64(done) / wall.Seconds(),
		TenantMinDone: minDone, TenantMaxDone: maxDone, FairnessRatio: fairness,
		TelemetryScrapes:     len(scrapeLat),
		TelemetryScrapeP50Ms: ms(pct(scrapeLat, 0.50)),
		TelemetryScrapeP99Ms: ms(pct(scrapeLat, 0.99)),
		MaxRetryAfterSec:     int(maxRetryAfter.Load()),
	}
	r.SLOViolated = failed > 0 || giveUps.Load() > 0 || badShed.Load() > 0 ||
		done != jobs || pct(admitLat, 0.99) > sloAdmitP99

	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(js, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"trapload: %d/%d done in %.1fs (%.1f jobs/s), admit p99 %.2fms, queue-wait p99 %.0fms, fairness %.2f, telemetry-scrape p99 %.2fms (%d scrapes)\n",
		done, jobs, wall.Seconds(), r.JobsPerSecond, r.AdmitP99Ms, r.QueueWaitP99Ms, fairness,
		r.TelemetryScrapeP99Ms, r.TelemetryScrapes)
	fmt.Fprintf(os.Stderr, "trapload: wrote %s\n", out)

	if badShed.Load() > 0 {
		return fmt.Errorf("%d shed responses lacked a usable Retry-After", badShed.Load())
	}
	if r.SLOViolated {
		return fmt.Errorf("SLO violated: done=%d/%d failed=%d give_ups=%d admit_p99=%.2fms (budget %s)",
			done, jobs, failed, giveUps.Load(), r.AdmitP99Ms, sloAdmitP99)
	}
	return nil
}

// pct returns the q-quantile of ds (nearest-rank); zero when empty.
func pct(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
