package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/trap-repro/trap/internal/obs"
	olog "github.com/trap-repro/trap/internal/obs/log"
	"github.com/trap-repro/trap/internal/service"
	"github.com/trap-repro/trap/internal/trace"
)

// jobKinds is trapd_open's job mix, submitted in turn.
var jobKinds = []struct{ method, advisor string }{
	{"TRAP", "Extend"}, {"TRAP", "DB2Advis"}, {"TRAP", "AutoAdmin"}, {"TRAP", "Drop"},
	{"Random", "Extend"}, {"Random", "DB2Advis"}, {"GRU", "Extend"}, {"Random", "Drop"},
}

// loadPhases are the open loop's two fixed rates, run back to back.
var loadPhases = []struct {
	name string
	perS float64
}{{"low", 4}, {"high", 7}}

const (
	serverStarts  = 3                     // setup_s is the median of these
	warmupRounds  = 2                     // sequential rounds of every job kind
	readEvery     = 50 * time.Millisecond // the reader's poll period
	maxGenLateP90 = 50 * time.Millisecond // beyond this the generator fell behind
	drainTimeout  = 120 * time.Second     // for the last jobs to finish
	pollEvery     = 10 * time.Millisecond // completion polling
	stopTimeout   = 60 * time.Second      // server drain at shutdown
)

// client calls the in-process trapd handler; with a tracer each call is
// a root span of its own.
type client struct {
	h  http.Handler
	tr *trace.Tracer // nil: untraced
}

func (c *client) do(method, path, body, span string) (int, []byte, time.Duration) {
	ctx := context.Background()
	var sp *trace.Span
	if c.tr != nil {
		ctx, sp = c.tr.Start(ctx, "bench.http."+span)
	}
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd).WithContext(ctx)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	c.h.ServeHTTP(rec, req)
	d := time.Since(t0)
	sp.End()
	return rec.Code, rec.Body.Bytes(), d
}

// submit posts one job of the given kind.
func (c *client) submit(kind int) (id string, code int, d time.Duration) {
	k := jobKinds[kind]
	body := fmt.Sprintf(`{"dataset":"tpch","advisor":%q,"method":%q,"constraint":"shared"}`, k.advisor, k.method)
	code, b, d := c.do("POST", "/v1/assess", body, "submit")
	var j service.Job
	if code == http.StatusAccepted && json.Unmarshal(b, &j) == nil {
		id = j.ID
	}
	return id, code, d
}

// get reads one job.
func (c *client) get(id string) (service.Job, time.Duration, error) {
	code, b, d := c.do("GET", "/v1/jobs/"+id, "", "job")
	var j service.Job
	if code != http.StatusOK {
		return j, d, fmt.Errorf("GET job %s: status %d", id, code)
	}
	return j, d, json.Unmarshal(b, &j)
}

// wait polls a job until it is terminal.
func (c *client) wait(id string, deadline time.Time) (service.Job, error) {
	for {
		j, _, err := c.get(id)
		if err != nil {
			return j, err
		}
		if j.Status == service.JobDone || j.Status == service.JobFailed || j.Status == service.JobCanceled {
			return j, nil
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("job %s still %s at the deadline", id, j.Status)
		}
		time.Sleep(pollEvery)
	}
}

// startServer builds one trapd instance under dir, as trapd does with
// -joblog-dir and -spool-dir, default workers, quick-scale tpch and its
// default suite seed (referenceSeed).
func startServer(dir string, tr *trace.Tracer) (*service.Server, *obs.Registry, error) {
	reg := obs.NewRegistry()
	srv, err := service.NewServer(service.Config{
		JobLogDir: filepath.Join(dir, "joblog"),
		SpoolDir:  filepath.Join(dir, "spool"),
		Registry:  reg,
		Tracer:    tr,
		Logger:    olog.New(io.Discard, slog.LevelInfo, olog.FormatText),
	})
	return srv, reg, err
}

func stopServer(srv *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	srv.Drain(ctx)
	srv.Close()
}

// sentJob is one timed submission.
type sentJob struct {
	id    string
	kind  int
	phase int
	due   time.Time
	code  int
}

// loadStats is what one pass of the open loop measured.
type loadStats struct {
	jobs       []sentJob
	admitMS    []float64
	readMS     []float64
	lateMS     []float64
	depthEnd   []float64
	spoolPerJB float64 // peak spool bytes per running job
}

func runTrapdOpen(r *run) error {
	ref, err := reference()
	if err != nil {
		return err
	}
	base := filepath.Join(".bench_build", "trapd", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(base)
	var tg *tracing
	var tr *trace.Tracer
	if r.traced {
		tg = newTracing()
		defer tg.close()
		tr = tg.tr
	}

	var setups []float64
	var srv *service.Server
	var reg *obs.Registry
	for i := 0; i < serverStarts; i++ {
		t0 := time.Now()
		s, rg, err := startServer(filepath.Join(base, strconv.Itoa(i)), tr)
		if err != nil {
			return fmt.Errorf("starting trapd: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if srv != nil {
			stopServer(srv)
		}
		srv, reg = s, rg
	}
	defer stopServer(srv)
	dir := filepath.Join(base, strconv.Itoa(serverStarts-1))
	c := &client{h: srv.Handler()}

	// Warm-up: every kind, sequentially, twice. The first job of a kind
	// can still grow the shared suite's vocabulary and so change the
	// results of kinds that ran before it (concurrent first jobs even
	// change each other's); from the second round on every kind's result
	// is fixed, and the timed jobs are checked against it.
	warm := make([]cellResult, len(jobKinds))
	want := ref["trapd_open"][strconv.Itoa(referenceSeed)]
	if len(want) == 0 {
		fmt.Fprintln(r.log, "WARNING: no trapd_open reference; warm-up results unchecked")
	}
	for round := 0; round < warmupRounds; round++ {
		for i := range jobKinds {
			idx := round*len(jobKinds) + i
			id, code, _ := c.submit(i)
			ok := code == http.StatusAccepted
			if ok {
				j, err := c.wait(id, time.Now().Add(drainTimeout))
				ok = err == nil && j.Status == service.JobDone && j.Result != nil
				if ok {
					warm[i] = jobCell(i, *j.Result)
					ok = len(want) == 0 || (idx < len(want) && sameCell(warm[i], want[idx]))
				}
				logWarmup(r, i, j)
			}
			if !ok {
				fmt.Fprintf(r.log, "CHECK FAILED: warm-up round %d job %d (%v)\n", round, i, jobKinds[i])
			}
			r.op(ok)
		}
	}

	suite := srv.Suite("tpch")
	// The seed sets where in the kind rotation the load starts and where
	// within the first interval the first submission falls.
	rng := rand.New(rand.NewSource(r.seed))
	offset, phase := rng.Intn(len(jobKinds)), rng.Float64()
	phaseS := r.seconds / float64(len(loadPhases))
	tot := &layerTotals{}
	if r.traced {
		// Untraced pass, then the traced pass over the same schedule
		// length: the ratio of their throughputs is the tracing overhead.
		phaseS /= 2
		ls := runLoad(c, reg, dir, phase, offset, phaseS)
		_, _, execA := r.checkJobs(c, ls, warm)
		tg.collect()
		c.tr = tr
		if err := tg.startProfile(); err != nil {
			return err
		}
		before := readCounters(suite.E)
		lsB := runLoad(c, reg, dir, phase, offset, phaseS)
		after := readCounters(suite.E)
		if err := tg.stopProfile(); err != nil {
			return err
		}
		tot.addDelta(before, after)
		jobs, lat, execB := r.checkJobs(c, lsB, warm)
		tot.ops = len(jobs)
		if len(execA) > 0 && len(execB) > 0 {
			tot.untracedOpS = sum(execA) / float64(len(execA))
			tot.tracedOpS = sum(execB) / float64(len(execB))
		}
		for _, j := range jobs {
			if j.TraceID != "" && j.Started != nil && j.Finished != nil {
				tg.foldTrace(j.TraceID, nil, j.Finished.Sub(*j.Started).Seconds(), tot)
			}
		}
		r.reportLoad(lsB, jobs, lat, execB, reg, dir)
	} else {
		before := readCounters(suite.E)
		ls := runLoad(c, reg, dir, phase, offset, phaseS)
		after := readCounters(suite.E)
		tot.addDelta(before, after)
		jobs, lat, exec := r.checkJobs(c, ls, warm)
		tot.ops = len(jobs)
		r.reportLoad(ls, jobs, lat, exec, reg, dir)
	}
	r.set("setup_s", quantile(setups, 0.5))
	fmt.Fprintf(r.log, "server starts %v\n", setups)
	if tg != nil {
		_, tot.spanSum = tg.spanTotals()
		for name, s := range tot.spanSum {
			if strings.HasPrefix(name, "bench.http.") {
				tg.self[name] += s
				tg.wall += s
			}
		}
		tot.cpuSamples = tg.cpu
		tg.printSelfTable(r.log)
		if err := tg.writeSpans(r.workload, r.seed); err != nil {
			return err
		}
	}
	tot.report(r)
	return nil
}

// runLoad runs the open loop once: for each phase, one submission every
// 1/rate seconds for phaseS seconds (the first after a seed-chosen
// fraction of an interval), cycling through the job kinds from offset;
// one reader polls a running job and scrapes its telemetry every
// readEvery. It returns once every submitted job is terminal (or the
// drain timeout passed).
func runLoad(c *client, reg *obs.Registry, dir string, phase float64, offset int, phaseS float64) loadStats {
	runtime.GC() // start the load from a collected heap
	var ls loadStats
	var mu sync.Mutex // guards ids and ls.readMS / ls.spoolPerJB
	var ids []string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(readEvery)
		defer t.Stop()
		next := 0
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			mu.Lock()
			var id string
			if len(ids) > 0 {
				id = ids[next%len(ids)]
				next++
			}
			mu.Unlock()
			if id == "" {
				continue
			}
			_, d1, _ := c.get(id)
			_, _, d2 := c.do("GET", "/v1/jobs/"+id+"/telemetry", "", "telemetry")
			running := reg.Gauge("trapd_jobs_running").Value()
			spool := float64(dirBytes(filepath.Join(dir, "spool")))
			mu.Lock()
			ls.readMS = append(ls.readMS, ms(d1), ms(d2))
			if running > 0 && spool/running > ls.spoolPerJB {
				ls.spoolPerJB = spool / running
			}
			mu.Unlock()
		}
	}()

	n := 0
	for p, ph := range loadPhases {
		start := time.Now()
		for i := 0; ; i++ {
			t := (float64(i) + phase) / ph.perS
			if t >= phaseS {
				break
			}
			due := start.Add(time.Duration(t * float64(time.Second)))
			time.Sleep(time.Until(due))
			at := time.Now()
			kind := (offset + n) % len(jobKinds)
			n++
			id, code, d := c.submit(kind)
			ls.jobs = append(ls.jobs, sentJob{id: id, kind: kind, phase: p, due: due, code: code})
			ls.admitMS = append(ls.admitMS, ms(d))
			ls.lateMS = append(ls.lateMS, ms(at.Sub(due)))
			if id != "" {
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
			}
		}
		time.Sleep(time.Until(start.Add(time.Duration(phaseS * float64(time.Second)))))
		ls.depthEnd = append(ls.depthEnd, reg.Values()["trapd_jobs_pending"])
	}
	deadline := time.Now().Add(drainTimeout)
	for _, sj := range ls.jobs {
		if sj.id != "" {
			c.wait(sj.id, deadline) // errors surface in checkJobs
		}
	}
	close(stop)
	wg.Wait()
	return ls
}

// checkJobs reads every timed job back and checks it: accepted, done,
// and with the same result as the warm-up job of its kind. It returns
// the jobs that passed, their latencies from the scheduled send to done,
// and their execution times.
func (r *run) checkJobs(c *client, ls loadStats, warm []cellResult) (jobs []service.Job, lat, exec []float64) {
	for _, sj := range ls.jobs {
		ok := sj.code == http.StatusAccepted
		var j service.Job
		if ok {
			var err error
			j, _, err = c.get(sj.id)
			ok = err == nil && j.Status == service.JobDone && j.Result != nil &&
				j.Started != nil && j.Finished != nil && sameCell(jobCell(sj.kind, *j.Result), warm[sj.kind])
		}
		if !ok {
			fmt.Fprintf(r.log, "CHECK FAILED: job %q kind %d status %d/%s\n", sj.id, sj.kind, sj.code, j.Status)
			r.op(false)
			continue
		}
		r.op(true)
		jobs = append(jobs, j)
		lat = append(lat, j.Finished.Sub(sj.due).Seconds())
		exec = append(exec, j.Finished.Sub(*j.Started).Seconds())
	}
	return jobs, lat, exec
}

// reportLoad sets the latency, throughput and service metrics of one
// load pass and marks the run invalid when the generator fell behind or
// the backlog grew.
func (r *run) reportLoad(ls loadStats, jobs []service.Job, lat, exec []float64, reg *obs.Registry, dir string) {
	byPhase := make([][]float64, len(loadPhases))
	var qwait []float64
	k := 0
	shed := 0
	for _, sj := range ls.jobs {
		if sj.code != http.StatusAccepted {
			shed++
		}
	}
	for _, sj := range ls.jobs {
		if k < len(jobs) && sj.id == jobs[k].ID {
			byPhase[sj.phase] = append(byPhase[sj.phase], lat[k])
			qwait = append(qwait, jobs[k].Started.Sub(jobs[k].Created).Seconds())
			k++
		}
	}
	r.set("job_p50_s", quantile(lat, 0.5))
	r.set("job_p90_s", quantile(lat, 0.9))
	for p, ph := range loadPhases {
		r.set("job_p50_s."+ph.name, quantile(byPhase[p], 0.5))
		r.set("job_p90_s."+ph.name, quantile(byPhase[p], 0.9))
	}
	// Throughput over the load's wall time, first scheduled send to last
	// finish: the offered rate until trapd falls behind it.
	var last time.Time
	for _, j := range jobs {
		if j.Finished.After(last) {
			last = *j.Finished
		}
	}
	if len(jobs) > 0 {
		r.set("assess_per_s", float64(len(jobs))/last.Sub(ls.jobs[0].due).Seconds())
	}
	r.set("service.queue_wait_p90_s", quantile(qwait, 0.9))
	r.set("service.exec_p50_s", quantile(exec, 0.5))
	r.set("service.admit_p50_ms", quantile(ls.admitMS, 0.5))
	r.set("service.admit_p90_ms", quantile(ls.admitMS, 0.9))
	r.set("service.read_p90_ms", quantile(ls.readMS, 0.9))
	if len(ls.jobs) > 0 {
		r.set("service.shed_ratio", float64(shed)/float64(len(ls.jobs)))
	}
	if total := reg.Counter("trapd_jobs_submitted_total").Value(); total > 0 {
		r.set("joblog.bytes_per_job", float64(dirBytes(filepath.Join(dir, "joblog")))/float64(total))
	}
	r.set("spool.bytes_per_job", ls.spoolPerJB)
	late := quantile(ls.lateMS, 0.9)
	r.set("bench.gen_late_p90_ms", late)
	depth := 0.0
	for _, d := range ls.depthEnd {
		depth = math.Max(depth, d)
	}
	r.set("bench.queue_depth_end", depth)
	fmt.Fprintf(r.log, "load: %d sent, %d done, %d shed, queue depth at phase ends %v, generator late p90 %.2fms, %d reads\n",
		len(ls.jobs), len(jobs), shed, ls.depthEnd, late, len(ls.readMS))
	if late > float64(maxGenLateP90)/float64(time.Millisecond) {
		r.invalid = append(r.invalid, fmt.Sprintf("generator fell behind: late p90 %.1fms", late))
	}
	if limit := float64(2 * runtime.NumCPU()); depth > limit {
		r.invalid = append(r.invalid, fmt.Sprintf("backlog grew: %v jobs queued at a phase end (limit %v)", depth, limit))
	}
}

// jobCell is a job result in the reference format.
func jobCell(kind int, res service.JobResult) cellResult {
	return cellResult{Advisor: jobKinds[kind].advisor, Method: jobKinds[kind].method,
		IUDR: res.MeanIUDR, N: res.Workloads, Pairs: res.Pairs, NonSargable: res.NonSargable}
}

// logWarmup prints a warm-up job's result in the reference format.
func logWarmup(r *run, kind int, j service.Job) {
	if j.Result == nil {
		return
	}
	b, _ := json.Marshal(jobCell(kind, *j.Result)) // plain struct: always marshals
	fmt.Fprintf(r.log, "warmup %s\n", b)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // files come and go under a live spool
		}
		if info, ierr := d.Info(); ierr == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
