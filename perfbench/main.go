// Command perfbench is TRAP's end-to-end benchmark. It drives one of
// three workloads through the program's public entry points (the
// assessment harness of internal/assess and the trapd handler of
// internal/service), checks every result, and prints a metric table
// followed, as the last line of standard output, by one JSON object:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is traced (spans, CPU profile) and the metrics are the per-layer
// ones. All per-layer numbers are taken from outside the program: the
// benchmark times its own calls into each layer, wraps the advisor, and
// reads the counters the program already exports.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload grid_cold --seed 42 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"

	"github.com/trap-repro/trap/internal/buildinfo"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"assess_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by a traced run.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"engine.whatif_calls", "count/op"},
	{"engine.truecost_calls", "count/op"},
	{"engine.plans_built", "count/op"},
	{"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.singleflight_dedup", "count/op"},
	{"engine.evicted", "count/op"},
	{"engine.plan_s", "s/op"},
	{"engine.cost_batch_s", "s/op"},
	{"advisor.recommend_calls", "count/op"},
	{"advisor.recommend_s", "s/op"},
	{"assess.build_advisor_s", "s/op"},
	{"assess.build_method_s", "s/op"},
	{"assess.measure_s", "s/op"},
	{"assess.pairs", "count/op"},
	{"assess.sargable_ratio", "ratio"},
	{"core.pretrain_s", "s/op"},
	{"core.rl_train_s", "s/op"},
	{"core.perturb_s", "s/op"},
	{"core.rollouts", "count/op"},
	{"workload.utility_evals", "count/op"},
	{"runtime.alloc_mb_per_op", "MB/op"},
	{"runtime.gc_cycles_per_op", "count/op"},
	{"cpu.engine", "ratio"},
	{"cpu.advisor", "ratio"},
	{"cpu.nn", "ratio"},
	{"cpu.core", "ratio"},
	{"cpu.gbdt", "ratio"},
	{"cpu.sqlx", "ratio"},
	{"cpu.gc", "ratio"},
	{"cpu.service", "ratio"},
	{"cpu.other", "ratio"},
	{"service.queue_wait_p90_s", "s"},
	{"service.exec_p50_s", "s"},
	{"service.admit_p50_ms", "ms"},
	{"service.admit_p90_ms", "ms"},
	{"service.read_p90_ms", "ms"},
	{"service.shed_ratio", "ratio"},
	{"joblog.bytes_per_job", "B"},
	{"spool.bytes_per_job", "B"},
	{"job_p50_s.low", "s"},
	{"job_p90_s.low", "s"},
	{"job_p50_s.high", "s"},
	{"job_p90_s.high", "s"},
	{"self.setup", "ratio"},
	{"self.advisor_build", "ratio"},
	{"self.pretrain", "ratio"},
	{"self.train", "ratio"},
	{"self.recommend", "ratio"},
	{"self.engine", "ratio"},
	{"self.measure", "ratio"},
	{"self.perturb", "ratio"},
	{"self.service", "ratio"},
	{"self.bench", "ratio"},
	{"bench.selftime_coverage", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.gen_late_p90_ms", "ms"},
	{"bench.queue_depth_end", "count"},
	{"error_ratio", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"grid_cold":   runGridCold,
	"attack_full": runAttackFull,
	"trapd_open":  runTrapdOpen,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	log      io.Writer // the human-readable report (standard output)

	m         map[string]float64 // every metric the run computed
	attempted int
	failed    int
	// invalid lists reasons the measurement cannot be trusted even when
	// every output checked out (an open-loop generator that fell behind).
	invalid []string
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.m[name] = v }

// op records one attempted operation and whether it failed.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func main() {
	wl := flag.String("workload", "", "grid_cold, attack_full or trapd_open")
	seed := flag.Int64("seed", 42, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	drive, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *wl, *seconds, *traceFlag)
		os.Exit(2)
	}
	r := &run{workload: *wl, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		log: os.Stdout, m: map[string]float64{}}
	printProvenance(r)
	if err := drive(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.finish()
	res, err := r.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.printTable()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finish sets the metrics of the whole process and run.
func (r *run) finish() {
	r.set("peak_rss_mb", peakRSSMB())
	if r.attempted > 0 {
		r.set("error_ratio", float64(r.failed)/float64(r.attempted))
	}
}

// printProvenance stamps the run with what produced it.
func printProvenance(r *run) {
	bi := buildinfo.Get()
	p := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "traced": r.traced,
		"git_rev": bi.GitRev, "dirty": bi.Dirty, "go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	fmt.Fprintf(r.log, "provenance %s\n", b)
}

// result assembles the last output line: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func (r *run) result() (result, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{Correct: r.failed == 0 && len(r.invalid) == 0 && r.attempted > 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.m[d.name]
		switch {
		case !ok && !r.traced:
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, why := range r.invalid {
		fmt.Fprintln(r.log, "INVALID:", why)
	}
	return res, nil
}

// printTable prints every metric the run computed, with its unit.
func (r *run) printTable() {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(r.log, "metrics (%s, seed %d, traced %v): attempted %d, failed %d\n",
		r.workload, r.seed, r.traced, r.attempted, r.failed)
	for _, n := range names {
		fmt.Fprintf(r.log, "  %-30s %14.6g %s\n", n, r.m[n], units[n])
	}
}
