package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trap-repro/trap/internal/advisor"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/obs"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/workload"
)

// quantile returns the Harrell–Davis estimate of the q-quantile of xs (0
// when empty): a Beta-weighted average of the order statistics around
// rank q·n. One op's time on this kind of workload jitters by 10-15%
// from run to run, and a nearest-rank quantile inherits that jitter from
// the single sample it picks; the weighted estimate averages it over the
// neighbouring ranks.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny, eps = 1e-300, 1e-15
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB,
// falling back to the Go runtime's total obtained memory where /proc is
// unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// counters is a snapshot of the counters the program exports; the
// per-layer metrics are deltas between two snapshots.
type counters struct {
	whatif, truecost      int64
	planS, batchS         float64
	rollouts, utilityEval int64
	pairs, nonSargable    int64
	recCalls              int64
	recS                  float64
	cache                 engine.CacheStats
	alloc                 uint64
	numGC                 uint32
}

// readCounters snapshots the global obs counters, the given engine's
// plan cache (nil: none) and the Go runtime's allocation totals.
func readCounters(e *engine.Engine) counters {
	reg := obs.Default()
	c := counters{
		whatif:      reg.Counter("engine_whatif_calls_total").Value(),
		truecost:    reg.Counter("engine_truecost_calls_total").Value(),
		planS:       reg.Histogram("engine_plan_seconds").Sum(),
		batchS:      reg.Histogram("engine_cost_batch_seconds").Sum(),
		rollouts:    reg.Counter("trap_rl_rollouts_total").Value(),
		utilityEval: reg.Counter("trap_workload_utility_evals_total").Value(),
		pairs:       reg.Counter("assess_pairs_total").Value(),
		nonSargable: reg.Counter("assess_pairs_nonsargable_total").Value(),
		recCalls:    reg.Counter("advisor_recommend_total").Value(),
		recS:        reg.Histogram("advisor_recommend_seconds").Sum(),
	}
	if e != nil {
		c.cache = e.CacheStats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.numGC = ms.TotalAlloc, ms.NumGC
	return c
}

// layerTotals accumulates per-layer work across the ops of a run.
type layerTotals struct {
	ops                                      int
	whatif, truecost, rollouts, utilityEvals float64
	planS, batchS                            float64
	pairs, nonSargable                       float64
	hits, misses, evicted, dedup             float64
	allocMB, gcCycles                        float64
	buildAdvisorS, buildMethodS, measureS    float64
	recCalls, recS                           float64
	programRecCalls, programRecS             float64 // the program's own advisor counters
	haveDecorator                            bool
	selfGroups                               map[string]float64
	selfWall, coveredWall                    float64
	tracedOpS, untracedOpS                   float64
	spanSum                                  map[string]float64 // span name → summed seconds
	cpuSamples                               map[string]float64
}

// addDelta folds the counter movement between two snapshots in.
func (t *layerTotals) addDelta(a, b counters) {
	t.whatif += float64(b.whatif - a.whatif)
	t.truecost += float64(b.truecost - a.truecost)
	t.planS += b.planS - a.planS
	t.batchS += b.batchS - a.batchS
	t.rollouts += float64(b.rollouts - a.rollouts)
	t.utilityEvals += float64(b.utilityEval - a.utilityEval)
	t.pairs += float64(b.pairs - a.pairs)
	t.nonSargable += float64(b.nonSargable - a.nonSargable)
	t.programRecCalls += float64(b.recCalls - a.recCalls)
	t.programRecS += b.recS - a.recS
	t.hits += float64(b.cache.Hits - a.cache.Hits)
	t.misses += float64(b.cache.Misses - a.cache.Misses)
	t.evicted += float64(b.cache.Evicted - a.cache.Evicted)
	t.dedup += float64(b.cache.SingleflightDedup - a.cache.SingleflightDedup)
	t.allocMB += float64(b.alloc-a.alloc) / (1 << 20)
	t.gcCycles += float64(b.numGC - a.numGC)
}

// report sets the per-layer metrics, normalized per op.
func (t *layerTotals) report(r *run) {
	n := float64(t.ops)
	if n == 0 {
		return
	}
	per := func(name string, v float64) { r.set(name, v/n) }
	per("engine.whatif_calls", t.whatif)
	per("engine.truecost_calls", t.truecost)
	per("engine.plans_built", t.misses)
	if t.hits+t.misses > 0 {
		r.set("engine.plan_cache_hit_ratio", t.hits/(t.hits+t.misses))
	}
	per("engine.singleflight_dedup", t.dedup)
	per("engine.evicted", t.evicted)
	per("engine.plan_s", t.planS)
	per("engine.cost_batch_s", t.batchS)
	if t.haveDecorator {
		per("advisor.recommend_calls", t.recCalls)
		per("advisor.recommend_s", t.recS)
	} else {
		per("advisor.recommend_calls", t.programRecCalls)
		per("advisor.recommend_s", t.programRecS)
	}
	per("assess.build_advisor_s", t.buildAdvisorS)
	per("assess.build_method_s", t.buildMethodS)
	per("assess.measure_s", t.measureS)
	per("assess.pairs", t.pairs)
	if t.pairs > 0 {
		r.set("assess.sargable_ratio", 1-t.nonSargable/t.pairs)
	}
	per("core.pretrain_s", t.spanSum["core.pretrain"])
	per("core.rl_train_s", t.spanSum["core.rl_train"])
	per("core.perturb_s", t.spanSum["core.perturb_workload"])
	per("core.rollouts", t.rollouts)
	per("workload.utility_evals", t.utilityEvals)
	per("runtime.alloc_mb_per_op", t.allocMB)
	per("runtime.gc_cycles_per_op", t.gcCycles)
	if t.selfWall > 0 {
		for _, g := range selfGroupNames {
			r.set("self."+g, t.selfGroups[g]/t.selfWall)
		}
	}
	if t.coveredWall > 0 {
		r.set("bench.selftime_coverage", t.selfWall/t.coveredWall)
	}
	if t.untracedOpS > 0 {
		r.set("bench.trace_overhead", t.tracedOpS/t.untracedOpS-1)
	}
	setCPUShares(r, t.cpuSamples)
}

// timedAdvisor wraps an advisor after training: it forwards Name and
// Recommend, counts and times every Recommend call, and — in a traced
// run — records each call's interval for the self-time table. The
// wrapped advisor's other methods are deliberately hidden: wrapping
// happens after BuildAdvisorCtx has trained it.
type timedAdvisor struct {
	advisor.Advisor
	st *recStats
}

// recStats is shared by every wrapped advisor of one op; Recommend runs
// concurrently from the measurement and rollout pools.
type recStats struct {
	calls atomic.Int64
	nanos atomic.Int64

	mu        sync.Mutex
	record    bool
	intervals []interval
}

// interval is one recorded Recommend call.
type interval struct{ start, end time.Time }

func (a *timedAdvisor) Recommend(e *engine.Engine, w *workload.Workload, c advisor.Constraint) (schema.Config, error) {
	t0 := time.Now()
	cfg, err := a.Advisor.Recommend(e, w, c)
	t1 := time.Now()
	a.st.calls.Add(1)
	a.st.nanos.Add(int64(t1.Sub(t0)))
	if a.st.record {
		a.st.mu.Lock()
		a.st.intervals = append(a.st.intervals, interval{t0, t1})
		a.st.mu.Unlock()
	}
	return cfg, err
}

// wrap decorates a (nil stays nil: the null-configuration baseline).
func (st *recStats) wrap(a advisor.Advisor) advisor.Advisor {
	if a == nil {
		return nil
	}
	return &timedAdvisor{Advisor: a, st: st}
}
