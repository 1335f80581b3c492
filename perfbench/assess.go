package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/trace"
)

// referenceSeed is the default seed of cmd/assess and trapd. The suite
// seeds of the assessment workloads are drawn from a pool starting at
// it; the results of every pool seed are committed in reference.json and
// checked bit for bit.
const referenceSeed = 42

//go:embed reference.json
var referenceJSON []byte

// cellResult is one (advisor, method) assessment as checked against the
// reference.
type cellResult struct {
	Advisor     string  `json:"advisor"`
	Method      string  `json:"method"`
	IUDR        float64 `json:"iudr"`
	N           int     `json:"n"`
	Pairs       int     `json:"pairs"`
	NonSargable int     `json:"nonSargable"`
}

// references maps a workload name and a suite seed to the cells the
// workload must reproduce on that seed.
type references map[string]map[string][]cellResult

func reference() (references, error) {
	ref := references{}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// assessSpec is one closed-loop assessment workload: a fresh tpch suite
// per op, then every (advisor, method) cell under SharedTable. Op k of
// a run with seed s builds its suite on pool seed
// referenceSeed + (s+k) mod pool: one op's cost varies by up to 3x with
// its suite seed, so a run covers the whole pool, in an order the run's
// seed sets, and stops only between passes over it.
type assessSpec struct {
	params   assess.Params
	advisors []string
	methods  []string
	pool     int
}

// poolSeed is the suite seed of op k in a run with the given seed.
func (spec assessSpec) poolSeed(seed int64, k int) int64 {
	p := int64(spec.pool)
	return referenceSeed + ((seed%p+p)%p+int64(k))%p
}

// gridSpec is what cmd/assess runs by default: the Fig 6 grid at quick
// scale.
func gridSpec() assessSpec {
	return assessSpec{assess.QuickParams(), []string{"Extend", "DB2Advis", "Drop", "SWIRL"}, []string{"Random", "TRAP"}, 15}
}

// attackSpec is one TRAP attack on Extend with the full-scale model and
// schema, training trimmed so one op takes seconds.
func attackSpec() assessSpec {
	p := assess.FullParams()
	p.TrainWorkloads, p.TestWorkloads, p.RLEpochs = 8, 6, 4
	p.PretrainPairs, p.PretrainEpochs = 16, 4
	return assessSpec{p, []string{"Extend"}, []string{"TRAP"}, 5}
}

func runGridCold(r *run) error   { return runAssessOps(r, gridSpec()) }
func runAttackFull(r *run) error { return runAssessOps(r, attackSpec()) }

// opResult is the outcome of one op: a fresh suite and its cells.
type opResult struct {
	setupS    float64   // suite build
	workS     float64   // every cell, excluding the suite build
	latencies []float64 // per cell, including its advisor's build for the first method
	cells     []cellResult
}

// runAssessOps runs passes over the seed pool until the budget is spent,
// stopping at the pass boundary nearest to it (at least one pass). A
// traced run runs every seed twice, untraced and traced, so the tracing
// overhead is measured on identical work.
func runAssessOps(r *run, spec assessSpec) error {
	ref, err := reference()
	if err != nil {
		return err
	}
	var tg *tracing
	if r.traced {
		tg = newTracing()
		tg.collect()
		defer tg.close()
	}
	var setups, lats []float64
	var cells int
	var workS float64
	tot := &layerTotals{haveDecorator: true}
	start := time.Now()
	for k := 0; ; k++ {
		if k > 0 && k%spec.pool == 0 {
			el := time.Since(start).Seconds()
			if el+el/float64(k/spec.pool)/2 >= r.seconds {
				break
			}
		}
		seed := spec.poolSeed(r.seed, k)
		// A traced run runs each seed untraced and traced, alternating
		// which goes first so neither side always meets the colder heap.
		var u opResult
		if r.traced && k%2 == 0 {
			if u, err = assessOp(spec, seed, nil, &layerTotals{}); err != nil {
				return err
			}
			r.checkCells(spec, seed, u.cells, ref)
		}
		o, err := assessOp(spec, seed, tg, tot)
		if err != nil {
			return err
		}
		r.checkCells(spec, seed, o.cells, ref)
		fmt.Fprintf(r.log, "op seed=%d setup_s=%.3f work_s=%.3f\n", seed, o.setupS, o.workS)
		if r.traced && k%2 == 1 {
			if u, err = assessOp(spec, seed, nil, &layerTotals{}); err != nil {
				return err
			}
			r.checkCells(spec, seed, u.cells, ref)
		}
		if r.traced {
			tot.untracedOpS += u.workS
			tot.tracedOpS += o.workS
		}
		setups = append(setups, o.setupS)
		lats = append(lats, o.latencies...)
		cells += len(o.cells)
		workS += o.workS
		tot.ops += len(o.cells)
	}
	r.set("setup_s", quantile(setups, 0.5))
	r.set("assess_per_s", float64(cells)/workS)
	r.set("job_p50_s", quantile(lats, 0.5))
	r.set("job_p90_s", quantile(lats, 0.9))
	fmt.Fprintf(r.log, "ops: %d suites, %d assessments, %.3fs assessing, setups %v\n", len(setups), cells, workS, setups)
	if tg != nil {
		_, tot.spanSum = tg.spanTotals()
		tot.cpuSamples = tg.cpu
		tg.printSelfTable(r.log)
		if err := tg.writeSpans(r.workload, r.seed); err != nil {
			return err
		}
	}
	tot.report(r)
	return nil
}

// assessOp builds a fresh suite for seed and runs every cell of spec on
// it, the way cmd/assess does. When tg is non-nil the op is traced: a
// root span covers it, the benchmark opens a span around each call into
// assess, and a CPU profile runs over it. Layer counters accumulate into
// tot.
func assessOp(spec assessSpec, seed int64, tg *tracing, tot *layerTotals) (o opResult, err error) {
	ctx := context.Background()
	st := &recStats{record: tg != nil}
	// Start every op from a collected heap, so the garbage an earlier op
	// left behind is not collected on this op's clock.
	runtime.GC()
	t0 := time.Now()
	if tg != nil {
		if err := tg.startProfile(); err != nil {
			return o, err
		}
		var root *trace.Span
		ctx, root = tg.tr.Start(ctx, "bench.op")
		defer func() {
			root.End()
			wall := time.Since(t0).Seconds()
			if perr := tg.stopProfile(); err == nil {
				err = perr
			}
			if err == nil {
				tg.foldTrace(root.TraceID(), st.intervals, wall, tot)
			}
		}()
	}
	before := readCounters(nil)
	_, sp := trace.Start(ctx, "bench.suite_build")
	suite, err := assess.NewSuite("tpch", bench.TPCH(spec.params.ScaleDown), spec.params, seed)
	sp.End()
	if err != nil {
		return o, fmt.Errorf("building suite (seed %d): %w", seed, err)
	}
	o.setupS = time.Since(t0).Seconds()
	workStart := time.Now()
	for _, name := range spec.advisors {
		cellStart := time.Now()
		aspec, err := assess.SpecByName(name)
		if err != nil {
			return o, err
		}
		bctx, sp := trace.Start(ctx, "bench.build_advisor")
		adv, err := suite.BuildAdvisorCtx(bctx, aspec)
		sp.End()
		if err != nil {
			return o, fmt.Errorf("building advisor %s: %w", name, err)
		}
		tot.buildAdvisorS += time.Since(cellStart).Seconds()
		adv = st.wrap(adv)
		base := st.wrap(suite.BaselineAdvisor(aspec))
		ac := suite.ConstraintFor(aspec)
		for _, mname := range spec.methods {
			t := time.Now()
			mctx, sp := trace.Start(ctx, "bench.build_method")
			m, err := suite.BuildMethod(mctx, mname, core.SharedTable, adv, base, ac, assess.MethodConfig{})
			sp.End()
			if err != nil {
				return o, fmt.Errorf("building method %s for %s: %w", mname, name, err)
			}
			tot.buildMethodS += time.Since(t).Seconds()
			t = time.Now()
			mctx, sp = trace.Start(ctx, "bench.measure")
			res, err := suite.Measure(mctx, m, adv, base, ac)
			sp.End()
			if err != nil {
				return o, fmt.Errorf("measuring %s/%s: %w", name, mname, err)
			}
			tot.measureS += time.Since(t).Seconds()
			c := cellResult{Advisor: name, Method: mname, IUDR: res.MeanIUDR, N: res.N, Pairs: len(res.Pairs)}
			for _, p := range res.Pairs {
				if p.NonSargable {
					c.NonSargable++
				}
			}
			o.cells = append(o.cells, c)
			o.latencies = append(o.latencies, time.Since(cellStart).Seconds())
			cellStart = time.Now()
		}
	}
	o.workS = time.Since(workStart).Seconds()
	after := readCounters(suite.E)
	tot.addDelta(before, after) // the suite's engine started empty
	tot.recCalls += float64(st.calls.Load())
	tot.recS += time.Duration(st.nanos.Load()).Seconds()
	return o, nil
}

// checkOp checks one op's outcome and reports whether it can be
// measured: an op that failed counts every cell it should have produced
// as a failed op.
func (r *run) checkOp(spec assessSpec, seed int64, o opResult, err error, ref references) bool {
	if err != nil {
		fmt.Fprintf(r.log, "OP FAILED: seed %d: %v\n", seed, err)
		for i := 0; i < len(spec.advisors)*len(spec.methods); i++ {
			r.op(false)
		}
		return false
	}
	r.checkCells(spec, seed, o.cells, ref)
	return true
}

// sameCell compares two cells bit for bit.
func sameCell(a, b cellResult) bool {
	return a.Advisor == b.Advisor && a.Method == b.Method &&
		math.Float64bits(a.IUDR) == math.Float64bits(b.IUDR) &&
		a.N == b.N && a.Pairs == b.Pairs && a.NonSargable == b.NonSargable
}

// checkCells checks one op's cells: by invariants, and bit for bit
// against the reference where one is committed for the seed. Each cell
// is one attempted op; a mismatch counts as failed.
func (r *run) checkCells(spec assessSpec, seed int64, cells []cellResult, ref references) {
	want, haveRef := ref[r.workload][strconv.FormatInt(seed, 10)]
	if !haveRef {
		fmt.Fprintf(r.log, "WARNING: no reference for %s seed %d; checking invariants only\n", r.workload, seed)
	}
	if len(cells) != len(spec.advisors)*len(spec.methods) {
		r.op(false)
		return
	}
	for i, c := range cells {
		b, _ := json.Marshal(c) // plain struct: always marshals
		fmt.Fprintf(r.log, "cell seed=%d %s\n", seed, b)
		ok := !math.IsNaN(c.IUDR) && !math.IsInf(c.IUDR, 0) &&
			c.N <= spec.params.TestWorkloads && c.Pairs >= c.N
		if haveRef {
			ok = ok && i < len(want) && sameCell(c, want[i])
		}
		if !ok {
			fmt.Fprintf(r.log, "CHECK FAILED: seed %d cell %d %s\n", seed, i, b)
		}
		r.op(ok)
	}
}
