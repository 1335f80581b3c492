package assess

import (
	"context"

	"github.com/trap-repro/trap/internal/advisor"
	"github.com/trap-repro/trap/internal/par"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/trace"
	"github.com/trap-repro/trap/internal/workload"
)

// Pair is one assessed (W, W') observation.
type Pair struct {
	Orig        *workload.Workload
	Pert        *workload.Workload
	U           float64
	UPert       float64
	IUDR        float64
	NonSargable bool
}

// Assessment aggregates the measurement of one (advisor, method) cell.
type Assessment struct {
	MeanIUDR float64
	N        int
	Pairs    []Pair
}

// Sargable reports whether a workload can be helped by indexes at all:
// with every relevant single-column index available, at least one query
// plan must actually use one (the paper's sargability notion of
// Section VI-C, used to exclude non-sargable W' from the assessment).
func (s *Suite) Sargable(w *workload.Workload) bool {
	cands := advisor.Candidates(s.E.Schema(), w, advisor.Options{MultiColumn: false})
	if len(cands) == 0 {
		return false
	}
	used := advisor.UsedIndexes(s.E, w, schema.Config(cands))
	return len(used) > 0
}

// Measure assesses one method against one advisor over the suite's test
// workloads: for every workload where the advisor is properly operating
// (u > θ), the method's perturbed variants are generated, non-sargable
// variants are excluded (Definition 3.3), and IUDR is averaged.
func (s *Suite) Measure(ctx context.Context, m *Method, adv advisor.Advisor, base advisor.Advisor, ac advisor.Constraint) (*Assessment, error) {
	return s.MeasureOn(ctx, m, adv, base, ac, s.Test)
}

// MeasureOn is Measure over an explicit workload set. Cancellation is
// honored between workloads and between pairs, and a canceled
// measurement returns ctx's error, never a partial assessment.
//
// The per-workload cells are independent — each generates its variants
// from a seed derived from its own index (VariantsAt) — so they fan out
// across the suite's measurement pool, with the first cell run
// sequentially to warm any lazily initialized advisor state. The reduce
// that assembles Pairs and MeanIUDR walks the cells strictly in workload
// order, so the assessment is bit-identical for every worker count.
func (s *Suite) MeasureOn(ctx context.Context, m *Method, adv advisor.Advisor, base advisor.Advisor, ac advisor.Constraint, tests []*workload.Workload) (asmt *Assessment, err error) {
	ctx, tsp := trace.Start(ctx, "assess.measure")
	ctx, restore := trace.Layer(ctx, "measure")
	defer restore()
	tsp.Str("method", m.Name)
	tsp.Str("advisor", adv.Name())
	tsp.Int("workloads", int64(len(tests)))
	defer func() { tsp.Fail(err); tsp.End() }()
	type cell struct {
		pairs []Pair
		sum   float64
		n     int
	}
	cells := make([]cell, len(tests))
	measure := func(i int) (err error) {
		ctx, csp := trace.Start(ctx, "assess.cell")
		csp.Int("workload", int64(i))
		defer func() { csp.Fail(err); csp.End() }()
		w := tests[i]
		u, err := s.UtilityOfCtx(ctx, adv, base, ac, w)
		if err != nil || u <= s.P.Theta {
			csp.Bool("skipped", true)
			return nil
		}
		variants, err := m.VariantsAt(ctx, w, int64(i))
		if err != nil {
			return err
		}
		c := &cells[i]
		for _, pert := range variants {
			if err := ctx.Err(); err != nil {
				return err
			}
			mPairsMeasured.Inc()
			pair := Pair{Orig: w, Pert: pert, U: u}
			if !s.Sargable(pert) {
				mPairsNonSargable.Inc()
				pair.NonSargable = true
				c.pairs = append(c.pairs, pair)
				continue
			}
			uPert, err := s.UtilityOfCtx(ctx, adv, base, ac, pert)
			if err != nil {
				continue
			}
			pair.UPert = uPert
			pair.IUDR = workload.IUDR(u, uPert)
			c.pairs = append(c.pairs, pair)
			c.sum += pair.IUDR
			c.n++
		}
		csp.Int("pairs", int64(len(c.pairs)))
		return nil
	}
	if len(tests) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := measure(0); err != nil {
			return nil, err
		}
		if err := par.ForEach(ctx, s.measureWorkers(), len(tests)-1, func(i int) error {
			return measure(i + 1)
		}); err != nil {
			return nil, err
		}
		// A cell whose utility call was cut short counts as skipped, so a
		// measurement that ended during its last cells would otherwise
		// report an assessment over a subset of the workloads.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	out := &Assessment{}
	var sum float64
	for i := range cells {
		c := &cells[i]
		out.Pairs = append(out.Pairs, c.pairs...)
		if c.n > 0 {
			sum += c.sum / float64(c.n)
			out.N++
		}
	}
	if out.N > 0 {
		out.MeanIUDR = sum / float64(out.N)
	}
	return out, nil
}

// GenerationCost reports a method's decode throughput: the wall time to
// perturb n queries is measured by the caller; this helper just produces
// the query stream (Table IV's generation-time comparison).
func (s *Suite) GenerationCost(m *Method, n int) error {
	made := 0
	for made < n {
		for _, w := range s.Test {
			variants, err := m.Variants(context.Background(), w)
			if err != nil {
				return err
			}
			for _, v := range variants {
				made += v.Size()
			}
			if made >= n {
				return nil
			}
		}
	}
	return nil
}
