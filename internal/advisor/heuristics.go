package advisor

import (
	"sort"

	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/workload"
)

// Extend is the recursive index-extension advisor of Schlosser et al.
// (ICDE 2019): greedily add the candidate with the best benefit-per-storage
// ratio, where candidates are single-column indexes plus extensions of
// already selected indexes by one attribute. Storage-constrained.
type Extend struct {
	Opt Options
}

// Name implements Advisor.
func (a *Extend) Name() string { return "Extend" }

// Recommend implements Advisor.
func (a *Extend) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	opt := a.Opt
	s := e.Schema()
	singles := Candidates(s, w, Options{MultiColumn: false})
	relevant := relevantColumnsByTable(w)
	var cfg schema.Config
	var trial schema.Config // candidate-scan scratch, reused across rounds
	cur := WhatIfCost(e, w, cfg)
	for {
		// Candidate pool: unused single-column indexes plus one-attribute
		// extensions of selected indexes (the "extend" move).
		var pool []schema.Index
		for _, ix := range singles {
			if !cfg.Contains(ix) {
				pool = append(pool, ix)
			}
		}
		if opt.MultiColumn {
			maxW := opt.MaxWidth
			if maxW < 2 {
				maxW = 2
			}
			for _, ix := range cfg {
				if len(ix.Columns) >= maxW+1 { // Extend may go one wider
					continue
				}
				for _, col := range relevant[ix.Table] {
					dup := false
					for _, have := range ix.Columns {
						if have == col {
							dup = true
						}
					}
					if dup {
						continue
					}
					ext := schema.Index{Table: ix.Table, Columns: append(append([]string(nil), ix.Columns...), col)}
					if !cfg.Contains(ext) {
						pool = append(pool, ext)
					}
				}
			}
		}
		type scored struct {
			ix    schema.Index
			base  schema.Index
			repl  bool
			ratio float64
			cost  float64
		}
		best := scored{ratio: 0}
		// trial is rebuilt in place per candidate; what-if costing does
		// not retain the slice, and only the winning move is materialized
		// as a fresh Config after the scan, so the greedy inner loop
		// allocates no configurations.
		for _, ix := range pool {
			trial = trial[:0]
			// Extension replaces its base index.
			repl := false
			var base schema.Index
			if len(ix.Columns) > 1 {
				base = schema.Index{Table: ix.Table, Columns: ix.Columns[:len(ix.Columns)-1]}
				repl = cfg.Contains(base)
			}
			for _, have := range cfg {
				if repl && have.Equal(base) {
					continue
				}
				trial = append(trial, have)
			}
			trial = append(trial, ix)
			if !c.Satisfied(s, trial) {
				continue
			}
			nc := WhatIfCost(e, w, trial)
			ben := cur - nc
			if !opt.Interaction {
				// Isolation pricing (Figure 14 ablation): each index is
				// valued as if it were the only one.
				ben = WhatIfCost(e, w, nil) - WhatIfCost(e, w, schema.Config{ix})
			}
			size := ix.SizeBytes(s)
			if size <= 0 {
				continue
			}
			ratio := ben / size
			if ratio > best.ratio {
				best = scored{ix: ix, base: base, repl: repl, ratio: ratio, cost: nc}
			}
		}
		if best.ratio <= 0 {
			break
		}
		if best.repl {
			cfg = cfg.Remove(best.base)
		}
		cfg = cfg.Add(best.ix)
		cur = best.cost
	}
	return validate(a.Name(), s, cfg, c)
}

// relevantColumnsByTable lists each table's syntactically relevant columns.
func relevantColumnsByTable(w *workload.Workload) map[string][]string {
	// Workload.Columns already returns distinct refs, so no extra dedup.
	m := map[string][]string{}
	for _, col := range w.Columns() {
		m[col.Table] = append(m[col.Table], col.Column)
	}
	return m
}

// DB2Advis is the DB2 advisor of Valentin et al. (ICDE 2000): a single
// what-if call with every candidate built at once attributes benefit to
// the indexes actually used, followed by a benefit-per-storage knapsack.
// Its one-shot benefit attribution ignores index interaction, the source
// of the oscillation the paper observes.
type DB2Advis struct {
	Opt Options
}

// Name implements Advisor.
func (a *DB2Advis) Name() string { return "DB2Advis" }

// Recommend implements Advisor.
func (a *DB2Advis) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	s := e.Schema()
	cands := Candidates(s, w, a.Opt)
	if len(cands) == 0 {
		return schema.Config{}, nil
	}
	all := schema.Config(cands)
	baseCost := WhatIfCost(e, w, nil)

	// One what-if evaluation with everything built: per-query benefit is
	// split evenly among the indexes its plan uses.
	benefit := map[string]float64{}
	for _, it := range w.Items {
		p0, err0 := e.Plan(it.Query, nil, engine.ModeEstimated)
		p1, err1 := e.Plan(it.Query, all, engine.ModeEstimated)
		if err0 != nil || err1 != nil {
			continue
		}
		var used []string
		p1.Walk(func(n *engine.PlanNode) {
			if n.Index != nil {
				used = append(used, n.Index.Key())
			}
		})
		gain := (p0.Cost - p1.Cost) * it.Weight
		if gain <= 0 || len(used) == 0 {
			continue
		}
		share := gain / float64(len(used))
		for _, k := range used {
			benefit[k] += share
		}
	}
	_ = baseCost

	type scored struct {
		ix    schema.Index
		ratio float64
	}
	var ranked []scored
	for _, ix := range cands {
		b := benefit[ix.Key()]
		if b <= 0 {
			continue
		}
		ranked = append(ranked, scored{ix: ix, ratio: b / ix.SizeBytes(s)})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].ratio > ranked[j].ratio })
	var cfg schema.Config
	for _, r := range ranked {
		if c.Fits(s, cfg, r.ix) {
			cfg = cfg.Add(r.ix)
		}
	}
	return validate(a.Name(), s, cfg, c)
}

// AutoAdmin is the cost-driven greedy advisor of Chaudhuri & Narasayya
// (VLDB 1997): iteratively add the candidate that minimizes the what-if
// workload cost, up to the #index constraint.
type AutoAdmin struct {
	Opt Options
}

// Name implements Advisor.
func (a *AutoAdmin) Name() string { return "AutoAdmin" }

// Recommend implements Advisor.
func (a *AutoAdmin) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	s := e.Schema()
	cands := Candidates(s, w, a.Opt)
	var cfg schema.Config
	cur := WhatIfCost(e, w, cfg)
	for {
		bestCost := cur
		var bestIx *schema.Index
		for i := range cands {
			ix := cands[i]
			if cfg.Contains(ix) || !c.Fits(s, cfg, ix) {
				continue
			}
			var nc float64
			if a.Opt.Interaction {
				nc = WhatIfCost(e, w, cfg.Add(ix))
			} else {
				// Isolation pricing: average the standalone benefits.
				nc = cur - Benefit(e, w, cfg, ix, a.Opt)
			}
			if nc < bestCost-1e-9 {
				bestCost = nc
				bestIx = &cands[i]
			}
		}
		if bestIx == nil {
			break
		}
		cfg = cfg.Add(*bestIx)
		cur = WhatIfCost(e, w, cfg)
	}
	return validate(a.Name(), s, cfg, c)
}

// Drop is Whang's decremental heuristic (1987): start from all
// single-column candidates and repeatedly drop the least useful index
// while the constraint is violated or the drop is (near) free.
type Drop struct{}

// Name implements Advisor.
func (a *Drop) Name() string { return "Drop" }

// Recommend implements Advisor.
func (a *Drop) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	s := e.Schema()
	cfg := schema.Config(Candidates(s, w, Options{MultiColumn: false}))
	// Each probe is cfg.Remove(cfg[i]), filtered into one reused slice:
	// the cost path keeps no reference to a configuration it prices.
	probe := make(schema.Config, 0, len(cfg))
	for len(cfg) > 0 {
		cur := WhatIfCost(e, w, cfg)
		var worst *schema.Index
		worstPenalty := 0.0
		for i := range cfg {
			probe = probe[:0]
			for _, x := range cfg {
				if !x.Equal(cfg[i]) {
					probe = append(probe, x)
				}
			}
			penalty := WhatIfCost(e, w, probe) - cur
			if worst == nil || penalty < worstPenalty {
				worst = &cfg[i]
				worstPenalty = penalty
			}
		}
		violated := !c.Satisfied(s, cfg)
		if !violated && worstPenalty > 1e-9 {
			break // every remaining index is useful and we fit
		}
		cfg = cfg.Remove(*worst)
	}
	return validate(a.Name(), s, cfg, c)
}

// Relaxation is Bruno & Chaudhuri's relaxation-based advisor (SIGMOD
// 2005): start from the union of per-query optimal configurations and
// relax — remove an index or shrink a multi-column index to its prefix —
// choosing the transformation with the least penalty per storage saved,
// until the constraint is met.
type Relaxation struct {
	Opt Options
}

// Name implements Advisor.
func (a *Relaxation) Name() string { return "Relaxation" }

// Recommend implements Advisor.
func (a *Relaxation) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	s := e.Schema()
	// Per-query optimal configuration: the indexes used by the query's
	// plan when every candidate is available.
	cands := Candidates(s, w, a.Opt)
	all := schema.Config(cands)
	union := schema.Config{}
	for _, it := range w.Items {
		p, err := e.Plan(it.Query, all, engine.ModeEstimated)
		if err != nil {
			continue
		}
		p.Walk(func(n *engine.PlanNode) {
			if n.Index != nil {
				union = union.Add(*n.Index)
			}
		})
	}
	cfg := union
	for !c.Satisfied(s, cfg) && len(cfg) > 0 {
		cur := WhatIfCost(e, w, cfg)
		type move struct {
			next    schema.Config
			penalty float64
			saved   float64
		}
		var best *move
		consider := func(next schema.Config) {
			saved := cfg.SizeBytes(s) - next.SizeBytes(s)
			if saved <= 0 {
				return
			}
			m := move{next: next, penalty: WhatIfCost(e, w, next) - cur, saved: saved}
			if best == nil || m.penalty/m.saved < best.penalty/best.saved {
				best = &m
			}
		}
		for i := range cfg {
			consider(cfg.Remove(cfg[i]))
			if len(cfg[i].Columns) > 1 {
				prefix := schema.Index{Table: cfg[i].Table, Columns: cfg[i].Columns[:len(cfg[i].Columns)-1]}
				consider(cfg.Remove(cfg[i]).Add(prefix))
			}
		}
		if best == nil {
			break
		}
		cfg = best.next
	}
	return validate(a.Name(), s, cfg, c)
}

// DTA is the anytime advisor of Chaudhuri & Narasayya (2020): seed the
// search with the indexes of per-query optimal plans, then greedily add
// candidates by benefit-per-storage under an evaluation budget.
type DTA struct {
	Opt Options
	// MaxEvaluations is the anytime budget (what-if calls per step);
	// zero means a generous default.
	MaxEvaluations int
}

// Name implements Advisor.
func (a *DTA) Name() string { return "DTA" }

// Recommend implements Advisor.
func (a *DTA) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	s := e.Schema()
	budget := a.MaxEvaluations
	if budget <= 0 {
		budget = 400
	}
	cands := Candidates(s, w, a.Opt)
	all := schema.Config(cands)
	// Seed: indexes used by per-query optimal plans, added while they fit.
	seedSet := map[string]schema.Index{}
	for _, it := range w.Items {
		p, err := e.Plan(it.Query, all, engine.ModeEstimated)
		if err != nil {
			continue
		}
		p.Walk(func(n *engine.PlanNode) {
			if n.Index != nil {
				seedSet[n.Index.Key()] = *n.Index
			}
		})
	}
	var seeds []schema.Index
	for _, ix := range seedSet {
		seeds = append(seeds, ix)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].Key() < seeds[j].Key() })
	var cfg schema.Config
	for _, ix := range seeds {
		if c.Fits(s, cfg, ix) {
			cfg = cfg.Add(ix)
		}
	}
	cur := WhatIfCost(e, w, cfg)
	evals := 0
	for evals < budget {
		type scored struct {
			ix    schema.Index
			ratio float64
			cost  float64
		}
		best := scored{ratio: 0}
		for _, ix := range cands {
			if cfg.Contains(ix) || !c.Fits(s, cfg, ix) {
				continue
			}
			nc := WhatIfCost(e, w, cfg.Add(ix))
			evals++
			if r := (cur - nc) / ix.SizeBytes(s); r > best.ratio {
				best = scored{ix: ix, ratio: r, cost: nc}
			}
			if evals >= budget {
				break
			}
		}
		if best.ratio <= 0 {
			break
		}
		cfg = cfg.Add(best.ix)
		cur = best.cost
	}
	return validate(a.Name(), s, cfg, c)
}
