package advisor

import (
	"math"

	"github.com/trap-repro/trap/internal/costmodel"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/stats"
	"github.com/trap-repro/trap/internal/workload"
)

// StateKind selects the state representation granularity of a
// learning-based advisor — the Figure 12 ablation.
type StateKind int

const (
	// FineState captures workload characteristics from query plans:
	// per-operator counts and costs plus budget usage (SWIRL-style).
	FineState StateKind = iota
	// CoarseState only records which columns appear in the workload and
	// how often (DRLindex-style column matrix + access vector).
	CoarseState
)

// String names the state kind.
func (k StateKind) String() string {
	if k == CoarseState {
		return "coarse"
	}
	return "fine"
}

// coarseBuckets is the hashed column-universe size of the coarse state.
const coarseBuckets = 32

// fineStateLen is the fine state vector length.
const fineStateLen = 2*int(engine.NumNodeTypes) + 3

// coarseStateLen is the coarse state vector length.
const coarseStateLen = 2*coarseBuckets + 1

// StateLen returns the state vector length for a kind.
func StateLen(k StateKind) int {
	if k == CoarseState {
		return coarseStateLen
	}
	return fineStateLen
}

// StateVec builds the state vector for a workload under the current
// configuration and constraint.
func StateVec(k StateKind, e *engine.Engine, w *workload.Workload, cfg schema.Config, c Constraint) []float64 {
	if k == CoarseState {
		return coarseStateVec(w, cfg)
	}
	return fineStateVec(e, w, cfg, c)
}

// fineStateVec: per-operator-type plan-node counts and log-costs across
// the workload's current plans, plus workload size, budget usage and
// index count — the fine-grained representation of SWIRL.
func fineStateVec(e *engine.Engine, w *workload.Workload, cfg schema.Config, c Constraint) []float64 {
	l := int(engine.NumNodeTypes)
	v := make([]float64, fineStateLen)
	for _, it := range w.Items {
		p, err := e.Plan(it.Query, cfg, engine.ModeEstimated)
		if err != nil {
			continue
		}
		p.Walk(func(n *engine.PlanNode) {
			v[int(n.Type)] += it.Weight
			v[l+int(n.Type)] += it.Weight * math.Log1p(n.Cost)
		})
	}
	v[2*l] = float64(w.Size()) / 50
	if c.StorageBytes > 0 {
		v[2*l+1] = cfg.SizeBytes(e.Schema()) / c.StorageBytes
	} else if c.MaxIndexes > 0 {
		v[2*l+1] = float64(len(cfg)) / float64(c.MaxIndexes)
	}
	v[2*l+2] = float64(len(cfg)) / 10
	// Normalize counts by workload size for scale invariance.
	n := float64(w.Size())
	if n > 0 {
		for i := 0; i < 2*l; i++ {
			v[i] /= n
		}
	}
	return v
}

// coarseStateVec: hashed column presence and access counts, ignoring plan
// information entirely — the coarse representation of DRLindex.
func coarseStateVec(w *workload.Workload, cfg schema.Config) []float64 {
	v := make([]float64, coarseStateLen)
	for _, it := range w.Items {
		for _, col := range it.Query.Columns() {
			b := int(stats.Hash64(col.String()) % coarseBuckets)
			v[b] = 1
			v[coarseBuckets+b]++
		}
	}
	n := float64(w.Size())
	if n > 0 {
		for i := coarseBuckets; i < 2*coarseBuckets; i++ {
			v[i] /= n
		}
	}
	v[2*coarseBuckets] = float64(len(cfg)) / 10
	return v
}

// candFeatLen is the per-candidate feature vector length.
const candFeatLen = 6 + 16

// CandidateFeatures builds the per-candidate feature vector used by the
// per-action scoring networks: structural features, the what-if benefit
// of the index in isolation (the estimated-cost signal SWIRL's state
// representation carries), and a hashed identity so the network can
// learn index-specific values.
func CandidateFeatures(e *engine.Engine, w *workload.Workload, ix schema.Index) []float64 {
	return candidateFeaturesWith(e, w, []schema.Index{ix}, nil)[0]
}

// candidateFeaturesWith builds every candidate's feature vector, pricing
// the workload without indexes once for all of them. The benefit feature
// uses the advisor's learned cost model when available, and raw what-if
// estimates otherwise.
func candidateFeaturesWith(e *engine.Engine, w *workload.Workload, ixs []schema.Index, cm *costmodel.Model) [][]float64 {
	if len(ixs) == 0 {
		return nil
	}
	var base float64
	var baseErr error
	if cm != nil {
		base, baseErr = cm.WorkloadCost(e, w, nil)
	} else {
		base = WhatIfCost(e, w, nil)
	}
	feats := make([][]float64, len(ixs))
	for i, ix := range ixs {
		v := make([]float64, candFeatLen)
		v[0] = float64(len(ix.Columns))
		v[1] = math.Log1p(ix.SizeBytes(e.Schema())) / 25
		if cm != nil {
			with, err := cm.WorkloadCost(e, w, schema.Config{ix})
			if baseErr == nil && err == nil && base > 0 {
				v[5] = (base - with) / base
			}
		} else if base > 0 {
			v[5] = (base - WhatIfCost(e, w, schema.Config{ix})) / base
		}
		workloadFeatures(v, w, ix)
		feats[i] = v
	}
	return feats
}

// workloadFeatures fills how often the workload filters, joins and
// touches ix's leading column, and ix's hashed identity.
func workloadFeatures(v []float64, w *workload.Workload, ix schema.Index) {
	var leadFilter, leadJoin, appears float64
	lead := sqlx.ColumnRef{Table: ix.Table, Column: ix.Columns[0]}
	for _, it := range w.Items {
		for _, p := range it.Query.Filters {
			if p.Col == lead {
				leadFilter++
				break
			}
		}
		for _, jc := range it.Query.JoinColumns() {
			if jc == lead {
				leadJoin++
				break
			}
		}
		for _, col := range it.Query.Columns() {
			if col.Table == ix.Table && col.Column == ix.Columns[0] {
				appears++
				break
			}
		}
	}
	n := float64(w.Size())
	if n > 0 {
		v[2] = leadFilter / n
		v[3] = leadJoin / n
		v[4] = appears / n
	}
	h := stats.Hash64(ix.Key())
	v[6+int(h%16)] = 1
}
