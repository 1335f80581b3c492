package engine

import (
	"fmt"
	"math"

	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
)

// PlanUncached plans q without consulting the plan cache.
func (e *Engine) PlanUncached(q *sqlx.Query, cfg schema.Config, mode Mode) (*PlanNode, error) {
	return e.plan(q, cfg, mode)
}

// RefPlan plans q with the reference planner of planref_test.go.
func (e *Engine) RefPlan(q *sqlx.Query, cfg schema.Config, mode Mode) (*PlanNode, error) {
	return e.refPlan(q, cfg, mode)
}

// DiffResults describes the first difference between two planner
// results, or returns "" when they are identical: errors by text, plan
// trees node by node (type, table, index identity, Cost and Rows by
// bits, height and children).
func DiffResults(got *PlanNode, gotErr error, want *PlanNode, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
		}
		return ""
	}
	return diffPlans("root", got, want)
}

func diffPlans(path string, got, want *PlanNode) string {
	indexKey := func(ix *schema.Index) string {
		if ix == nil {
			return "<none>"
		}
		return ix.Key()
	}
	switch {
	case got.Type != want.Type:
		return fmt.Sprintf("%s: type %s, want %s", path, got.Type, want.Type)
	case got.Table != want.Table:
		return fmt.Sprintf("%s: table %q, want %q", path, got.Table, want.Table)
	case indexKey(got.Index) != indexKey(want.Index):
		return fmt.Sprintf("%s: index %s, want %s", path, indexKey(got.Index), indexKey(want.Index))
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return fmt.Sprintf("%s: cost %v, want %v", path, got.Cost, want.Cost)
	case math.Float64bits(got.Rows) != math.Float64bits(want.Rows):
		return fmt.Sprintf("%s: rows %v, want %v", path, got.Rows, want.Rows)
	case got.Height != want.Height:
		return fmt.Sprintf("%s: height %d, want %d", path, got.Height, want.Height)
	case len(got.Children) != len(want.Children):
		return fmt.Sprintf("%s: %d children, want %d", path, len(got.Children), len(want.Children))
	}
	for i := range got.Children {
		if d := diffPlans(fmt.Sprintf("%s/%d", path, i), got.Children[i], want.Children[i]); d != "" {
			return d
		}
	}
	return ""
}
