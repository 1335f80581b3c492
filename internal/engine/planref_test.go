package engine

// The planner as it was before planning skeletons: one plan call
// validated the query, resolved tables by name and ran the whole join
// search for one configuration. It is kept here verbatim, under
// ref-prefixed names, as the reference the skeleton planner must match
// bit for bit (TestPlanMatchesReference, FuzzPlanMatchesReference).
// Only the names differ from the original; do not edit it to follow
// changes in the planner.

import (
	"fmt"
	"math"

	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
)

// refAccessPath is a candidate scan of one base table.
type refAccessPath struct {
	node *PlanNode
	// orderedOn lists the column names (of the scanned table) the output
	// is sorted by; empty for unordered scans.
	orderedOn []string
}

// refTableInfo is the per-plan-call view of a table's analysis: the shared
// memoized static part plus the mode-dependent combined selectivity
// refScanPaths fills in. Each plan call builds its own refTableInfo values, so
// writing sel never races with other calls.
type refTableInfo struct {
	*tableStatic
	sel float64 // combined selectivity of groups
}

// plan builds the cheapest plan without consulting the cache.
func (e *Engine) refPlan(q *sqlx.Query, cfg schema.Config, mode Mode) (*PlanNode, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	qa := analysisOf(q)
	tables := qa.tables
	if len(tables) > 14 {
		return nil, fmt.Errorf("engine: too many tables (%d)", len(tables))
	}
	for _, t := range tables {
		if e.schema.Table(t) == nil {
			return nil, fmt.Errorf("engine: unknown table %s", t)
		}
	}
	for _, c := range qa.columns {
		if e.schema.Column(c) == nil {
			return nil, fmt.Errorf("engine: unknown column %s", c)
		}
	}

	infos := make(map[string]*refTableInfo, len(tables))
	for _, t := range tables {
		infos[t] = &refTableInfo{tableStatic: qa.statics[t], sel: 1}
	}
	topGroups := qa.topGroups

	// Desired output order for sort-avoidance: ORDER BY, or GROUP BY when
	// there is no ORDER BY (a sorted input enables GroupAggregate).
	desired := q.OrderBy
	if len(desired) == 0 {
		desired = q.GroupBy
	}

	single := len(tables) == 1
	var joined *PlanNode
	var joinedOrder []string

	if single {
		t := tables[0]
		best, ordered := e.refScanPaths(q, t, infos[t], cfg, mode, desired)
		joined = best.node
		joinedOrder = best.orderedOn
		// An ordered path may beat cheapest-plus-sort; resolved below by
		// building both final plans and keeping the cheaper.
		if ordered != nil {
			alt := e.refFinishPlan(q, ordered.node, ordered.orderedOn, topGroups, mode)
			main := e.refFinishPlan(q, joined, joinedOrder, topGroups, mode)
			if alt.Cost < main.Cost {
				return alt, nil
			}
			return main, nil
		}
	} else {
		var err error
		joined, err = e.refJoinSearch(q, tables, infos, cfg, mode)
		if err != nil {
			return nil, err
		}
	}
	return e.refFinishPlan(q, joined, joinedOrder, topGroups, mode), nil
}

// refScanPaths returns the cheapest access path for a table and, when desired
// names an order this table could provide (single-table queries only), the
// cheapest path that delivers that order (nil if none or if the cheapest
// path already provides it).
func (e *Engine) refScanPaths(q *sqlx.Query, table string, info *refTableInfo, cfg schema.Config, mode Mode, desired []sqlx.ColumnRef) (best refAccessPath, ordered *refAccessPath) {
	t := e.schema.Table(table)
	sel := e.combineGroups(table, info.groups, mode)
	info.sel = sel
	outRows := float64(t.Rows) * sel
	if outRows < 1 {
		outRows = 1
	}

	// Sequential scan.
	seqCost := t.Pages()*seqPageCost + float64(t.Rows)*cpuTupleCost +
		float64(t.Rows)*float64(info.predOps)*cpuOpCost
	best = refAccessPath{node: &PlanNode{Type: SeqScan, Table: table, Cost: seqCost, Rows: outRows, Height: 1}}

	// The order this table would need to provide, as local column names.
	var wantOrder []string
	for _, c := range desired {
		if c.Table != table {
			wantOrder = nil
			break
		}
		wantOrder = append(wantOrder, c.Column)
	}

	var bestOrdered *refAccessPath
	for _, ix := range cfg.OnTable(table) {
		path := e.refIndexPath(q, t, ix, info, sel, outRows, mode)
		if path == nil {
			continue
		}
		if path.node.Cost < best.node.Cost {
			best = *path
		}
		if len(wantOrder) > 0 && providesOrder(path.orderedOn, wantOrder) {
			if bestOrdered == nil || path.node.Cost < bestOrdered.node.Cost {
				p := *path
				bestOrdered = &p
			}
		}
	}
	if bestOrdered != nil && !providesOrder(best.orderedOn, wantOrder) {
		return best, bestOrdered
	}
	return best, nil
}

// refIndexPath prices scanning table t with index ix, or returns nil when the
// index is useless for this query (no sargable prefix match, not covering,
// and providing no order anyone asked for — order filtering happens in the
// caller, so pure-order paths are still returned here).
func (e *Engine) refIndexPath(q *sqlx.Query, t *schema.Table, ix schema.Index, info *refTableInfo, sel, outRows float64, mode Mode) *refAccessPath {
	// Sargable single-predicate groups by column.
	eq := map[string]sqlx.Predicate{}
	rng := map[string]sqlx.Predicate{}
	for _, g := range info.groups {
		if !g.sargable {
			continue
		}
		p := g.preds[0]
		if p.Op == sqlx.OpEq {
			eq[p.Col.Column] = p
		} else {
			if _, dup := rng[p.Col.Column]; !dup {
				rng[p.Col.Column] = p
			}
		}
	}
	matchedSel := 1.0
	nMatched := 0
	for _, cn := range ix.Columns {
		if p, ok := eq[cn]; ok {
			matchedSel *= e.predSel(p, mode)
			nMatched++
			continue
		}
		if p, ok := rng[cn]; ok {
			matchedSel *= e.predSel(p, mode)
			nMatched++
		}
		break
	}
	covering := true
	have := map[string]bool{}
	for _, cn := range ix.Columns {
		have[cn] = true
	}
	for cn := range info.reqCols {
		if !have[cn] {
			covering = false
			break
		}
	}
	if nMatched == 0 && !covering {
		// Full index scan is only plausible for order; allow it but price
		// the whole leaf level.
		matchedSel = 1
	}
	matchRows := float64(t.Rows) * matchedSel
	if matchRows < 1 {
		matchRows = 1
	}
	ixPages := ix.SizeBytes(e.schema) / schema.PageSize
	cost := btreeHeight(float64(t.Rows))*randPageCost +
		matchedSel*ixPages*seqPageCost +
		matchRows*cpuIndexCost
	typ := IndexScan
	if covering {
		typ = IndexOnlyScan
	} else {
		cost += mackertLohman(matchRows, t.Pages()) * randPageCost
	}
	// Residual predicate evaluation on fetched rows.
	resid := info.predOps - nMatched
	if resid > 0 {
		cost += matchRows * float64(resid) * cpuOpCost
	}
	node := &PlanNode{Type: typ, Table: t.Name, Index: &ix, Cost: cost, Rows: outRows, Height: 1}
	return &refAccessPath{node: node, orderedOn: ix.Columns}
}

// refJoinSearch runs bitmask dynamic programming over the query's tables.
func (e *Engine) refJoinSearch(q *sqlx.Query, tables []string, infos map[string]*refTableInfo, cfg schema.Config, mode Mode) (*PlanNode, error) {
	n := len(tables)
	idx := map[string]int{}
	for i, t := range tables {
		idx[t] = i
	}
	base := make([]*PlanNode, n)
	for i, t := range tables {
		best, _ := e.refScanPaths(q, t, infos[t], cfg, mode, nil)
		base[i] = best.node
	}

	// Pre-compute cardinalities per subset so every plan for a subset
	// agrees on output rows (standard DP discipline).
	full := (1 << n) - 1
	card := make([]float64, full+1)
	for m := 1; m <= full; m++ {
		card[m] = e.refSubsetCard(q, tables, infos, m, idx, mode)
	}

	dp := make([]*PlanNode, full+1)
	for i := 0; i < n; i++ {
		dp[1<<i] = base[i]
	}
	for m := 1; m <= full; m++ {
		if dp[m] != nil || !e.refConnected(q, tables, m, idx) {
			continue
		}
		var best *PlanNode
		for s1 := (m - 1) & m; s1 > 0; s1 = (s1 - 1) & m {
			s2 := m ^ s1
			if s1 > s2 {
				continue // each split considered once
			}
			p1, p2 := dp[s1], dp[s2]
			if p1 == nil || p2 == nil {
				continue
			}
			if !e.refCrossJoined(q, tables, s1, s2, idx) {
				continue
			}
			cand := e.refBestJoin(q, tables, infos, cfg, mode, p1, p2, s1, s2, idx, card[m])
			if cand != nil && (best == nil || cand.Cost < best.Cost) {
				best = cand
			}
		}
		dp[m] = best
	}
	if dp[full] == nil {
		// Disconnected join graph: fall back to cross products, joining
		// components greedily with hash joins.
		return e.refCrossProductFallback(q, tables, infos, cfg, mode, dp, card)
	}
	return dp[full], nil
}

// connected reports whether the subset of tables is connected in the
// query's join graph (singletons are connected).
func (e *Engine) refConnected(q *sqlx.Query, tables []string, m int, idx map[string]int) bool {
	first := -1
	cnt := 0
	for i := range tables {
		if m&(1<<i) != 0 {
			if first < 0 {
				first = i
			}
			cnt++
		}
	}
	if cnt <= 1 {
		return true
	}
	seen := 1 << first
	for changed := true; changed; {
		changed = false
		for _, j := range q.Joins {
			a, aok := idx[j.Left.Table]
			b, bok := idx[j.Right.Table]
			if !aok || !bok || m&(1<<a) == 0 || m&(1<<b) == 0 {
				continue
			}
			if seen&(1<<a) != 0 && seen&(1<<b) == 0 {
				seen |= 1 << b
				changed = true
			}
			if seen&(1<<b) != 0 && seen&(1<<a) == 0 {
				seen |= 1 << a
				changed = true
			}
		}
	}
	return refCountBits(seen&m) == cnt
}

func refCountBits(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// refCrossJoined reports whether a join predicate connects the two subsets.
func (e *Engine) refCrossJoined(q *sqlx.Query, tables []string, s1, s2 int, idx map[string]int) bool {
	for _, j := range q.Joins {
		a, aok := idx[j.Left.Table]
		b, bok := idx[j.Right.Table]
		if !aok || !bok {
			continue
		}
		if (s1&(1<<a) != 0 && s2&(1<<b) != 0) || (s2&(1<<a) != 0 && s1&(1<<b) != 0) {
			return true
		}
	}
	return false
}

// refSubsetCard estimates the output cardinality of joining the subset m:
// the product of filtered base cardinalities shrunk by every internal join
// predicate's 1/max(ndv) factor.
func (e *Engine) refSubsetCard(q *sqlx.Query, tables []string, infos map[string]*refTableInfo, m int, idx map[string]int, mode Mode) float64 {
	card := 1.0
	for i, tn := range tables {
		if m&(1<<i) == 0 {
			continue
		}
		t := e.schema.Table(tn)
		card *= float64(t.Rows) * infos[tn].sel
	}
	for _, j := range q.Joins {
		a, aok := idx[j.Left.Table]
		b, bok := idx[j.Right.Table]
		if !aok || !bok || m&(1<<a) == 0 || m&(1<<b) == 0 {
			continue
		}
		ndv := math.Max(e.columnNDV(j.Left, mode), e.columnNDV(j.Right, mode))
		card /= ndv
	}
	if card < 1 {
		card = 1
	}
	return card
}

// refBestJoin prices the join algorithms for combining two sub-plans and
// returns the cheapest.
func (e *Engine) refBestJoin(q *sqlx.Query, tables []string, infos map[string]*refTableInfo, cfg schema.Config, mode Mode, p1, p2 *PlanNode, s1, s2 int, idx map[string]int, outRows float64) *PlanNode {
	childCost := p1.Cost + p2.Cost

	// Hash join: build the smaller input.
	build, probe := p1, p2
	if probe.Rows < build.Rows {
		build, probe = probe, build
	}
	hashCost := childCost + build.Rows*cpuTupleCost*hashBuildMult +
		probe.Rows*cpuTupleCost + outRows*cpuTupleCost
	best := newNode(HashJoin, hashCost, outRows, p1, p2)

	// Merge join: sort both inputs then merge.
	mergeCost := childCost + sortCost(p1.Rows) + sortCost(p2.Rows) +
		(p1.Rows+p2.Rows)*cpuTupleCost + outRows*cpuTupleCost
	if mergeCost < best.Cost {
		s1n := newNode(Sort, p1.Cost+sortCost(p1.Rows), p1.Rows, p1)
		s2n := newNode(Sort, p2.Cost+sortCost(p2.Rows), p2.Rows, p2)
		best = newNode(MergeJoin, mergeCost, outRows, s1n, s2n)
	}

	// Nested loop with a parameterized index scan when one side is a
	// single base table with an index led by the join column.
	for _, flip := range []bool{false, true} {
		outer, innerMask := p1, s2
		if flip {
			outer, innerMask = p2, s1
		}
		if refCountBits(innerMask) != 1 {
			continue
		}
		innerIdx := 0
		for i := range tables {
			if innerMask&(1<<i) != 0 {
				innerIdx = i
			}
		}
		innerTable := tables[innerIdx]
		joinCol := ""
		for _, j := range q.Joins {
			a, aok := idx[j.Left.Table]
			b, bok := idx[j.Right.Table]
			if !aok || !bok {
				continue
			}
			if j.Left.Table == innerTable && innerMask&(1<<a) != 0 && (s1|s2)&^innerMask&(1<<b) != 0 {
				joinCol = j.Left.Column
			}
			if j.Right.Table == innerTable && innerMask&(1<<b) != 0 && (s1|s2)&^innerMask&(1<<a) != 0 {
				joinCol = j.Right.Column
			}
		}
		if joinCol == "" {
			continue
		}
		for _, ix := range cfg.OnTable(innerTable) {
			if ix.Columns[0] != joinCol {
				continue
			}
			t := e.schema.Table(innerTable)
			ndv := e.columnNDV(sqlx.ColumnRef{Table: innerTable, Column: joinCol}, mode)
			matchRows := float64(t.Rows) / ndv
			if matchRows < 1 {
				matchRows = 1
			}
			lookup := btreeHeight(float64(t.Rows))*randPageCost +
				matchRows*cpuIndexCost +
				mackertLohman(matchRows, t.Pages())*randPageCost +
				matchRows*float64(infos[innerTable].predOps)*cpuOpCost
			nlCost := outer.Cost + outer.Rows*lookup + outRows*cpuTupleCost
			if nlCost < best.Cost {
				inner := &PlanNode{
					Type: IndexScan, Table: innerTable, Index: &ix,
					Cost: lookup, Rows: matchRows * infos[innerTable].sel, Height: 1,
				}
				if inner.Rows < 1 {
					inner.Rows = 1
				}
				best = newNode(NestLoop, nlCost, outRows, outer, inner)
			}
		}
	}
	return best
}

// refCrossProductFallback joins disconnected components with hash joins in
// table order; rare (the workload generators only emit connected joins)
// but keeps arbitrary parsed queries plannable.
func (e *Engine) refCrossProductFallback(q *sqlx.Query, tables []string, infos map[string]*refTableInfo, cfg schema.Config, mode Mode, dp []*PlanNode, card []float64) (*PlanNode, error) {
	n := len(tables)
	full := (1 << n) - 1
	// Collect the largest planned connected components greedily.
	var parts []*PlanNode
	var masks []int
	remaining := full
	for remaining != 0 {
		bestMask := 0
		for m := remaining; m > 0; m = (m - 1) & remaining {
			if dp[m] != nil && refCountBits(m) > refCountBits(bestMask) {
				bestMask = m
			}
		}
		if bestMask == 0 {
			return nil, fmt.Errorf("engine: cannot plan join of %v", tables)
		}
		parts = append(parts, dp[bestMask])
		masks = append(masks, bestMask)
		remaining &^= bestMask
	}
	cur := parts[0]
	curMask := masks[0]
	for i := 1; i < len(parts); i++ {
		curMask |= masks[i]
		rows := card[curMask] // internal joins only; cross product handled by card
		rows = math.Max(rows, cur.Rows*parts[i].Rows/math.Max(cur.Rows, 1))
		cost := cur.Cost + parts[i].Cost + cur.Rows*parts[i].Rows*cpuTupleCost
		cur = newNode(NestLoop, cost, rows, cur, parts[i])
	}
	return cur, nil
}

// refFinishPlan applies multi-table filters, aggregation, HAVING and ORDER BY
// on top of the joined (or scanned) input.
func (e *Engine) refFinishPlan(q *sqlx.Query, input *PlanNode, inputOrder []string, topGroups []predGroup, mode Mode) *PlanNode {
	plan := input
	rows := plan.Rows

	if len(topGroups) > 0 {
		sel := 1.0
		terms := 0
		for _, g := range topGroups {
			sel *= e.groupSel(g, mode)
			terms += len(g.preds)
		}
		rows = math.Max(1, rows*sel)
		cost := plan.Cost + plan.Rows*float64(terms)*cpuOpCost
		plan = newNode(Result, cost, rows, plan)
	}

	hasAgg := q.Having != nil
	for _, s := range q.Select {
		if s.Agg != "" {
			hasAgg = true
		}
	}

	orderSatisfied := func(cols []sqlx.ColumnRef) bool {
		if len(cols) == 0 {
			return true
		}
		var want []string
		table := cols[0].Table
		for _, c := range cols {
			if c.Table != table {
				return false
			}
			want = append(want, c.Column)
		}
		return plan == input && providesOrder(inputOrder, want)
	}

	if len(q.GroupBy) > 0 {
		groups := 1.0
		for _, c := range q.GroupBy {
			groups *= e.columnNDV(c, mode)
		}
		groups = math.Min(groups, rows)
		if groups < 1 {
			groups = 1
		}
		if orderSatisfied(q.GroupBy) {
			cost := plan.Cost + rows*cpuTupleCost + groups*cpuTupleCost
			plan = newNode(GroupAggregate, cost, groups, plan)
		} else {
			cost := plan.Cost + rows*cpuTupleCost*1.2 + groups*cpuTupleCost
			plan = newNode(HashAggregate, cost, groups, plan)
		}
		rows = groups
		if q.Having != nil {
			rows = math.Max(1, rows/3) // default HAVING selectivity
			plan.Rows = rows
			plan.Cost += plan.Children[0].Rows * cpuOpCost
		}
	} else if hasAgg {
		cost := plan.Cost + rows*cpuTupleCost
		plan = newNode(GroupAggregate, cost, 1, plan)
		rows = 1
	}

	if len(q.OrderBy) > 0 && rows > 1 {
		sorted := len(q.GroupBy) == 0 && orderSatisfied(q.OrderBy)
		if !sorted {
			plan = newNode(Sort, plan.Cost+sortCost(rows), rows, plan)
		}
	}
	return plan
}
