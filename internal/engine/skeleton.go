package engine

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
)

// skeleton is the part of planning one query that does not depend on
// the index configuration, for one engine and statistics mode: the
// validation result, per-table selectivities and scan costs, per-subset
// cardinalities, and the connected subsets of the join search with
// their admissible splits. It is built once (buildSkeleton), memoized on
// the query's analysis (skeletonOf) and read-only afterwards; a plan
// call then only picks access paths and runs the join DP over it
// (skeleton.plan). Everything is indexed by the query's table number
// (FROM order), so the join DP needs no maps.
//
// A skeleton must not point at the Engine or at anything the engine
// owns (its histograms, its plan cache): it lives as long as the query,
// and queries outlive engines.
type skeleton struct {
	// err is the query's validation or schema error; when it is set the
	// skeleton holds nothing else.
	err error

	tables []skelTable

	// wantOrder is the output order a single-table query would like its
	// scan to provide (ORDER BY, else GROUP BY) as column names; nil
	// when there is none or the query joins several tables.
	wantOrder []string

	// slots holds the output rows of every join DP entry: slot i below
	// len(tables) is table i's scan, slot len(tables)+k is joins[k].
	slots []skelSlot
	// joins lists, per connected subset of two or more tables in DP
	// order, the subset's admissible splits.
	joins [][]skelSplit
	// sides are the nested-loop inner sides: 2j is join predicate j's
	// left column looked up from its right table, 2j+1 the reverse.
	sides []joinSide
	// root is the slot of the whole join, or -1 when the join graph is
	// disconnected and cross joins its components instead.
	root  int
	cross []crossStep

	fin finishSkel
}

// skelTable is the configuration-independent part of scanning one table.
type skelTable struct {
	name    string
	t       *schema.Table
	sel     float64 // combined selectivity of the table's filter groups
	rowsSel float64 // float64(t.Rows)*sel, the table's factor in subset cardinalities
	outRows float64 // rowsSel, at least 1: the output rows of every access path
	seqCost float64
	descent float64 // btreeHeight(rows)*randPageCost, paid by every index scan
	pages   float64
	predOps int
	sarg    []sargCol
	reqCols []string
	sides   []int // join sides whose inner table this is
}

// sargCol holds the selectivities of the sargable predicates on one
// column: index matching uses the last equality, else the first range.
type sargCol struct {
	col           string
	eq, rng       float64
	hasEq, hasRng bool
}

type skelSlot struct {
	rows float64
	sort float64 // sortCost(rows), paid by a merge join's sort of this input
}

// skelSplit is one admissible way to build a subset from two planned,
// cross-joined halves s1 < s2.
type skelSplit struct {
	l, r int32 // DP slots of s1 and s2
	// nl[0] is the join side a nested loop with outer s1 looks up in
	// the single table s2, nl[1] the side with outer s2; -1 if none.
	nl [2]int32
}

// joinSide is a parameterized index lookup into one table by one join
// column; any index on the table led by that column serves it.
type joinSide struct {
	table     int
	col       string
	lookup    float64 // cost of one lookup
	innerRows float64
}

// crossStep is one component of a disconnected join; every step but the
// first cross-joins the components so far with this one.
type crossStep struct {
	slot int
	rows float64
	cost float64 // the cross product's own cost, on top of both inputs
}

// finishSkel holds what finish needs to add filters spanning tables,
// aggregation, HAVING and ORDER BY on top of the joined input.
type finishSkel struct {
	topTerms   int     // terms of the OR-groups spanning several tables
	topSel     float64 // their combined selectivity
	agg        bool    // an aggregate or HAVING is present
	groupBy    bool
	groups     float64 // product of the GROUP BY columns' NDVs
	having     bool
	orderBy    bool
	groupOrder []string // GROUP BY as one table's column names, nil if it spans tables
	orderOrder []string // likewise ORDER BY
}

// skelEntry is one memoized skeleton, keyed by engine id and mode.
type skelEntry struct {
	engine uint64
	mode   Mode
	sk     *skeleton
}

// skeletonOf returns q's skeleton for this engine and mode, building it
// on first use. Skeletons live on the query's analysis in an immutable
// list that is replaced by compare-and-swap, so Invalidate drops them
// and Clone never shares them. An invalid query is not analyzed, so its
// error is not memoized.
func (e *Engine) skeletonOf(q *sqlx.Query, mode Mode) *skeleton {
	if qa, ok := q.PlanInfo().(*queryAnalysis); ok {
		if sk := findSkeleton(qa.skeletons.Load(), e.id, mode); sk != nil {
			return sk
		}
	}
	if err := q.Validate(); err != nil {
		return &skeleton{err: err}
	}
	qa := analysisOf(q)
	sk := e.buildSkeleton(q, qa, mode)
	for {
		old := qa.skeletons.Load()
		if won := findSkeleton(old, e.id, mode); won != nil {
			return won
		}
		var list []skelEntry
		if old != nil {
			list = *old
		}
		next := append(list[:len(list):len(list)], skelEntry{engine: e.id, mode: mode, sk: sk})
		if qa.skeletons.CompareAndSwap(old, &next) {
			return sk
		}
	}
}

func findSkeleton(list *[]skelEntry, engine uint64, mode Mode) *skeleton {
	if list != nil {
		for _, se := range *list {
			if se.engine == engine && se.mode == mode {
				return se.sk
			}
		}
	}
	return nil
}

// buildSkeleton analyzes a valid query. The first failing check sets
// the error, in this order: table count, unknown tables, unknown
// columns.
func (e *Engine) buildSkeleton(q *sqlx.Query, qa *queryAnalysis, mode Mode) *skeleton {
	n := len(qa.tables)
	if n > 14 {
		return &skeleton{err: fmt.Errorf("engine: too many tables (%d)", n)}
	}
	sk := &skeleton{tables: make([]skelTable, n), slots: make([]skelSlot, n), root: -1}
	for i, name := range qa.tables {
		t := e.schema.Table(name)
		if t == nil {
			return &skeleton{err: fmt.Errorf("engine: unknown table %s", name)}
		}
		sk.tables[i].name, sk.tables[i].t = name, t
	}
	for _, c := range qa.columns {
		if e.schema.Column(c) == nil {
			return &skeleton{err: fmt.Errorf("engine: unknown column %s", c)}
		}
	}
	for i := range sk.tables {
		st := &sk.tables[i]
		e.scanSkeleton(st, qa.statics[st.name], mode)
		sk.slots[i] = skelSlot{rows: st.outRows, sort: sortCost(st.outRows)}
	}
	if n == 1 {
		desired := q.OrderBy
		if len(desired) == 0 {
			desired = q.GroupBy
		}
		sk.wantOrder = oneTableColumns(desired)
	} else {
		e.joinSkeleton(sk, q, mode)
	}
	e.finishSkeleton(&sk.fin, q, qa.topGroups, mode)
	return sk
}

// scanSkeleton fills in the configuration-independent costs of scanning
// one table.
func (e *Engine) scanSkeleton(st *skelTable, ts *tableStatic, mode Mode) {
	t := st.t
	st.sel = e.combineGroups(st.name, ts.groups, mode)
	st.rowsSel = float64(t.Rows) * st.sel
	st.outRows = st.rowsSel
	if st.outRows < 1 {
		st.outRows = 1
	}
	st.seqCost = t.Pages()*seqPageCost + float64(t.Rows)*cpuTupleCost +
		float64(t.Rows)*float64(ts.predOps)*cpuOpCost
	st.descent = btreeHeight(float64(t.Rows)) * randPageCost
	st.pages = t.Pages()
	st.predOps = ts.predOps
	for _, g := range ts.groups {
		if !g.sargable {
			continue
		}
		p := g.preds[0]
		sc := st.sargOn(p.Col.Column)
		if sc == nil {
			st.sarg = append(st.sarg, sargCol{col: p.Col.Column})
			sc = &st.sarg[len(st.sarg)-1]
		}
		if p.Op == sqlx.OpEq {
			sc.eq, sc.hasEq = e.predSel(p, mode), true
		} else if !sc.hasRng {
			sc.rng, sc.hasRng = e.predSel(p, mode), true
		}
	}
	for c := range ts.reqCols {
		st.reqCols = append(st.reqCols, c)
	}
}

// joinSkeleton enumerates the join search of a query of two or more
// tables: per-subset cardinalities, the connected subsets in DP order
// with their admissible splits, each split's nested-loop sides, and the
// cross-product fallback for a disconnected join graph.
func (e *Engine) joinSkeleton(sk *skeleton, q *sqlx.Query, mode Mode) {
	n := len(sk.tables)
	full := 1<<n - 1
	ends := make([][2]int, len(q.Joins)) // table numbers of each join predicate
	ndvMax := make([]float64, len(q.Joins))
	adj := make([]int, n) // tables joined to each table
	sk.sides = make([]joinSide, 0, 2*len(q.Joins))
	for j, jp := range q.Joins {
		a, b := sk.tableNum(jp.Left.Table), sk.tableNum(jp.Right.Table)
		ends[j] = [2]int{a, b}
		adj[a] |= 1 << b
		adj[b] |= 1 << a
		ndvL, ndvR := e.columnNDV(jp.Left, mode), e.columnNDV(jp.Right, mode)
		ndvMax[j] = math.Max(ndvL, ndvR)
		sk.sides = append(sk.sides, sk.side(a, jp.Left.Column, ndvL), sk.side(b, jp.Right.Column, ndvR))
		sk.tables[a].sides = append(sk.tables[a].sides, 2*j)
		sk.tables[b].sides = append(sk.tables[b].sides, 2*j+1)
	}
	// card multiplies the subset's tables in table order, then divides
	// once per join predicate inside it, in q.Joins order.
	card := func(m int) float64 {
		c := 1.0
		for i := range sk.tables {
			if m&(1<<i) != 0 {
				c *= sk.tables[i].rowsSel
			}
		}
		for j, ab := range ends {
			if m&(1<<ab[0]) != 0 && m&(1<<ab[1]) != 0 {
				c /= ndvMax[j]
			}
		}
		if c < 1 {
			c = 1
		}
		return c
	}
	connected := func(m int) bool {
		seen := m & -m
		for {
			grown := seen
			for r := seen; r != 0; r &= r - 1 {
				grown |= adj[bits.TrailingZeros(uint(r))] & m
			}
			if grown == seen {
				return seen == m
			}
			seen = grown
		}
	}
	// slot[m] is subset m's DP slot, -1 while it has no plan; near[m]
	// the tables joined to some table of m.
	slot := make([]int32, full+1)
	near := make([]int, full+1)
	for m := 1; m <= full; m++ {
		slot[m] = -1
		near[m] = near[m&(m-1)] | adj[bits.TrailingZeros(uint(m))]
	}
	for i := 0; i < n; i++ {
		slot[1<<i] = int32(i)
	}
	// Every connected subset gets a plan: cutting one edge of a spanning
	// tree splits it into two connected, cross-joined halves.
	for m := 1; m <= full; m++ {
		if m&(m-1) == 0 || !connected(m) {
			continue
		}
		var splits []skelSplit
		for s1 := (m - 1) & m; s1 > 0; s1 = (s1 - 1) & m {
			s2 := m ^ s1
			if s1 > s2 || slot[s1] < 0 || slot[s2] < 0 || near[s1]&s2 == 0 {
				continue
			}
			splits = append(splits, skelSplit{
				l: slot[s1], r: slot[s2],
				nl: [2]int32{nlSide(ends, s2, s1), nlSide(ends, s1, s2)},
			})
		}
		slot[m] = int32(len(sk.slots))
		rows := card(m)
		sk.slots = append(sk.slots, skelSlot{rows: rows, sort: sortCost(rows)})
		sk.joins = append(sk.joins, splits)
	}
	if slot[full] >= 0 {
		sk.root = int(slot[full])
		return
	}
	// Disconnected join graph: cross-join the largest planned components,
	// chosen greedily.
	curMask := 0
	var curRows float64
	for remaining := full; remaining != 0; {
		best := 0
		for m := remaining; m > 0; m = (m - 1) & remaining {
			if slot[m] >= 0 && bits.OnesCount(uint(m)) > bits.OnesCount(uint(best)) {
				best = m
			}
		}
		remaining &^= best
		step := crossStep{slot: int(slot[best])}
		partRows := sk.slots[step.slot].rows
		if curMask == 0 {
			curMask, curRows = best, partRows
			sk.cross = append(sk.cross, step)
			continue
		}
		curMask |= best
		step.rows = card(curMask)
		step.rows = math.Max(step.rows, curRows*partRows/math.Max(curRows, 1))
		step.cost = curRows * partRows * cpuTupleCost
		sk.cross = append(sk.cross, step)
		curRows = step.rows
	}
}

// side prices a parameterized index lookup into table i by column col.
func (sk *skeleton) side(i int, col string, ndv float64) joinSide {
	st := &sk.tables[i]
	matchRows := float64(st.t.Rows) / ndv
	if matchRows < 1 {
		matchRows = 1
	}
	lookup := st.descent +
		matchRows*cpuIndexCost +
		mackertLohman(matchRows, st.pages)*randPageCost +
		matchRows*float64(st.predOps)*cpuOpCost
	innerRows := matchRows * st.sel
	if innerRows < 1 {
		innerRows = 1
	}
	return joinSide{table: i, col: col, lookup: lookup, innerRows: innerRows}
}

// nlSide returns the join side a nested loop from outer into the single
// table inner looks up: the last join predicate between them in q.Joins
// order, or -1 when inner is not a single table or none joins them.
func nlSide(ends [][2]int, inner, outer int) int32 {
	if inner&(inner-1) != 0 {
		return -1
	}
	i := bits.TrailingZeros(uint(inner))
	side := int32(-1)
	for j, ab := range ends {
		if ab[0] == i && outer&(1<<ab[1]) != 0 {
			side = int32(2 * j)
		}
		if ab[1] == i && outer&(1<<ab[0]) != 0 {
			side = int32(2*j + 1)
		}
	}
	return side
}

// finishSkeleton precomputes the selectivities and group counts of the
// operators finish puts on top of the joined input.
func (e *Engine) finishSkeleton(f *finishSkel, q *sqlx.Query, topGroups []predGroup, mode Mode) {
	f.topSel = 1.0
	for _, g := range topGroups {
		f.topSel *= e.groupSel(g, mode)
		f.topTerms += len(g.preds)
	}
	f.having = q.Having != nil
	f.agg = f.having
	for _, s := range q.Select {
		if s.Agg != "" {
			f.agg = true
		}
	}
	if len(q.GroupBy) > 0 {
		f.groupBy = true
		f.groups = 1.0
		for _, c := range q.GroupBy {
			f.groups *= e.columnNDV(c, mode)
		}
		f.groupOrder = oneTableColumns(q.GroupBy)
	}
	f.orderBy = len(q.OrderBy) > 0
	f.orderOrder = oneTableColumns(q.OrderBy)
}

// oneTableColumns returns the column names of cols when they all belong
// to one table, else nil.
func oneTableColumns(cols []sqlx.ColumnRef) []string {
	var names []string
	for _, c := range cols {
		if c.Table != cols[0].Table {
			return nil
		}
		names = append(names, c.Column)
	}
	return names
}

// tableNum returns the query's number for a table, or -1.
func (sk *skeleton) tableNum(name string) int {
	for i := range sk.tables {
		if sk.tables[i].name == name {
			return i
		}
	}
	return -1
}

func (st *skelTable) sargOn(col string) *sargCol {
	for i := range st.sarg {
		if st.sarg[i].col == col {
			return &st.sarg[i]
		}
	}
	return nil
}

// indexCost prices scanning the table with ix: the sargable prefix the
// index matches (equalities, then at most one range), heap fetches
// unless it covers the query's columns on the table, and residual
// predicates on the fetched rows.
func (st *skelTable) indexCost(s *schema.Schema, ix *schema.Index) (float64, NodeType) {
	matchedSel := 1.0
	nMatched := 0
	for _, cn := range ix.Columns {
		sc := st.sargOn(cn)
		if sc == nil {
			break
		}
		if sc.hasEq {
			matchedSel *= sc.eq
			nMatched++
			continue
		}
		matchedSel *= sc.rng
		nMatched++
		break
	}
	covering := true
	for _, c := range st.reqCols {
		if !hasColumn(ix.Columns, c) {
			covering = false
			break
		}
	}
	matchRows := float64(st.t.Rows) * matchedSel
	if matchRows < 1 {
		matchRows = 1
	}
	ixPages := ix.SizeBytes(s) / schema.PageSize
	cost := st.descent +
		matchedSel*ixPages*seqPageCost +
		matchRows*cpuIndexCost
	typ := IndexScan
	if covering {
		typ = IndexOnlyScan
	} else {
		cost += mackertLohman(matchRows, st.pages) * randPageCost
	}
	if resid := st.predOps - nMatched; resid > 0 {
		cost += matchRows * float64(resid) * cpuOpCost
	}
	return cost, typ
}

func hasColumn(cols []string, c string) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

// choice is one DP slot's cheapest plan under the configuration.
type choice struct {
	cost  float64
	typ   NodeType
	ix    int  // cfg position of the index of an index scan (-1: none) or nested loop
	split int  // the split a join slot was built from
	flip  bool // nested loop with the split's s2 as the outer input
}

// plan picks access paths and runs the join DP over the skeleton for
// one configuration. Candidates are compared in the order, and with the
// strict <, that makes ties resolve to the earliest: per table the
// sequential scan, then indexes in cfg order; per subset its splits in
// DP order, and per split hash join, merge join, then nested loops with
// outer s1 and s2.
func (sk *skeleton) plan(s *schema.Schema, cfg schema.Config) *PlanNode {
	n := len(sk.tables)
	ch := make([]choice, len(sk.slots))
	for i := range sk.tables {
		ch[i] = choice{cost: sk.tables[i].seqCost, typ: SeqScan, ix: -1}
	}
	// sideIx[d] is the first index in cfg that serves join side d.
	sideIx := make([]int, len(sk.sides))
	for d := range sideIx {
		sideIx[d] = -1
	}
	ordered := choice{ix: -1}
	for k := range cfg {
		ix := &cfg[k]
		i := sk.tableNum(ix.Table)
		if i < 0 {
			continue
		}
		st := &sk.tables[i]
		cost, typ := st.indexCost(s, ix)
		if cost < ch[i].cost {
			ch[i] = choice{cost: cost, typ: typ, ix: k}
		}
		if sk.wantOrder != nil && providesOrder(ix.Columns, sk.wantOrder) &&
			(ordered.ix < 0 || cost < ordered.cost) {
			ordered = choice{cost: cost, typ: typ, ix: k}
		}
		for _, d := range st.sides {
			if sideIx[d] < 0 && len(ix.Columns) > 0 && ix.Columns[0] == sk.sides[d].col {
				sideIx[d] = k
			}
		}
	}
	if n == 1 {
		main := sk.fin.finish(sk.node(ch, cfg, 0), orderOf(ch[0], cfg))
		if ordered.ix >= 0 && !providesOrder(orderOf(ch[0], cfg), sk.wantOrder) {
			alt := sk.fin.finish(sk.scanNode(0, ordered, cfg), cfg[ordered.ix].Columns)
			if alt.Cost < main.Cost {
				return alt
			}
		}
		return main
	}

	for k, splits := range sk.joins {
		slot := n + k
		rows := sk.slots[slot].rows
		var best choice
		for si := range splits {
			sp := &splits[si]
			l, r := &sk.slots[sp.l], &sk.slots[sp.r]
			childCost := ch[sp.l].cost + ch[sp.r].cost
			build, probe := l.rows, r.rows
			if probe < build {
				build, probe = probe, build
			}
			hashCost := childCost + build*cpuTupleCost*hashBuildMult +
				probe*cpuTupleCost + rows*cpuTupleCost
			cand := choice{cost: hashCost, typ: HashJoin, split: si}
			mergeCost := childCost + l.sort + r.sort +
				(l.rows+r.rows)*cpuTupleCost + rows*cpuTupleCost
			if mergeCost < cand.cost {
				cand = choice{cost: mergeCost, typ: MergeJoin, split: si}
			}
			for f, d := range sp.nl {
				if d < 0 || sideIx[d] < 0 {
					continue
				}
				outer := sp.l
				if f == 1 {
					outer = sp.r
				}
				nlCost := ch[outer].cost + sk.slots[outer].rows*sk.sides[d].lookup + rows*cpuTupleCost
				if nlCost < cand.cost {
					cand = choice{cost: nlCost, typ: NestLoop, split: si, ix: sideIx[d], flip: f == 1}
				}
			}
			if si == 0 || cand.cost < best.cost {
				best = cand
			}
		}
		ch[slot] = best
	}
	if sk.root >= 0 {
		return sk.fin.finish(sk.node(ch, cfg, sk.root), nil)
	}
	cur := sk.node(ch, cfg, sk.cross[0].slot)
	for _, step := range sk.cross[1:] {
		part := sk.node(ch, cfg, step.slot)
		cur = newNode(NestLoop, cur.Cost+part.Cost+step.cost, step.rows, cur, part)
	}
	return sk.fin.finish(cur, nil)
}

// orderOf is the output order of a table scan: its index's columns.
func orderOf(c choice, cfg schema.Config) []string {
	if c.ix < 0 {
		return nil
	}
	return cfg[c.ix].Columns
}

// node builds the plan tree of a DP slot from the choices.
func (sk *skeleton) node(ch []choice, cfg schema.Config, slot int) *PlanNode {
	c := ch[slot]
	if slot < len(sk.tables) {
		return sk.scanNode(slot, c, cfg)
	}
	sp := &sk.joins[slot-len(sk.tables)][c.split]
	rows := sk.slots[slot].rows
	switch c.typ {
	case HashJoin:
		return newNode(HashJoin, c.cost, rows, sk.node(ch, cfg, int(sp.l)), sk.node(ch, cfg, int(sp.r)))
	case MergeJoin:
		p1, p2 := sk.node(ch, cfg, int(sp.l)), sk.node(ch, cfg, int(sp.r))
		s1 := newNode(Sort, p1.Cost+sk.slots[sp.l].sort, p1.Rows, p1)
		s2 := newNode(Sort, p2.Cost+sk.slots[sp.r].sort, p2.Rows, p2)
		return newNode(MergeJoin, c.cost, rows, s1, s2)
	}
	outer, d := sp.l, sp.nl[0]
	if c.flip {
		outer, d = sp.r, sp.nl[1]
	}
	side := &sk.sides[d]
	ix := cfg[c.ix]
	inner := &PlanNode{
		Type: IndexScan, Table: sk.tables[side.table].name, Index: &ix,
		Cost: side.lookup, Rows: side.innerRows, Height: 1,
	}
	return newNode(NestLoop, c.cost, rows, sk.node(ch, cfg, int(outer)), inner)
}

// scanNode builds table i's access path.
func (sk *skeleton) scanNode(i int, c choice, cfg schema.Config) *PlanNode {
	st := &sk.tables[i]
	p := &PlanNode{Type: c.typ, Table: st.name, Cost: c.cost, Rows: st.outRows, Height: 1}
	if c.ix >= 0 {
		ix := cfg[c.ix]
		p.Index = &ix
	}
	return p
}

// finish applies filters spanning several tables, aggregation, HAVING
// and ORDER BY on top of the joined (or scanned) input, whose output is
// ordered on inputOrder.
func (f *finishSkel) finish(input *PlanNode, inputOrder []string) *PlanNode {
	plan := input
	rows := plan.Rows

	if f.topTerms > 0 {
		rows = math.Max(1, rows*f.topSel)
		cost := plan.Cost + plan.Rows*float64(f.topTerms)*cpuOpCost
		plan = newNode(Result, cost, rows, plan)
	}
	sorted := func(want []string) bool {
		return want != nil && plan == input && providesOrder(inputOrder, want)
	}

	if f.groupBy {
		groups := math.Min(f.groups, rows)
		if groups < 1 {
			groups = 1
		}
		if sorted(f.groupOrder) {
			cost := plan.Cost + rows*cpuTupleCost + groups*cpuTupleCost
			plan = newNode(GroupAggregate, cost, groups, plan)
		} else {
			cost := plan.Cost + rows*cpuTupleCost*1.2 + groups*cpuTupleCost
			plan = newNode(HashAggregate, cost, groups, plan)
		}
		rows = groups
		if f.having {
			rows = math.Max(1, rows/3) // default HAVING selectivity
			plan.Rows = rows
			plan.Cost += plan.Children[0].Rows * cpuOpCost
		}
	} else if f.agg {
		cost := plan.Cost + rows*cpuTupleCost
		plan = newNode(GroupAggregate, cost, 1, plan)
		rows = 1
	}

	if f.orderBy && rows > 1 && (f.groupBy || !sorted(f.orderOrder)) {
		plan = newNode(Sort, plan.Cost+sortCost(rows), rows, plan)
	}
	return plan
}
