package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/trap-repro/trap/internal/sqlx"
)

// clause identifies where in the query a slot lives.
type clause int

const (
	clSelect clause = iota
	clFrom
	clJoin
	clWhere
	clGroupBy
	clHaving
	clOrderBy
)

// role identifies what a slot holds within its clause item.
type role int

const (
	roleReserved role = iota
	roleAgg
	roleColumn
	roleOperator
	roleValue
	roleConjunction
	roleTable
	roleExtension // the "(.*)?" slot of Figure 5
)

// slot is one position of the Constraint-Aware Reference Tree's leaf
// sequence. Slots are emitted in exact canonical token order so the
// decoder consumes one slot per SQL token (extension slots emit zero or
// more tokens).
type slot struct {
	clause clause
	role   role
	idx    int        // item index within the clause
	lit    sqlx.Token // the literal for forced slots
}

// Session drives the generation of one perturbed query q' from q under a
// perturbation constraint and edit budget ε, implementing Algorithm 1:
// it walks the reference tree's leaves, offers the legitimate vocabulary
// at each modifiable position, applies the chosen tokens to a mutable
// copy of the query, tracks the edit distance, and performs the
// look-ahead updates (a changed predicate column re-types its value leaf;
// columns already used in a clause are masked).
type Session struct {
	v          *Vocab
	constraint PerturbConstraint
	eps        int

	orig *sqlx.Query
	q    *sqlx.Query

	queue []slot
	pos   int
	edits int

	// stopID is the token closing an extension slot without insertion.
	stopID int

	// origCols caches the original query's column-token ids in
	// first-appearance order, built lazily on the first column slot of a
	// column-set-restricted constraint.
	origCols      []int
	origColsBuilt bool

	// usedCols masks per-clause duplicate columns (inner maps lazily
	// allocated, cleared on session reuse).
	usedCols [clOrderBy + 1]map[string]bool

	// pendingForcedValue marks filter indices whose column changed so the
	// upcoming value leaf must be re-sampled (its old literal is invalid).
	pendingForcedValue map[int]bool

	current *Step

	// stepBox backs every Step the session hands out: a step is only
	// alive between Next and the matching Choose (nothing downstream
	// retains the struct — the model captures only the Candidates slice),
	// so one reusable box replaces a per-slot allocation. forcedBuf is
	// the singleton candidate list of forced slots, which never reaches
	// the model at all.
	stepBox   Step
	forcedBuf [1]int

	// poolBuf is scratch for assembling column-candidate pools.
	poolBuf []int
}

// sessionPool recycles session shells — the slot queue, candidate
// scratch and mask maps — across decodes. A decode allocates only what
// escapes it: the perturbed query and the candidate slices the model's
// tape captures.
var sessionPool = sync.Pool{New: func() any { return new(Session) }}

// Step is the decoding decision at one position: the candidate token ids
// (singleton when the token is forced) and the index within Candidates of
// the "no change" choice (-1 when a change is forced by a look-ahead
// update).
type Step struct {
	Candidates []int
	KeepIdx    int
	slotRef    slot
}

// Forced reports whether the step offers no real choice.
func (st *Step) Forced() bool { return len(st.Candidates) == 1 }

// NewSession starts a perturbation session for q, reusing a pooled
// session shell when one is available.
func NewSession(v *Vocab, q *sqlx.Query, c PerturbConstraint, eps int) *Session {
	s := sessionPool.Get().(*Session)
	s.v, s.constraint, s.eps = v, c, eps
	s.orig, s.q = q, q.Clone()
	s.queue = s.queue[:0]
	s.pos, s.edits = 0, 0
	s.stopID = v.ID(sqlx.Token{Type: sqlx.TokReserved, Text: "<stop>"})
	s.origCols = s.origCols[:0]
	s.origColsBuilt = false
	for _, m := range s.usedCols {
		clear(m)
	}
	clear(s.pendingForcedValue)
	s.current = nil
	s.buildQueue()
	return s
}

// Release returns the session shell to the pool. Callers must be done
// with every Step the session handed out; the perturbed query returned
// by Result is independently allocated and unaffected.
func (s *Session) Release() {
	s.v, s.orig, s.q = nil, nil, nil
	s.current = nil
	sessionPool.Put(s)
}

func res(text string) sqlx.Token { return sqlx.Token{Type: sqlx.TokReserved, Text: text} }

// buildQueue lays out the slot sequence in canonical token order,
// inserting extension slots at the end of the SELECT and WHERE clauses
// when the constraint allows insertions.
func (s *Session) buildQueue() {
	q := s.q
	add := func(sl slot) { s.queue = append(s.queue, sl) }
	forced := func(cl clause, t sqlx.Token) { add(slot{clause: cl, role: roleReserved, lit: t}) }

	forced(clSelect, res("SELECT"))
	for i, it := range q.Select {
		if i > 0 {
			forced(clSelect, res(","))
		}
		if it.Agg != "" {
			add(slot{clause: clSelect, role: roleAgg, idx: i})
			forced(clSelect, res("("))
			add(slot{clause: clSelect, role: roleColumn, idx: i})
			forced(clSelect, res(")"))
		} else {
			add(slot{clause: clSelect, role: roleColumn, idx: i})
		}
	}
	if s.constraint.allowsExtensions() {
		add(slot{clause: clSelect, role: roleExtension})
	}
	forced(clFrom, res("FROM"))
	for i, t := range q.From {
		if i > 0 {
			forced(clFrom, res(","))
		}
		add(slot{clause: clFrom, role: roleTable, idx: i, lit: sqlx.Token{Type: sqlx.TokTable, Text: t.Name}})
	}
	if len(q.Joins) > 0 || len(q.Filters) > 0 || s.constraint.allowsExtensions() {
		forced(clWhere, res("WHERE"))
	}
	for i, j := range q.Joins {
		if i > 0 {
			forced(clJoin, sqlx.Token{Type: sqlx.TokConjunction, Text: "AND"})
		}
		forced(clJoin, sqlx.Token{Type: sqlx.TokColumn, Text: j.Left.String()})
		forced(clJoin, sqlx.Token{Type: sqlx.TokOperator, Text: "="})
		forced(clJoin, sqlx.Token{Type: sqlx.TokColumn, Text: j.Right.String()})
	}
	for i := range q.Filters {
		if i > 0 {
			add(slot{clause: clWhere, role: roleConjunction, idx: i})
		} else if len(q.Joins) > 0 {
			// The connective between the join block and the first filter
			// is structural (joins stay AND-connected) and not perturbable.
			forced(clWhere, sqlx.Token{Type: sqlx.TokConjunction, Text: "AND"})
		}
		add(slot{clause: clWhere, role: roleColumn, idx: i})
		add(slot{clause: clWhere, role: roleOperator, idx: i})
		add(slot{clause: clWhere, role: roleValue, idx: i})
	}
	if s.constraint.allowsExtensions() {
		add(slot{clause: clWhere, role: roleExtension})
	}
	if len(q.GroupBy) > 0 {
		forced(clGroupBy, res("GROUP"))
		forced(clGroupBy, res("BY"))
		for i := range q.GroupBy {
			if i > 0 {
				forced(clGroupBy, res(","))
			}
			add(slot{clause: clGroupBy, role: roleColumn, idx: i})
		}
	}
	if q.Having != nil {
		forced(clHaving, res("HAVING"))
		add(slot{clause: clHaving, role: roleAgg})
		forced(clHaving, res("("))
		add(slot{clause: clHaving, role: roleColumn})
		forced(clHaving, res(")"))
		add(slot{clause: clHaving, role: roleOperator})
		add(slot{clause: clHaving, role: roleValue})
	}
	if len(q.OrderBy) > 0 {
		forced(clOrderBy, res("ORDER"))
		forced(clOrderBy, res("BY"))
		for i := range q.OrderBy {
			if i > 0 {
				forced(clOrderBy, res(","))
			}
			add(slot{clause: clOrderBy, role: roleColumn, idx: i})
		}
	}
}

// budget returns the remaining edit budget.
func (s *Session) budget() int { return s.eps - s.edits }

// Next returns the decoding step at the current position, or ok=false when
// the walk is complete.
func (s *Session) Next() (*Step, bool) {
	if s.current != nil {
		return s.current, true
	}
	if s.pos >= len(s.queue) {
		return nil, false
	}
	sl := s.queue[s.pos]
	st := s.stepFor(sl)
	s.current = st
	return st, true
}

// origToken returns the token currently at the slot's position in q.
func (s *Session) origToken(sl slot) sqlx.Token {
	q := s.q
	switch {
	case sl.role == roleReserved || sl.role == roleTable:
		return sl.lit
	case sl.clause == clSelect && sl.role == roleAgg:
		return sqlx.Token{Type: sqlx.TokAggregator, Text: q.Select[sl.idx].Agg}
	case sl.clause == clSelect && sl.role == roleColumn:
		return sqlx.Token{Type: sqlx.TokColumn, Text: q.Select[sl.idx].Col.String()}
	case sl.clause == clWhere && sl.role == roleConjunction:
		return sqlx.Token{Type: sqlx.TokConjunction, Text: string(q.Conjs[sl.idx-1])}
	case sl.clause == clWhere && sl.role == roleColumn:
		return sqlx.Token{Type: sqlx.TokColumn, Text: q.Filters[sl.idx].Col.String()}
	case sl.clause == clWhere && sl.role == roleOperator:
		return sqlx.Token{Type: sqlx.TokOperator, Text: q.Filters[sl.idx].Op}
	case sl.clause == clWhere && sl.role == roleValue:
		return sqlx.Token{Type: sqlx.TokValue, Text: q.Filters[sl.idx].Val.String()}
	case sl.clause == clGroupBy:
		return sqlx.Token{Type: sqlx.TokColumn, Text: q.GroupBy[sl.idx].String()}
	case sl.clause == clHaving && sl.role == roleAgg:
		return sqlx.Token{Type: sqlx.TokAggregator, Text: q.Having.Agg}
	case sl.clause == clHaving && sl.role == roleColumn:
		return sqlx.Token{Type: sqlx.TokColumn, Text: q.Having.Col.String()}
	case sl.clause == clHaving && sl.role == roleOperator:
		return sqlx.Token{Type: sqlx.TokOperator, Text: q.Having.Op}
	case sl.clause == clHaving && sl.role == roleValue:
		return sqlx.Token{Type: sqlx.TokValue, Text: q.Having.Val.String()}
	case sl.clause == clOrderBy:
		return sqlx.Token{Type: sqlx.TokColumn, Text: q.OrderBy[sl.idx].String()}
	}
	panic("core: unhandled slot")
}

// forced fills the session's step box with the single-candidate step of
// a slot offering no choice.
func (s *Session) forced(id int, sl slot) *Step {
	s.forcedBuf[0] = id
	s.stepBox = Step{Candidates: s.forcedBuf[:1], KeepIdx: 0, slotRef: sl}
	return &s.stepBox
}

// stepFor computes the candidate set of a slot, applying the constraint
// rules of Table I, the remaining edit budget, and the dynamic masks.
func (s *Session) stepFor(sl slot) *Step {
	if sl.role == roleExtension {
		return s.extensionStep(sl)
	}
	orig := s.origToken(sl)
	origID := s.v.ID(orig)
	single := s.forced(origID, sl)

	if sl.role == roleReserved || sl.role == roleTable || sl.clause == clJoin {
		return single
	}
	var region []int
	needsBudget := 1
	switch sl.role {
	case roleValue:
		// Values are modifiable under every constraint.
		var col sqlx.ColumnRef
		if sl.clause == clHaving {
			col = s.q.Having.Col
		} else {
			col = s.q.Filters[sl.idx].Col
		}
		region = s.v.ValuesRegion(col)
		if s.pendingForcedValue[sl.idx] && sl.clause == clWhere {
			// Look-ahead re-typing: the column changed, the old literal is
			// invalid, a new value must be drawn (edit already accounted).
			// The region slice is vocab-owned and read-only downstream.
			s.stepBox = Step{Candidates: region, KeepIdx: -1, slotRef: sl}
			return &s.stepBox
		}
	case roleColumn:
		if !s.constraint.allowsColumns() {
			return single
		}
		// Strict-SQL grouping: in a grouped query, plain SELECT columns
		// and the GROUP BY columns are locked together and not perturbed
		// (only aggregate arguments, predicates and ORDER BY move).
		if len(s.q.GroupBy) > 0 {
			if sl.clause == clGroupBy {
				return single
			}
			if sl.clause == clSelect && s.q.Select[sl.idx].Agg == "" {
				return single
			}
		}
		region = s.columnCandidates(sl)
		if sl.clause == clWhere {
			// Changing a predicate column forces a value change too.
			needsBudget = 2
		}
	case roleOperator:
		if !s.constraint.allowsOperators() {
			return single
		}
		region = s.v.Region("operator")
	case roleAgg:
		if !s.constraint.allowsOperators() {
			return single
		}
		region = s.v.Region("aggregator")
	case roleConjunction:
		if !s.constraint.allowsOperators() {
			return single
		}
		region = s.v.Region("conjunction")
	}
	if s.budget() < needsBudget || len(region) == 0 {
		return single
	}
	// Candidates: the region with the original token included (kept
	// choices are free; any other choice costs edits). The slice is
	// freshly allocated per step — the model's tape captures it. Vocab
	// regions are duplicate-free by construction, so the linear dup scan
	// only guards the multi-table column pools.
	cands := make([]int, 0, len(region)+1)
	keep := -1
	for _, id := range region {
		dup := false
		for _, c := range cands {
			if c == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		cands = append(cands, id)
		if id == origID {
			keep = len(cands) - 1
		}
	}
	if keep < 0 {
		cands = append(cands, origID)
		keep = len(cands) - 1
	}
	s.stepBox = Step{Candidates: cands, KeepIdx: keep, slotRef: sl}
	return &s.stepBox
}

// columnCandidates returns the legal replacement columns for a column
// slot: the original column set under ColumnConsistent, or any column of
// the query's tables under SharedTable, minus columns already used in the
// same clause.
func (s *Session) columnCandidates(sl slot) []int {
	pool := s.poolBuf[:0]
	if s.constraint.columnSetRestricted() {
		if !s.origColsBuilt {
			s.origColsBuilt = true
			for _, col := range s.orig.Columns() {
				s.origCols = append(s.origCols,
					s.v.ID(sqlx.Token{Type: sqlx.TokColumn, Text: col.String()}))
			}
		}
		pool = append(pool, s.origCols...)
	} else {
		for _, t := range s.q.From {
			pool = append(pool, s.v.ColumnsRegion(t.Name)...)
		}
	}
	s.poolBuf = pool
	// Filter in place: out trails pool, so this reuses the same scratch.
	// The result is copied into the step's candidate slice by stepFor.
	used := s.usedCols[sl.clause]
	out := pool[:0]
	for _, id := range pool {
		if used != nil && used[s.v.Token(id).Text] {
			continue
		}
		out = append(out, id)
	}
	return out
}

// extensionStep builds the "(.*)?" decision: add a column (payload or new
// predicate) or emit <stop>. Insertions cost 2 tokens in SELECT (comma +
// column) and 4 in WHERE (conjunction + column + operator + value).
func (s *Session) extensionStep(sl slot) *Step {
	need := 2
	if sl.clause == clWhere {
		need = 4
	}
	if s.budget() < need {
		return s.forced(s.stopID, sl)
	}
	// A new plain payload column in a grouped query would violate strict
	// SQL grouping.
	if sl.clause == clSelect && len(s.q.GroupBy) > 0 {
		return s.forced(s.stopID, sl)
	}
	pool := s.poolBuf[:0]
	for _, t := range s.q.From {
		pool = append(pool, s.v.ColumnsRegion(t.Name)...)
	}
	s.poolBuf = pool
	used := s.usedCols[sl.clause]
	cands := make([]int, 1, len(pool)+1)
	cands[0] = s.stopID
	for _, id := range pool {
		if used != nil && used[s.v.Token(id).Text] {
			continue
		}
		cands = append(cands, id)
	}
	s.stepBox = Step{Candidates: cands, KeepIdx: 0, slotRef: sl}
	return &s.stepBox
}

// Choose applies the token with the given id (which must be one of the
// current step's candidates) and advances the walk.
func (s *Session) Choose(id int) error {
	st, ok := s.Next()
	if !ok {
		return fmt.Errorf("core: session already complete")
	}
	found := false
	for _, c := range st.Candidates {
		if c == id {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("core: token %d not in candidate set", id)
	}
	sl := st.slotRef
	tok := s.v.Token(id)
	changed := st.KeepIdx < 0 || st.Candidates[st.KeepIdx] != id

	if sl.role == roleExtension {
		s.applyExtension(sl, id, tok)
	} else if changed {
		s.applyChange(sl, tok)
		if !(sl.clause == clWhere && sl.role == roleValue && s.pendingForcedValue[sl.idx]) {
			s.edits++
		}
	}
	if sl.clause == clWhere && sl.role == roleValue {
		delete(s.pendingForcedValue, sl.idx)
	}
	// Track used columns per clause for duplicate masking.
	if sl.role == roleColumn || (sl.role == roleExtension && id != s.stopID) {
		if s.usedCols[sl.clause] == nil {
			s.usedCols[sl.clause] = map[string]bool{}
		}
		s.usedCols[sl.clause][tok.Text] = true
	}
	s.pos++
	s.current = nil
	return nil
}

// applyChange mutates the working query at the slot's position.
func (s *Session) applyChange(sl slot, tok sqlx.Token) {
	q := s.q
	// The working query may have been rendered or costed mid-walk; drop
	// its memoized text/analysis before mutating (see sqlx.Query).
	defer q.Invalidate()
	switch {
	case sl.clause == clSelect && sl.role == roleAgg:
		q.Select[sl.idx].Agg = tok.Text
	case sl.clause == clSelect && sl.role == roleColumn:
		q.Select[sl.idx].Col = mustColRef(tok.Text)
	case sl.clause == clWhere && sl.role == roleConjunction:
		q.Conjs[sl.idx-1] = sqlx.Conj(tok.Text)
	case sl.clause == clWhere && sl.role == roleColumn:
		q.Filters[sl.idx].Col = mustColRef(tok.Text)
		s.setPendingForced(sl.idx)
		s.edits++ // the forced value change is paid for here
	case sl.clause == clWhere && sl.role == roleOperator:
		q.Filters[sl.idx].Op = tok.Text
	case sl.clause == clWhere && sl.role == roleValue:
		q.Filters[sl.idx].Val = mustDatum(tok.Text)
	case sl.clause == clGroupBy:
		q.GroupBy[sl.idx] = mustColRef(tok.Text)
	case sl.clause == clHaving && sl.role == roleAgg:
		q.Having.Agg = tok.Text
	case sl.clause == clHaving && sl.role == roleColumn:
		q.Having.Col = mustColRef(tok.Text)
	case sl.clause == clHaving && sl.role == roleOperator:
		q.Having.Op = tok.Text
	case sl.clause == clHaving && sl.role == roleValue:
		q.Having.Val = mustDatum(tok.Text)
	case sl.clause == clOrderBy:
		q.OrderBy[sl.idx] = mustColRef(tok.Text)
	default:
		panic("core: unmodifiable slot changed")
	}
}

// applyExtension inserts a payload column or starts a new predicate.
func (s *Session) applyExtension(sl slot, id int, tok sqlx.Token) {
	if id == s.stopID {
		return
	}
	q := s.q
	defer q.Invalidate()
	if sl.clause == clSelect {
		q.Select = append(q.Select, sqlx.SelectItem{Col: mustColRef(tok.Text)})
		s.edits += 2
		return
	}
	// WHERE extension: append the predicate now and queue its operator and
	// value slots right after the current position.
	fi := len(q.Filters)
	col := mustColRef(tok.Text)
	defVal := sqlx.NumDatum(0)
	if region := s.v.ValuesRegion(col); len(region) > 0 {
		defVal = mustDatum(s.v.Token(region[0]).Text)
	}
	if len(q.Filters) > 0 || len(q.Joins) > 0 {
		if len(q.Filters) > 0 {
			q.Conjs = append(q.Conjs, sqlx.ConjAnd)
		}
	}
	q.Filters = append(q.Filters, sqlx.Predicate{Col: col, Op: sqlx.OpEq, Val: defVal})
	s.edits += 4
	rest := append([]slot{
		{clause: clWhere, role: roleOperator, idx: fi},
		{clause: clWhere, role: roleValue, idx: fi},
	}, s.queue[s.pos+1:]...)
	s.queue = append(s.queue[:s.pos+1], rest...)
	// The operator/value slots may refine the defaults without extra cost.
	s.setPendingForced(fi)
}

// setPendingForced lazily allocates the pending-value mask: most decodes
// never change a predicate column, so the map usually stays nil.
func (s *Session) setPendingForced(i int) {
	if s.pendingForcedValue == nil {
		s.pendingForcedValue = map[int]bool{}
	}
	s.pendingForcedValue[i] = true
}

// Result returns the perturbed query and the edits consumed. It panics if
// the walk is not complete.
func (s *Session) Result() (*sqlx.Query, int) {
	if s.pos < len(s.queue) {
		panic("core: session incomplete")
	}
	return s.q, s.edits
}

func mustColRef(text string) sqlx.ColumnRef {
	for i := 0; i < len(text); i++ {
		if text[i] == '.' {
			return sqlx.ColumnRef{Table: text[:i], Column: text[i+1:]}
		}
	}
	panic("core: malformed column token " + text)
}

// mustDatum inverts Datum.String: value tokens are rendered SQL
// literals — quoted strings with ” escapes, or bare numbers.
func mustDatum(text string) sqlx.Datum {
	if len(text) >= 2 && text[0] == '\'' && text[len(text)-1] == '\'' {
		return sqlx.StrDatum(strings.ReplaceAll(text[1:len(text)-1], "''", "'"))
	}
	n, err := strconv.ParseFloat(text, 64)
	if err != nil {
		panic("core: malformed value token " + text)
	}
	return sqlx.NumDatum(n)
}
