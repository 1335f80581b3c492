package engine_test

import (
	"math/rand"
	"testing"

	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/workload"
)

// The planner micro-benchmarks, and the query and configuration
// generators they share with the reference tests. They reach the
// planner only through PlanUncached, so they also run against older
// planners.

// planSink keeps the benchmarks' plans live.
var planSink *engine.PlanNode

// planBenchFixture is 64 generated TPC-H queries and 16 random
// configurations over them.
func planBenchFixture() (*engine.Engine, []*sqlx.Query, []schema.Config) {
	s := bench.TPCH(100)
	qs := workload.NewGenerator(s, 1, 16).Workload(64).Queries()
	r := rand.New(rand.NewSource(1))
	cfgs := make([]schema.Config, 16)
	for i := range cfgs {
		cfgs[i] = randomConfig(r, s, qs)
	}
	return engine.New(s), qs, cfgs
}

// BenchmarkPlanCold plans a fresh clone of a generated query per op, so
// every op analyzes the query from scratch (and builds its skeleton).
func BenchmarkPlanCold(b *testing.B) {
	e, qs, cfgs := planBenchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)].Clone()
		p, err := e.PlanUncached(q, cfgs[i%len(cfgs)], engine.ModeEstimated)
		if err != nil {
			b.Fatal(err)
		}
		planSink = p
	}
}

// BenchmarkPlanWarmQuery plans 64 already-planned queries under rotating
// configurations: the advisor's what-if loop on a plan-cache miss.
func BenchmarkPlanWarmQuery(b *testing.B) {
	e, qs, cfgs := planBenchFixture()
	for _, q := range qs {
		if _, err := e.PlanUncached(q, nil, engine.ModeEstimated); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cfgs[(i/len(qs))%len(cfgs)]
		p, err := e.PlanUncached(qs[i%len(qs)], cfg, engine.ModeEstimated)
		if err != nil {
			b.Fatal(err)
		}
		planSink = p
	}
}

// genQueries draws n queries from a seeded generator over s and perturbs
// about half of them (see perturb), so the planner also sees OR groups,
// "!=", out-of-domain literals, disconnected and redundant joins,
// aggregation, HAVING and orders spanning tables.
func genQueries(s *schema.Schema, seed int64, n int) []*sqlx.Query {
	g := workload.NewGenerator(s, seed, 12)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	qs := make([]*sqlx.Query, n)
	for i := range qs {
		qs[i] = g.Query()
		if r.Intn(2) == 0 {
			perturb(r, s, qs[i])
		}
	}
	return qs
}

func perturb(r *rand.Rand, s *schema.Schema, q *sqlx.Query) {
	tables := q.Tables()
	anyCol := func(table string) sqlx.ColumnRef {
		cols := s.Table(table).Columns
		return sqlx.ColumnRef{Table: table, Column: cols[r.Intn(len(cols))].Name}
	}
	addFilter := func(p sqlx.Predicate, conj sqlx.Conj) {
		if len(q.Filters) > 0 {
			q.Conjs = append(q.Conjs, conj)
		}
		q.Filters = append(q.Filters, p)
	}
	for i := range q.Conjs {
		if r.Intn(4) == 0 {
			q.Conjs[i] = sqlx.ConjOr
		}
	}
	for i := range q.Filters {
		switch r.Intn(8) {
		case 0:
			q.Filters[i].Op = sqlx.OpNe
		case 1:
			q.Filters[i].Op = sqlx.Operators[r.Intn(len(sqlx.Operators))]
		case 2:
			if q.Filters[i].Val.IsNum {
				q.Filters[i].Val = sqlx.StrDatum("no_such_value")
			} else {
				q.Filters[i].Val = sqlx.NumDatum(7)
			}
		}
	}
	if len(q.Filters) > 0 && r.Intn(3) == 0 {
		// A second predicate on a filtered column: index matching takes
		// the last equality, else the first range.
		p := q.Filters[r.Intn(len(q.Filters))]
		p.Op = []string{sqlx.OpEq, sqlx.OpLt, sqlx.OpGe}[r.Intn(3)]
		addFilter(p, sqlx.ConjAnd)
	}
	if len(tables) > 1 && r.Intn(3) == 0 {
		// An OR-group spanning two tables.
		a, b := anyCol(tables[0]), anyCol(tables[len(tables)-1])
		addFilter(sqlx.Predicate{Col: a, Op: sqlx.OpLt, Val: sqlx.NumDatum(10)}, sqlx.ConjAnd)
		addFilter(sqlx.Predicate{Col: b, Op: sqlx.OpEq, Val: sqlx.NumDatum(3)}, sqlx.ConjOr)
	}
	if len(q.Joins) > 0 {
		switch r.Intn(6) {
		case 0: // disconnected join graph
			k := r.Intn(len(q.Joins))
			q.Joins = append(q.Joins[:k:k], q.Joins[k+1:]...)
		case 1: // the same pair joined twice, on other columns
			j := q.Joins[r.Intn(len(q.Joins))]
			q.Joins = append(q.Joins, sqlx.JoinPred{Left: anyCol(j.Right.Table), Right: anyCol(j.Left.Table)})
		case 2: // a predicate within one table
			t := tables[r.Intn(len(tables))]
			q.Joins = append(q.Joins, sqlx.JoinPred{Left: anyCol(t), Right: anyCol(t)})
		}
	}
	switch r.Intn(6) {
	case 0:
		q.OrderBy = append(q.OrderBy, anyCol(tables[r.Intn(len(tables))]))
	case 1: // grouped, maybe with HAVING
		if len(q.GroupBy) == 0 {
			for _, it := range q.Select {
				if it.Agg == "" {
					q.GroupBy = append(q.GroupBy, it.Col)
				}
			}
			q.Select = append(q.Select, sqlx.SelectItem{Agg: sqlx.AggSum, Col: anyCol(tables[0])})
		}
		fallthrough
	case 2: // HAVING, or an aggregate, without GROUP BY unless case 1 added one
		if r.Intn(2) == 0 {
			q.Having = &sqlx.HavingPred{Agg: sqlx.AggCount, Col: anyCol(tables[0]), Op: sqlx.OpGt, Val: sqlx.NumDatum(1)}
		} else if len(q.GroupBy) == 0 {
			q.Select = append(q.Select, sqlx.SelectItem{Agg: sqlx.AggMax, Col: anyCol(tables[0])})
		}
	}
}

// randomConfig mixes 1- and 2-column indexes on the queries' tables, led
// by join, filter, order or arbitrary columns, plus a few on tables the
// queries never touch. It appends without deduplication, so several
// indexes may share a leading column and the first in cfg order matters.
func randomConfig(r *rand.Rand, s *schema.Schema, qs []*sqlx.Query) schema.Config {
	var lead []sqlx.ColumnRef
	for _, q := range qs {
		lead = append(lead, q.JoinColumns()...)
		lead = append(lead, q.FilterColumns()...)
		lead = append(lead, q.OrderBy...)
	}
	var cfg schema.Config
	for n := r.Intn(14); len(cfg) < n; {
		var first sqlx.ColumnRef
		if len(lead) > 0 && r.Intn(4) != 0 {
			first = lead[r.Intn(len(lead))]
		} else {
			t := s.Tables[r.Intn(len(s.Tables))]
			first = sqlx.ColumnRef{Table: t.Name, Column: t.Columns[r.Intn(len(t.Columns))].Name}
		}
		ix := schema.Index{Table: first.Table, Columns: []string{first.Column}}
		if r.Intn(2) == 0 {
			cols := s.Table(first.Table).Columns
			if c := cols[r.Intn(len(cols))].Name; c != first.Column {
				ix.Columns = append(ix.Columns, c)
			}
		}
		cfg = append(cfg, ix)
	}
	return cfg
}
