package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/stats"
)

// benchSchemas are the paper's three schemas at a small scale, each with
// one engine shared by the tests below.
var benchSchemas = sync.OnceValue(func() []benchSchema {
	out := []benchSchema{
		{name: "tpch", s: bench.TPCH(100)},
		{name: "tpcds", s: bench.TPCDS(100)},
		{name: "transaction", s: bench.TRANSACTION(100)},
	}
	for i := range out {
		out[i].e = engine.New(out[i].s)
	}
	return out
})

type benchSchema struct {
	name string
	s    *schema.Schema
	e    *engine.Engine
}

var modes = []engine.Mode{engine.ModeEstimated, engine.ModeTrue}

// checkAgainstReference plans every query under every configuration in
// both modes and compares each plan with the reference planner's. The
// plan-cache path is compared by cost only: its key sorts each table's
// indexes, so configurations that differ only in index order share one
// entry, whose tree may name another index serving a nested loop at the
// same cost.
func checkAgainstReference(t *testing.T, e *engine.Engine, qs []*sqlx.Query, cfgs []schema.Config) int {
	t.Helper()
	plans := 0
	for qi, q := range qs {
		for ci, cfg := range cfgs {
			for _, mode := range modes {
				want, wantErr := e.RefPlan(q, cfg, mode)
				got, err := e.PlanUncached(q, cfg, mode)
				if d := engine.DiffResults(got, err, want, wantErr); d != "" {
					t.Fatalf("query %d, config %d (%v), %s mode: %s\nquery: %s\ngot:\n%v\nwant:\n%v",
						qi, ci, cfg, mode, d, q, got, want)
				}
				cost, err := e.QueryCost(q, cfg, mode)
				if wantErr != nil {
					if err == nil {
						t.Fatalf("cached cost, query %d, config %d, %s mode: no error, want %v", qi, ci, mode, wantErr)
					}
				} else if err != nil || math.Float64bits(cost) != math.Float64bits(want.Cost) {
					t.Fatalf("cached cost, query %d, config %d, %s mode: %v (%v), want %v\nquery: %s",
						qi, ci, mode, cost, err, want.Cost, q)
				}
				plans++
			}
		}
	}
	return plans
}

// TestPlanMatchesReference is the skeleton planner's bit-identity gate:
// generated and perturbed workloads on all three schemas, several
// generator seeds, random configurations, both modes.
func TestPlanMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	plans := 0
	for _, bs := range benchSchemas() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", bs.name, seed), func(t *testing.T) {
				qs := genQueries(bs.s, seed, 48)
				r := rand.New(rand.NewSource(seed))
				cfgs := []schema.Config{nil}
				for len(cfgs) < 24 {
					cfgs = append(cfgs, randomConfig(r, bs.s, qs))
				}
				plans += checkAgainstReference(t, bs.e, qs, cfgs)
			})
		}
	}
	t.Logf("%d plans identical to the reference", plans)
}

// TestPlanMatchesReferenceHandPicked pins branches generated workloads
// rarely reach; each case's root operator proves its branch was taken.
func TestPlanMatchesReferenceHandPicked(t *testing.T) {
	e := benchSchemas()[0].e
	cases := []struct {
		sql  string
		cfg  schema.Config
		root engine.NodeType
	}{
		// A full index scan in ORDER BY order beats the cheapest scan
		// plus a sort.
		{"SELECT lineitem.l_comment FROM lineitem ORDER BY lineitem.l_shipdate",
			schema.Config{{Table: "lineitem", Columns: []string{"l_shipdate"}}}, engine.IndexScan},
		// Sorted input turns GROUP BY into a GroupAggregate.
		{"SELECT orders.o_orderdate, COUNT(orders.o_orderkey) FROM orders GROUP BY orders.o_orderdate",
			schema.Config{{Table: "orders", Columns: []string{"o_orderdate", "o_orderkey"}}}, engine.GroupAggregate},
		// Aggregates, and HAVING, without GROUP BY.
		{"SELECT SUM(lineitem.l_quantity) FROM lineitem WHERE lineitem.l_shipdate < 100", nil, engine.GroupAggregate},
		{"SELECT COUNT(orders.o_orderkey) FROM orders HAVING COUNT(orders.o_orderkey) > 5", nil, engine.GroupAggregate},
		// No join predicate: the cross-product fallback.
		{"SELECT nation.n_name, region.r_name FROM nation, region", nil, engine.NestLoop},
	}
	for _, c := range cases {
		q := sqlx.MustParse(c.sql)
		for _, mode := range modes {
			want, wantErr := e.RefPlan(q, c.cfg, mode)
			got, err := e.PlanUncached(q, c.cfg, mode)
			if d := engine.DiffResults(got, err, want, wantErr); d != "" {
				t.Fatalf("%s, %s mode: %s", c.sql, mode, d)
			}
			if got.Type != c.root {
				t.Errorf("%s, %s mode: root %s, want %s:\n%v", c.sql, mode, got.Type, c.root, got)
			}
		}
	}
}

// TestPlanErrorsMatchReference checks that every error a plan call can
// return is the reference's, on the first call and from the memo.
func TestPlanErrorsMatchReference(t *testing.T) {
	bs := benchSchemas()[1] // tpcds: enough tables for the limit
	var many []sqlx.TableRef
	for _, tb := range bs.s.Tables[:15] {
		many = append(many, sqlx.TableRef{Name: tb.Name})
	}
	first := bs.s.Tables[0]
	sel := []sqlx.SelectItem{{Col: sqlx.ColumnRef{Table: first.Name, Column: first.Columns[0].Name}}}
	cases := map[string]*sqlx.Query{
		"empty select": {From: many[:1]},
		"conjunctions": {Select: sel, From: many[:1], Conjs: []sqlx.Conj{sqlx.ConjAnd}},
		"group by": {
			Select:  append(sel, sqlx.SelectItem{Col: sqlx.ColumnRef{Table: first.Name, Column: first.Columns[1].Name}}),
			From:    many[:1],
			GroupBy: []sqlx.ColumnRef{sel[0].Col},
		},
		"too many tables": {Select: sel, From: many},
		"unknown table": {
			Select: []sqlx.SelectItem{{Col: sqlx.ColumnRef{Table: "no_such_table", Column: "c"}}},
			From:   []sqlx.TableRef{{Name: "no_such_table"}},
		},
		"unknown column": {
			Select: []sqlx.SelectItem{{Col: sqlx.ColumnRef{Table: first.Name, Column: "no_such_column"}}},
			From:   many[:1],
		},
	}
	for name, q := range cases {
		for _, mode := range modes {
			_, wantErr := bs.e.RefPlan(q, nil, mode)
			if wantErr == nil {
				t.Fatalf("%s: the reference planned it", name)
			}
			for call := 0; call < 2; call++ {
				got, err := bs.e.PlanUncached(q, nil, mode)
				if d := engine.DiffResults(got, err, nil, wantErr); d != "" {
					t.Errorf("%s, %s mode, call %d: %s", name, mode, call, d)
				}
			}
		}
	}
}

// FuzzPlanMatchesReference plans a generated, perturbed workload under
// random configurations chosen by the fuzzer's seeds.
func FuzzPlanMatchesReference(f *testing.F) {
	f.Add(uint8(0), int64(1), int64(1))
	f.Add(uint8(1), int64(7), int64(3))
	f.Add(uint8(2), int64(42), int64(9))
	f.Fuzz(func(t *testing.T, schemaIdx uint8, genSeed, cfgSeed int64) {
		all := benchSchemas()
		bs := all[int(schemaIdx)%len(all)]
		qs := genQueries(bs.s, genSeed, 8)
		r := rand.New(rand.NewSource(cfgSeed))
		cfgs := []schema.Config{randomConfig(r, bs.s, qs), randomConfig(r, bs.s, qs), randomConfig(r, bs.s, qs)}
		checkAgainstReference(t, bs.e, qs, cfgs)
	})
}

// TestSkeletonKeyedByEngine plans one query object on two engines whose
// estimation-error profiles differ: each must get its own skeleton.
func TestSkeletonKeyedByEngine(t *testing.T) {
	s := benchSchemas()[0].s
	exact := engine.NewWithError(s, stats.EstimationError{SkewDampening: 1})
	biased := engine.NewWithError(s, stats.EstimationError{SkewDampening: 0.2, NDVAmp: 0.9})
	qs := genQueries(s, 11, 32)
	r := rand.New(rand.NewSource(11))
	cfgs := []schema.Config{nil, randomConfig(r, s, qs), randomConfig(r, s, qs)}
	differ := 0
	for _, q := range qs {
		for _, cfg := range cfgs {
			for _, e := range []*engine.Engine{exact, biased, exact} {
				want, wantErr := e.RefPlan(q, cfg, engine.ModeEstimated)
				got, err := e.PlanUncached(q, cfg, engine.ModeEstimated)
				if d := engine.DiffResults(got, err, want, wantErr); d != "" {
					t.Fatalf("query %s: %s", q, d)
				}
			}
			a, _ := exact.PlanUncached(q, cfg, engine.ModeEstimated)
			b, _ := biased.PlanUncached(q, cfg, engine.ModeEstimated)
			if a != nil && b != nil && a.Cost != b.Cost {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("the two error profiles never priced a plan differently; the test proves nothing")
	}
}

// TestPlannedQueryDoesNotPinEngine: a query's memoized skeletons must
// not keep the engine that built them (and its plan cache) reachable.
func TestPlannedQueryDoesNotPinEngine(t *testing.T) {
	s := benchSchemas()[0].s
	qs := genQueries(s, 5, 16)
	freed := make(chan struct{})
	func() {
		e := engine.New(s)
		runtime.SetFinalizer(e, func(*engine.Engine) { close(freed) })
		for _, q := range qs {
			for _, mode := range modes {
				if _, err := e.Plan(q, nil, mode); err != nil {
					t.Fatal(err)
				}
			}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(qs)
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("engine still reachable after GC: a planned query pins it")
		}
	}
}

// TestConcurrentSkeletonBuild races many goroutines to plan the same
// fresh query under different configurations; every plan must match the
// reference. ci.sh runs it under -race -count=10.
func TestConcurrentSkeletonBuild(t *testing.T) {
	bs := benchSchemas()[0]
	qs := genQueries(bs.s, 21, 12)
	r := rand.New(rand.NewSource(21))
	cfgs := make([]schema.Config, 16)
	for i := range cfgs {
		cfgs[i] = randomConfig(r, bs.s, qs)
	}
	for qi, q := range qs {
		for _, mode := range modes {
			fresh := q.Clone()
			type result struct {
				p   *engine.PlanNode
				err error
			}
			results := make([]result, len(cfgs))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i, cfg := range cfgs {
				wg.Add(1)
				go func(i int, cfg schema.Config) {
					defer wg.Done()
					<-start
					p, err := bs.e.PlanUncached(fresh, cfg, mode)
					results[i] = result{p, err}
				}(i, cfg)
			}
			close(start)
			wg.Wait()
			for i, cfg := range cfgs {
				want, wantErr := bs.e.RefPlan(q, cfg, mode)
				if d := engine.DiffResults(results[i].p, results[i].err, want, wantErr); d != "" {
					t.Fatalf("query %d, config %d, %s mode: %s", qi, i, mode, d)
				}
			}
		}
	}
}
