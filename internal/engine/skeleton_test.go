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
// both modes and checks each result against the reference planner's
// (checkPlan). Each (query, configuration) is checked once more with
// indexes the inert rule leaves out of the cache keys inserted at random
// positions, before or after the original: the variant's cached cost and
// tree come from the entry the two share, and must still be fresh
// planning's for the variant. It returns the number of plans checked and
// of inert indexes inserted.
func checkAgainstReference(t *testing.T, e *engine.Engine, s *schema.Schema, r *rand.Rand, qs []*sqlx.Query, cfgs []schema.Config) (plans, inert int) {
	t.Helper()
	for qi, q := range qs {
		for ci, cfg := range cfgs {
			variant, n := inertVariant(r, e, s, q, cfg)
			inert += n
			order := []schema.Config{cfg, variant}
			if r.Intn(2) == 0 {
				order[0], order[1] = variant, cfg
			}
			for _, c := range order {
				for _, mode := range modes {
					checkPlan(t, e, q, c, mode, fmt.Sprintf("query %d, config %d (%v)", qi, ci, c))
					plans++
				}
			}
		}
	}
	return plans, inert
}

// checkPlan compares the uncached tree, the cost path's planCost, the
// cached cost and the cached tree of q under cfg with the reference
// planner's plan: trees node by node, costs by bits, errors by text.
func checkPlan(t *testing.T, e *engine.Engine, q *sqlx.Query, cfg schema.Config, mode engine.Mode, what string) {
	t.Helper()
	want, wantErr := e.RefPlan(q, cfg, mode)
	got, err := e.PlanUncached(q, cfg, mode)
	if d := engine.DiffResults(got, err, want, wantErr); d != "" {
		t.Fatalf("%s, %s mode: %s\nquery: %s\ngot:\n%v\nwant:\n%v", what, mode, d, q, got, want)
	}
	costs := map[string]func() (float64, error){
		"planCost":    func() (float64, error) { return e.PlanCostUncached(q, cfg, mode) },
		"cached cost": func() (float64, error) { return e.QueryCost(q, cfg, mode) },
	}
	for name, cost := range costs {
		c, err := cost()
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s, %s, %s mode: error %v, want %v", name, what, mode, err, wantErr)
			}
		} else if err != nil || math.Float64bits(c) != math.Float64bits(want.Cost) {
			t.Fatalf("%s, %s, %s mode: %v (%v), want %v\nquery: %s", name, what, mode, c, err, want.Cost, q)
		}
	}
	cached, err := e.Plan(q, cfg, mode)
	if d := engine.DiffResults(cached, err, want, wantErr); d != "" {
		t.Fatalf("cached tree, %s, %s mode: %s\nquery: %s\ngot:\n%v\nwant:\n%v", what, mode, d, q, cached, want)
	}
}

// inertVariant returns cfg with up to three random indexes on q's
// tables inserted at random positions, each one the inert rule leaves
// out of q's cache keys, and how many it inserted.
func inertVariant(r *rand.Rand, e *engine.Engine, s *schema.Schema, q *sqlx.Query, cfg schema.Config) (schema.Config, int) {
	variant := cfg.Clone()
	n := 0
	for try := 0; try < 6 && n < 3; try++ {
		ix := randomIndexOn(r, s, q)
		if !e.Inert(q, schema.Config{ix})[0] {
			continue
		}
		at := r.Intn(len(variant) + 1)
		variant = append(variant[:at], append(schema.Config{ix}, variant[at:]...)...)
		n++
	}
	return variant, n
}

// randomIndexOn draws a 1- or 2-column index on one of q's tables.
func randomIndexOn(r *rand.Rand, s *schema.Schema, q *sqlx.Query) schema.Index {
	tables := q.Tables()
	tb := s.Table(tables[r.Intn(len(tables))])
	ix := schema.Index{Table: tb.Name, Columns: []string{tb.Columns[r.Intn(len(tb.Columns))].Name}}
	if c := tb.Columns[r.Intn(len(tb.Columns))].Name; r.Intn(2) == 0 && c != ix.Columns[0] {
		ix.Columns = append(ix.Columns, c)
	}
	return ix
}

// TestPlanMatchesReference is the skeleton planner's bit-identity gate:
// generated and perturbed workloads on all three schemas, several
// generator seeds, random configurations, both modes, each configuration
// also with inert indexes inserted.
func TestPlanMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	plans, inert := 0, 0
	for _, bs := range benchSchemas() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", bs.name, seed), func(t *testing.T) {
				qs := genQueries(bs.s, seed, 48)
				r := rand.New(rand.NewSource(seed))
				cfgs := []schema.Config{nil}
				for len(cfgs) < 24 {
					cfgs = append(cfgs, randomConfig(r, bs.s, qs))
				}
				p, n := checkAgainstReference(t, bs.e, bs.s, r, qs, cfgs)
				plans += p
				inert += n
			})
		}
	}
	if inert == 0 {
		t.Fatal("no inert index was inserted; the variants prove nothing")
	}
	t.Logf("%d plans identical to the reference, %d inert indexes inserted", plans, inert)
}

// TestInertIndexNeverInPlan: no index the inert rule leaves out of the
// cache keys appears in a fresh plan of the generated sets, in either
// mode, under configurations padded with random indexes on each query's
// tables.
func TestInertIndexNeverInPlan(t *testing.T) {
	inert, kept := 0, 0
	for _, bs := range benchSchemas() {
		for _, seed := range []int64{1, 2, 3} {
			qs := genQueries(bs.s, seed, 48)
			r := rand.New(rand.NewSource(seed))
			cfgs := []schema.Config{nil}
			for len(cfgs) < 16 {
				cfgs = append(cfgs, randomConfig(r, bs.s, qs))
			}
			for _, q := range qs {
				for _, cfg := range cfgs {
					cfg = cfg.Clone()
					for i := 0; i < 4; i++ {
						cfg = append(cfg, randomIndexOn(r, bs.s, q))
					}
					verdicts := bs.e.Inert(q, cfg)
					for _, mode := range modes {
						p, err := bs.e.PlanUncached(q, cfg, mode)
						if err != nil {
							continue
						}
						used := map[string]bool{}
						p.Walk(func(n *engine.PlanNode) {
							if n.Index != nil {
								used[n.Index.Key()] = true
							}
						})
						for k, ix := range cfg {
							if !verdicts[k] {
								kept++
								continue
							}
							inert++
							if used[ix.Key()] {
								t.Fatalf("%s mode: inert index %s is in the plan of %s under %v:\n%v", mode, ix.Key(), q, cfg, p)
							}
						}
					}
				}
			}
		}
	}
	if inert == 0 || kept == 0 {
		t.Fatalf("%d inert and %d kept verdicts; the test proves nothing", inert, kept)
	}
	t.Logf("%d inert verdicts, none in a plan; %d indexes kept", inert, kept)
}

// exactTreeSQL joins one customer to its orders by nested loop.
const exactTreeSQL = "SELECT customer.c_name, orders.o_totalprice FROM customer, orders " +
	"WHERE customer.c_custkey = orders.o_custkey AND customer.c_custkey = 7"

// TestPlanMatchesReferenceHandPicked pins branches generated workloads
// rarely reach; each case's root operator proves its branch was taken.
// The cases share one engine and run in order, so a case's cached plan
// may come from an entry an earlier case filled.
func TestPlanMatchesReferenceHandPicked(t *testing.T) {
	e := benchSchemas()[0].e
	cases := []struct {
		sql  string
		cfg  schema.Config
		root engine.NodeType
	}{
		// A full index scan in ORDER BY order beats the cheapest scan
		// plus a sort. The index matches no predicate and does not
		// cover, so only the order it provides keeps it in the cache
		// key: planned after the query without it, it must not get
		// that plan.
		{"SELECT lineitem.l_comment FROM lineitem ORDER BY lineitem.l_shipdate", nil, engine.Sort},
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
		// The nested loop looks orders up through the first index in cfg
		// order led by o_custkey, so the two orders of one configuration
		// plan different trees at one cost; the second must not be served
		// the first's cached tree.
		{exactTreeSQL, schema.Config{
			{Table: "orders", Columns: []string{"o_custkey", "o_orderdate"}},
			{Table: "orders", Columns: []string{"o_custkey"}},
		}, engine.NestLoop},
		{exactTreeSQL, schema.Config{
			{Table: "orders", Columns: []string{"o_custkey"}},
			{Table: "orders", Columns: []string{"o_custkey", "o_orderdate"}},
		}, engine.NestLoop},
	}
	for _, c := range cases {
		q := sqlx.MustParse(c.sql)
		for _, mode := range modes {
			checkPlan(t, e, q, c.cfg, mode, c.sql)
			got, _ := e.PlanUncached(q, c.cfg, mode)
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
		checkAgainstReference(t, bs.e, bs.s, r, qs, cfgs)
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
