package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/stats"
)

// testSchema builds a small orders/customers/items star schema.
func testSchema() *schema.Schema {
	orders := schema.NewTable("orders", 500_000, []schema.Column{
		{Name: "id", Type: schema.IntCol, Width: 8, Dist: stats.Dist{NDV: 500_000, Min: 0, Max: 499_999}},
		{Name: "cust_id", Type: schema.IntCol, Width: 8, Dist: stats.Dist{NDV: 20_000, Min: 0, Max: 19_999}},
		{Name: "item_id", Type: schema.IntCol, Width: 8, Dist: stats.Dist{NDV: 5_000, Min: 0, Max: 4_999}},
		{Name: "status", Type: schema.StringCol, Width: 12, Dist: stats.Dist{NDV: 6, Min: 0, Max: 5, Skew: 1}},
		{Name: "total", Type: schema.FloatCol, Width: 8, Dist: stats.Dist{NDV: 100_000, Min: 0, Max: 99_999}},
		{Name: "odate", Type: schema.DateCol, Width: 8, Dist: stats.Dist{NDV: 2_000, Min: 0, Max: 1_999}},
	})
	customers := schema.NewTable("customers", 20_000, []schema.Column{
		{Name: "id", Type: schema.IntCol, Width: 8, Dist: stats.Dist{NDV: 20_000, Min: 0, Max: 19_999}},
		{Name: "region", Type: schema.StringCol, Width: 16, Dist: stats.Dist{NDV: 25, Min: 0, Max: 24}},
		{Name: "segment", Type: schema.StringCol, Width: 16, Dist: stats.Dist{NDV: 5, Min: 0, Max: 4}},
	})
	items := schema.NewTable("items", 5_000, []schema.Column{
		{Name: "id", Type: schema.IntCol, Width: 8, Dist: stats.Dist{NDV: 5_000, Min: 0, Max: 4_999}},
		{Name: "price", Type: schema.FloatCol, Width: 8, Dist: stats.Dist{NDV: 2_000, Min: 1, Max: 2_000}},
		{Name: "category", Type: schema.StringCol, Width: 16, Dist: stats.Dist{NDV: 40, Min: 0, Max: 39, Skew: 0.8}},
	})
	s := schema.New("teststar", []*schema.Table{orders, customers, items}, []schema.JoinEdge{
		{LeftTable: "orders", LeftColumn: "cust_id", RightTable: "customers", RightColumn: "id"},
		{LeftTable: "orders", LeftColumn: "item_id", RightTable: "items", RightColumn: "id"},
	})
	s.SetCorrelation("orders", "status", "total", 0.7)
	return s
}

func mustCost(t *testing.T, e *Engine, sql string, cfg schema.Config, mode Mode) float64 {
	t.Helper()
	c, err := e.QueryCost(sqlx.MustParse(sql), cfg, mode)
	if err != nil {
		t.Fatalf("QueryCost(%s): %v", sql, err)
	}
	return c
}

func TestSeqScanBaseline(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.total FROM orders WHERE orders.total > 50000")
	p, err := e.Plan(q, nil, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	if p.Type != SeqScan {
		t.Errorf("plan without indexes should be SeqScan, got %s", p.Type)
	}
	if p.Rows <= 0 || p.Cost <= 0 {
		t.Errorf("non-positive rows/cost: %v %v", p.Rows, p.Cost)
	}
}

func TestSelectiveIndexBeatsSeqScan(t *testing.T) {
	e := New(testSchema())
	sql := "SELECT orders.total FROM orders WHERE orders.cust_id = 42"
	ix := schema.Index{Table: "orders", Columns: []string{"cust_id"}}
	without := mustCost(t, e, sql, nil, ModeEstimated)
	with := mustCost(t, e, sql, schema.Config{ix}, ModeEstimated)
	if with >= without {
		t.Errorf("selective index did not reduce cost: %v >= %v", with, without)
	}
	p, _ := e.Plan(sqlx.MustParse(sql), schema.Config{ix}, ModeEstimated)
	if p.Type != IndexScan {
		t.Errorf("expected IndexScan, got:\n%s", p)
	}
}

func TestCoveringIndexOnlyScan(t *testing.T) {
	e := New(testSchema())
	sql := "SELECT orders.total FROM orders WHERE orders.cust_id = 42"
	narrow := schema.Index{Table: "orders", Columns: []string{"cust_id"}}
	covering := schema.Index{Table: "orders", Columns: []string{"cust_id", "total"}}
	cNarrow := mustCost(t, e, sql, schema.Config{narrow}, ModeEstimated)
	cCover := mustCost(t, e, sql, schema.Config{covering}, ModeEstimated)
	if cCover >= cNarrow {
		t.Errorf("covering index should beat heap-fetching index: %v >= %v", cCover, cNarrow)
	}
	p, _ := e.Plan(sqlx.MustParse(sql), schema.Config{covering}, ModeEstimated)
	if p.Type != IndexOnlyScan {
		t.Errorf("expected IndexOnlyScan, got:\n%s", p)
	}
}

func TestUnselectivePredicatePrefersSeqScan(t *testing.T) {
	e := New(testSchema())
	// Non-covering index on a predicate matching ~all rows: the heap
	// fetches make the index strictly worse than a sequential scan.
	sql := "SELECT orders.id FROM orders WHERE orders.total >= 1"
	ix := schema.Index{Table: "orders", Columns: []string{"total"}}
	p, err := e.Plan(sqlx.MustParse(sql), schema.Config{ix}, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	if p.Type != SeqScan {
		t.Errorf("near-full-table predicate should use SeqScan, got %s", p.Type)
	}
}

func TestMultiColumnPrefixMatching(t *testing.T) {
	e := New(testSchema())
	sql := "SELECT orders.id FROM orders WHERE orders.cust_id = 5 AND orders.odate < 100"
	one := schema.Config{{Table: "orders", Columns: []string{"cust_id"}}}
	two := schema.Config{{Table: "orders", Columns: []string{"cust_id", "odate"}}}
	cOne := mustCost(t, e, sql, one, ModeEstimated)
	cTwo := mustCost(t, e, sql, two, ModeEstimated)
	if cTwo >= cOne {
		t.Errorf("two-column prefix match should be cheaper: %v >= %v", cTwo, cOne)
	}
	// A range on the second column without the first cannot match.
	q3 := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.odate < 100")
	p3, _ := e.Plan(q3, schema.Config{{Table: "orders", Columns: []string{"status", "odate"}}}, ModeEstimated)
	if p3.Type != SeqScan {
		t.Errorf("non-prefix predicate must not use the index, got %s", p3.Type)
	}
}

func TestOrConjunctionDisablesIndex(t *testing.T) {
	e := New(testSchema())
	ix := schema.Index{Table: "orders", Columns: []string{"cust_id"}}
	cfg := schema.Config{ix}
	and := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.cust_id = 5 AND orders.status = 'status_1'")
	or := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.cust_id = 5 OR orders.status = 'status_1'")
	pAnd, _ := e.Plan(and, cfg, ModeEstimated)
	pOr, _ := e.Plan(or, cfg, ModeEstimated)
	if pAnd.Type != IndexScan {
		t.Errorf("AND query should use index, got %s", pAnd.Type)
	}
	if pOr.Type != SeqScan {
		t.Errorf("OR query must fall back to SeqScan, got %s", pOr.Type)
	}
}

func TestNotEqualIsNotSargable(t *testing.T) {
	e := New(testSchema())
	ix := schema.Index{Table: "orders", Columns: []string{"cust_id"}}
	q := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.cust_id != 5")
	p, _ := e.Plan(q, schema.Config{ix}, ModeEstimated)
	if p.Type != SeqScan {
		t.Errorf("!= predicate must not use the index, got %s", p.Type)
	}
}

func TestOrderByIndexAvoidsSort(t *testing.T) {
	e := New(testSchema())
	sql := "SELECT orders.odate FROM orders ORDER BY orders.odate"
	q := sqlx.MustParse(sql)
	pNo, _ := e.Plan(q, nil, ModeEstimated)
	hasSort := false
	pNo.Walk(func(n *PlanNode) {
		if n.Type == Sort {
			hasSort = true
		}
	})
	if !hasSort {
		t.Fatalf("plan without index must sort:\n%s", pNo)
	}
	ix := schema.Index{Table: "orders", Columns: []string{"odate"}}
	pIx, _ := e.Plan(q, schema.Config{ix}, ModeEstimated)
	pIx.Walk(func(n *PlanNode) {
		if n.Type == Sort {
			t.Errorf("ordered index scan should avoid Sort:\n%s", pIx)
		}
	})
	if pIx.Cost >= pNo.Cost {
		t.Errorf("order-providing index should be cheaper: %v >= %v", pIx.Cost, pNo.Cost)
	}
}

func TestJoinPlansAndIndexNL(t *testing.T) {
	e := New(testSchema())
	sql := "SELECT customers.region FROM orders, customers " +
		"WHERE orders.cust_id = customers.id AND orders.odate = 17"
	q := sqlx.MustParse(sql)
	pHash, err := e.Plan(q, nil, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	joinSeen := false
	pHash.Walk(func(n *PlanNode) {
		if n.Type == HashJoin || n.Type == MergeJoin || n.Type == NestLoop {
			joinSeen = true
		}
	})
	if !joinSeen {
		t.Fatalf("no join operator:\n%s", pHash)
	}
	// An index on customers.id enables an indexed nested loop that beats
	// the hash join when the outer side is tiny.
	cfg := schema.Config{
		{Table: "customers", Columns: []string{"id"}},
		{Table: "orders", Columns: []string{"odate"}},
	}
	pNL, err := e.Plan(q, cfg, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	if pNL.Cost >= pHash.Cost {
		t.Errorf("indexes should reduce join cost: %v >= %v", pNL.Cost, pHash.Cost)
	}
}

func TestThreeWayJoin(t *testing.T) {
	e := New(testSchema())
	sql := "SELECT items.category, COUNT(orders.id) FROM orders, customers, items " +
		"WHERE orders.cust_id = customers.id AND orders.item_id = items.id " +
		"AND customers.region = 'region_3' GROUP BY items.category"
	q := sqlx.MustParse(sql)
	p, err := e.Plan(q, nil, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	scans := 0
	p.Walk(func(n *PlanNode) {
		if n.Type == SeqScan || n.Type == IndexScan || n.Type == IndexOnlyScan {
			scans++
		}
	})
	if scans != 3 {
		t.Errorf("three-way join should have 3 scans, got %d:\n%s", scans, p)
	}
	if p.Type != HashAggregate && p.Type != GroupAggregate {
		t.Errorf("GROUP BY query should end in aggregation, got %s", p.Type)
	}
}

func TestAggregateWithoutGroupBy(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT COUNT(orders.id) FROM orders WHERE orders.total > 90000")
	p, err := e.Plan(q, nil, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != 1 {
		t.Errorf("scalar aggregate should return 1 row, got %v", p.Rows)
	}
	if p.Type != GroupAggregate {
		t.Errorf("expected aggregate root, got %s", p.Type)
	}
}

func TestHavingReducesRows(t *testing.T) {
	e := New(testSchema())
	base := sqlx.MustParse("SELECT COUNT(orders.id), orders.status FROM orders GROUP BY orders.status")
	having := sqlx.MustParse("SELECT COUNT(orders.id), orders.status FROM orders GROUP BY orders.status HAVING COUNT(orders.id) > 10")
	pb, _ := e.Plan(base, nil, ModeEstimated)
	ph, _ := e.Plan(having, nil, ModeEstimated)
	if ph.Rows >= pb.Rows {
		t.Errorf("HAVING should reduce output rows: %v >= %v", ph.Rows, pb.Rows)
	}
}

func TestTrueVsEstimatedDiverge(t *testing.T) {
	e := New(testSchema())
	// Correlated predicates: estimated mode multiplies selectivities
	// (independence), true mode respects the recorded correlation, so the
	// two modes must disagree on cardinality.
	q := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.status = 'status_0' AND orders.total <= 20000")
	pe, _ := e.Plan(q, nil, ModeEstimated)
	pt, _ := e.Plan(q, nil, ModeTrue)
	if pe.Rows == pt.Rows {
		t.Errorf("correlated predicates should diverge between modes: est=%v true=%v", pe.Rows, pt.Rows)
	}
}

func TestRuntimeCostDeterministic(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.cust_id = 7")
	a, err := e.RuntimeCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := e.RuntimeCost(q, nil)
	if a != b {
		t.Errorf("RuntimeCost not deterministic: %v vs %v", a, b)
	}
	truth, _ := e.QueryCost(q, nil, ModeTrue)
	if a < truth*0.9 || a > truth*1.1 {
		t.Errorf("runtime noise too large: %v vs %v", a, truth)
	}
}

func TestUnknownObjectsRejected(t *testing.T) {
	e := New(testSchema())
	if _, err := e.Plan(sqlx.MustParse("SELECT nope.x FROM nope"), nil, ModeEstimated); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := e.Plan(sqlx.MustParse("SELECT orders.nope FROM orders"), nil, ModeEstimated); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestPlanFeaturesShape(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT customers.region FROM orders, customers " +
		"WHERE orders.cust_id = customers.id AND orders.status = 'status_1' ORDER BY customers.region")
	p, err := e.Plan(q, nil, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	f := PlanFeatures(p)
	if len(f) != FeatureLen {
		t.Fatalf("feature length %d, want %d", len(f), FeatureLen)
	}
	nonzero := 0
	for _, v := range f {
		if v != 0 {
			nonzero++
		}
		if v < 0 {
			t.Errorf("negative feature %v", v)
		}
	}
	if nonzero == 0 {
		t.Error("all features zero")
	}
	// Channel 0 (cost-sum) of the root's type must include the root cost.
	if f[int(p.Type)] < p.Cost {
		t.Errorf("cost-sum channel %v misses root cost %v", f[int(p.Type)], p.Cost)
	}
}

func TestPlanHeights(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT customers.region FROM orders, customers WHERE orders.cust_id = customers.id")
	p, _ := e.Plan(q, nil, ModeEstimated)
	p.Walk(func(n *PlanNode) {
		if len(n.Children) == 0 && n.Height != 1 {
			t.Errorf("leaf height %d", n.Height)
		}
		for _, c := range n.Children {
			if n.Height <= c.Height {
				t.Errorf("parent height %d not above child %d", n.Height, c.Height)
			}
		}
	})
}

func TestPlanCaching(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.cust_id = 7")
	p1, _ := e.Plan(q, nil, ModeEstimated)
	p2, _ := e.Plan(q, nil, ModeEstimated)
	if p1 != p2 {
		t.Error("identical calls should hit the plan cache")
	}
	e.ClearCache()
	p3, _ := e.Plan(q, nil, ModeEstimated)
	if p1 == p3 {
		t.Error("ClearCache did not clear")
	}
	if p1.Cost != p3.Cost {
		t.Error("re-planned cost differs")
	}
}

// TestClearCacheDropsCosts: ClearCache empties the cost map as well as
// the tree map, so the next QueryCost and Plan are misses, priced as
// before.
func TestClearCacheDropsCosts(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.cust_id = 7")
	cost := func() float64 {
		c, err := e.QueryCost(q, nil, ModeEstimated)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := cost()
	cost()
	if _, err := e.Plan(q, nil, ModeEstimated); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Entries != 2 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("before ClearCache: %+v, want 2 entries (a cost and a tree), 1 hit, 2 misses", st)
	}
	e.ClearCache()
	if st := e.CacheStats(); st.Entries != 0 {
		t.Fatalf("ClearCache left %d entries", st.Entries)
	}
	if c2 := cost(); math.Float64bits(c2) != math.Float64bits(c1) {
		t.Fatalf("cost after ClearCache %v, want %v", c2, c1)
	}
	if _, err := e.Plan(q, nil, ModeEstimated); err != nil {
		t.Fatal(err)
	}
	if after := e.CacheStats(); after.Hits != st.Hits || after.Misses != st.Misses+2 {
		t.Fatalf("after ClearCache: %d hits and %d misses, want %d and %d", after.Hits, after.Misses, st.Hits, st.Misses+2)
	}
}

// TestQuickMoreIndexesNeverHurt checks the fundamental what-if invariant
// the advisors rely on: adding an index never increases any query's
// estimated cost (the optimizer simply ignores useless indexes).
func TestQuickMoreIndexesNeverHurt(t *testing.T) {
	s := testSchema()
	e := New(s)
	queries := []string{
		"SELECT orders.total FROM orders WHERE orders.cust_id = 42",
		"SELECT orders.id FROM orders WHERE orders.status = 'status_1' AND orders.total < 500",
		"SELECT customers.region FROM orders, customers WHERE orders.cust_id = customers.id AND orders.odate = 3",
		"SELECT items.category, COUNT(orders.id) FROM orders, items WHERE orders.item_id = items.id GROUP BY items.category",
		"SELECT orders.odate FROM orders ORDER BY orders.odate, orders.total",
	}
	var pool []schema.Index
	for _, tb := range s.Tables {
		for _, c := range tb.Columns {
			pool = append(pool, schema.Index{Table: tb.Name, Columns: []string{c.Name}})
		}
	}
	pool = append(pool,
		schema.Index{Table: "orders", Columns: []string{"cust_id", "total"}},
		schema.Index{Table: "orders", Columns: []string{"status", "odate"}},
		schema.Index{Table: "orders", Columns: []string{"odate", "total"}},
	)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var cfg schema.Config
		for _, ix := range pool {
			if r.Intn(3) == 0 {
				cfg = cfg.Add(ix)
			}
		}
		extra := cfg.Add(pool[r.Intn(len(pool))])
		for _, sql := range queries {
			q := sqlx.MustParse(sql)
			c1, err1 := e.QueryCost(q, cfg, ModeEstimated)
			c2, err2 := e.QueryCost(q, extra, ModeEstimated)
			if err1 != nil || err2 != nil {
				return false
			}
			if c2 > c1+1e-9 {
				t.Logf("index hurt: %s cfg=%s extra=%s %v -> %v", sql, cfg.Key(), extra.Key(), c1, c2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickCostsPositiveAndDeterministic(t *testing.T) {
	e := New(testSchema())
	queries := []*sqlx.Query{
		sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.total >= 500 AND orders.status = 'status_2'"),
		sqlx.MustParse("SELECT customers.segment FROM customers WHERE customers.region = 'region_1' ORDER BY customers.segment"),
		sqlx.MustParse("SELECT orders.id FROM orders, customers, items WHERE orders.cust_id = customers.id AND orders.item_id = items.id AND items.price > 100"),
	}
	f := func(pick uint8, useIx bool) bool {
		q := queries[int(pick)%len(queries)]
		var cfg schema.Config
		if useIx {
			cfg = schema.Config{{Table: "orders", Columns: []string{"total"}}}
		}
		for _, mode := range []Mode{ModeEstimated, ModeTrue} {
			c1, err := e.QueryCost(q, cfg, mode)
			if err != nil || c1 <= 0 {
				return false
			}
			e.ClearCache()
			c2, _ := e.QueryCost(q, cfg, mode)
			if c1 != c2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
