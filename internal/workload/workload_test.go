package workload

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
)

func tpchGen(t *testing.T, seed int64) (*Generator, *engine.Engine) {
	t.Helper()
	s := bench.TPCH(100)
	return NewGenerator(s, seed, 20), engine.New(s)
}

func TestGeneratorProducesValidQueries(t *testing.T) {
	g, e := tpchGen(t, 1)
	for i := 0; i < 200; i++ {
		q := g.Query()
		if err := q.Validate(); err != nil {
			t.Fatalf("invalid query: %v\n%s", err, q)
		}
		if _, err := e.QueryCost(q, nil, engine.ModeEstimated); err != nil {
			t.Fatalf("unplannable query: %v\n%s", err, q)
		}
		// Round-trip through the parser.
		q2, err := sqlx.Parse(q.String())
		if err != nil {
			t.Fatalf("unparsable query: %v\n%s", err, q)
		}
		if q2.String() != q.String() {
			t.Fatalf("round trip mismatch:\n%s\n%s", q, q2)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1, _ := tpchGen(t, 7)
	g2, _ := tpchGen(t, 7)
	for i := 0; i < 20; i++ {
		if g1.Query().String() != g2.Query().String() {
			t.Fatal("same seed produced different queries")
		}
	}
	g3, _ := tpchGen(t, 8)
	same := true
	g1b, _ := tpchGen(t, 7)
	for i := 0; i < 20; i++ {
		if g1b.Query().String() != g3.Query().String() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestTemplatesAreReused(t *testing.T) {
	g, _ := tpchGen(t, 3)
	if g.NumTemplates() != 20 {
		t.Fatalf("NumTemplates = %d", g.NumTemplates())
	}
	// Many queries, few templates: queries must repeat structure. Strip
	// values by comparing the filter-column signature.
	sigs := map[string]bool{}
	for i := 0; i < 300; i++ {
		q := g.Query()
		sig := ""
		for _, p := range q.Filters {
			sig += p.Col.String() + p.Op + ";"
		}
		for _, tb := range q.Tables() {
			sig += tb + ","
		}
		sigs[sig] = true
	}
	if len(sigs) > g.NumTemplates() {
		t.Errorf("more structural signatures (%d) than templates (%d)", len(sigs), g.NumTemplates())
	}
}

func TestGeneratedQueriesAreSargable(t *testing.T) {
	g, _ := tpchGen(t, 5)
	for i := 0; i < 100; i++ {
		q := g.Query()
		if q.HasOrConj() {
			t.Fatalf("generator emitted OR: %s", q)
		}
		for _, p := range q.Filters {
			if p.Op == sqlx.OpNe {
				t.Fatalf("generator emitted !=: %s", q)
			}
		}
	}
}

func TestWorkloadSizes(t *testing.T) {
	g, _ := tpchGen(t, 9)
	w := g.Workload(17)
	if w.Size() != 17 {
		t.Errorf("Size = %d", w.Size())
	}
	for i := 0; i < 50; i++ {
		ws := g.WorkloadSized(50)
		if ws.Size() < 1 || ws.Size() > 50 {
			t.Errorf("WorkloadSized out of range: %d", ws.Size())
		}
	}
	if len(w.Tables()) == 0 || len(w.Columns()) == 0 {
		t.Error("workload reports no tables/columns")
	}
	c := w.Clone()
	c.Items[0].Query.Filters = nil
	if len(w.Items[0].Query.Filters) == 0 && len(c.Items[0].Query.Filters) == 0 {
		t.Skip("query had no filters")
	}
	if len(w.Items[0].Query.Filters) == 0 {
		t.Error("Clone shares query storage")
	}
}

func TestCostAndUtility(t *testing.T) {
	g, e := tpchGen(t, 11)
	w := g.Workload(10)
	c0, err := Cost(e, w, nil, engine.ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	if c0 <= 0 {
		t.Fatal("non-positive workload cost")
	}
	// Index every filter column: utility against the empty baseline must
	// be non-negative (indexes never hurt in this engine).
	var cfg schema.Config
	for _, col := range w.Columns() {
		cfg = cfg.Add(schema.Index{Table: col.Table, Columns: []string{col.Column}})
	}
	u, err := Utility(e, w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u < 0 {
		t.Errorf("utility of superset config negative: %v", u)
	}
	uBase, _ := Utility(e, w, nil, nil)
	if uBase != 0 {
		t.Errorf("utility of baseline against itself = %v, want 0", uBase)
	}
}

// TestCostReleasesQueries: once Cost or RuntimeCost returns, the pooled
// CostItem slice must hold no query pointer.
func TestCostReleasesQueries(t *testing.T) {
	g, e := tpchGen(t, 3)
	w := g.Workload(6)
	for _, cost := range []func() error{
		func() error { _, err := Cost(e, w, nil, engine.ModeEstimated); return err },
		func() error { _, err := RuntimeCost(e, w, nil); return err },
	} {
		checked := false
		// sync.Pool may hand back a fresh slice instead of the one the
		// call returned (under -race it drops some Puts), so retry until
		// the call's own slice comes back.
		for try := 0; try < 100 && !checked; try++ {
			if err := cost(); err != nil {
				t.Fatal(err)
			}
			p := costItemsPool.Get().(*[]engine.CostItem)
			if cap(*p) > 0 {
				for i, it := range (*p)[:cap(*p)] {
					if it.Q != nil {
						t.Fatalf("pooled slot %d still holds query %s", i, it.Q)
					}
				}
				checked = true
			}
			costItemsPool.Put(p)
		}
		if !checked {
			t.Fatal("the pool never returned a used slice")
		}
	}
}

// TestRuntimeCostCtxCancellation covers the runtime-costing bugfix: a
// canceled context aborts RuntimeCostCtx and UtilityCtx with the
// context's error instead of draining the full costing loop, and the
// ctx-free wrappers keep returning the same totals as before.
func TestRuntimeCostCtxCancellation(t *testing.T) {
	g, e := tpchGen(t, 13)
	w := g.Workload(10)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RuntimeCostCtx(canceled, e, w, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("RuntimeCostCtx err = %v, want context.Canceled", err)
	}
	if _, err := UtilityCtx(canceled, e, w, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("UtilityCtx err = %v, want context.Canceled", err)
	}

	want, err := RuntimeCost(e, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RuntimeCostCtx(context.Background(), e, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("RuntimeCostCtx = %v, RuntimeCost = %v", got, want)
	}
}

func TestIUDR(t *testing.T) {
	if IUDR(0.5, 0.5) != 0 {
		t.Error("no drop should give IUDR 0")
	}
	if IUDR(0.5, 0.25) != 0.5 {
		t.Error("halved utility should give IUDR 0.5")
	}
	if IUDR(0.5, 0.75) >= 0 {
		t.Error("improved utility should give negative IUDR")
	}
	if IUDR(0, 0.5) != 0 {
		t.Error("zero original utility must not divide by zero")
	}
}

func TestChangesDetection(t *testing.T) {
	orig := sqlx.MustParse("SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_quantity = 10 AND lineitem.l_tax = 3 ORDER BY lineitem.l_quantity")

	toNe := orig.Clone()
	toNe.Filters[0].Op = sqlx.OpNe
	got := Changes(nil, orig, toNe)
	if !hasChange(got, ChangeUnequal) {
		t.Errorf("!= not detected: %v", got)
	}

	toRange := orig.Clone()
	toRange.Filters[0].Op = sqlx.OpGe
	got = Changes(nil, orig, toRange)
	if !hasChange(got, ChangeEqToRange) {
		t.Errorf("eq-to-range not detected: %v", got)
	}

	toOr := orig.Clone()
	toOr.Conjs[0] = sqlx.ConjOr
	got = Changes(nil, orig, toOr)
	if !hasChange(got, ChangeOrConj) {
		t.Errorf("OR not detected: %v", got)
	}

	reorder := orig.Clone()
	reorder.OrderBy[0] = sqlx.ColumnRef{Table: "lineitem", Column: "l_tax"}
	got = Changes(nil, orig, reorder)
	if !hasChange(got, ChangeOrderGroup) {
		t.Errorf("order change not detected: %v", got)
	}

	uncover := orig.Clone()
	uncover.Select = append(uncover.Select, sqlx.SelectItem{Col: sqlx.ColumnRef{Table: "lineitem", Column: "l_comment"}})
	got = Changes(nil, orig, uncover)
	if !hasChange(got, ChangeUncoveredSelect) {
		t.Errorf("uncovered select not detected: %v", got)
	}

	if n := len(Changes(nil, orig, orig.Clone())); n != 0 {
		t.Errorf("identical queries report %d changes", n)
	}
}

func TestResultSetChangeNeedsEngine(t *testing.T) {
	s := bench.TPCH(100)
	e := engine.New(s)
	orig := sqlx.MustParse("SELECT orders.o_totalprice FROM orders WHERE orders.o_orderkey = 5")
	blown := sqlx.MustParse("SELECT orders.o_totalprice FROM orders WHERE orders.o_totalprice >= 1")
	got := Changes(e, orig, blown)
	if !hasChange(got, ChangeResultSet) {
		t.Errorf("result-set blowup not detected: %v", got)
	}
	if hasChange(Changes(nil, orig, blown), ChangeResultSet) {
		t.Error("nil engine should skip result-set detection")
	}
}

func TestChangeCounts(t *testing.T) {
	orig := New(
		sqlx.MustParse("SELECT t.a FROM t WHERE t.a = 1 AND t.b = 2"),
		sqlx.MustParse("SELECT t.a FROM t WHERE t.a = 1"),
	)
	pert := New(
		sqlx.MustParse("SELECT t.a FROM t WHERE t.a = 1 OR t.b = 2"),
		sqlx.MustParse("SELECT t.a FROM t WHERE t.a != 1"),
	)
	counts := ChangeCounts(nil, orig, pert)
	if counts[ChangeOrConj] != 1 || counts[ChangeUnequal] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func hasChange(cs []ChangeType, c ChangeType) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

func TestQuickGeneratorAlwaysPlannable(t *testing.T) {
	s := bench.TRANSACTION(200)
	e := engine.New(s)
	f := func(seed int64) bool {
		g := NewGenerator(s, seed, 5)
		for i := 0; i < 5; i++ {
			q := g.Query()
			if q.Validate() != nil {
				return false
			}
			if _, err := e.QueryCost(q, nil, engine.ModeEstimated); err != nil {
				t.Logf("unplannable: %s", q)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
