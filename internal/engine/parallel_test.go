package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
)

// batchFixture builds a weighted batch of distinct queries plus an index
// configuration that makes several of the plans index scans.
func batchFixture(n int) ([]CostItem, schema.Config) {
	cfg := schema.Config{}.
		Add(schema.Index{Table: "orders", Columns: []string{"cust_id"}}).
		Add(schema.Index{Table: "orders", Columns: []string{"total"}}).
		Add(schema.Index{Table: "customers", Columns: []string{"id", "region"}})
	items := make([]CostItem, 0, n)
	for i := 0; i < n; i++ {
		var sql string
		switch i % 3 {
		case 0:
			sql = fmt.Sprintf("SELECT orders.total FROM orders WHERE orders.total < %d", 100+i*53)
		case 1:
			sql = fmt.Sprintf(
				"SELECT orders.total FROM orders, customers WHERE orders.cust_id = customers.id AND orders.total < %d",
				1000+i*37)
		default:
			sql = fmt.Sprintf(
				"SELECT customers.region FROM customers WHERE customers.id = %d ORDER BY customers.region", i)
		}
		items = append(items, CostItem{Query: sqlx.MustParse(sql), Weight: 0.1 + float64(i%7)*0.3})
	}
	return items, cfg
}

// TestCostBatchMatchesItemSum: CostBatch is the in-order weighted sum
// of QueryCost over its items, in both statistics modes, and
// RuntimeBatch that of RuntimeCost, bit for bit on a cold and then a
// warm cache.
func TestCostBatchMatchesItemSum(t *testing.T) {
	items, cfg := batchFixture(40)
	ref := New(testSchema())
	sum := func(cost func(q *sqlx.Query) (float64, error)) float64 {
		var total float64
		for _, it := range items {
			c, err := cost(it.Query)
			if err != nil {
				t.Fatal(err)
			}
			total += c * it.Weight
		}
		return total
	}
	type batch struct {
		name string
		want float64
		run  func(e *Engine) (float64, error)
	}
	var batches []batch
	for _, mode := range []Mode{ModeEstimated, ModeTrue} {
		batches = append(batches, batch{
			name: "CostBatch/" + mode.String(),
			want: sum(func(q *sqlx.Query) (float64, error) { return ref.QueryCost(q, cfg, mode) }),
			run: func(e *Engine) (float64, error) {
				return e.CostBatch(context.Background(), items, cfg, mode)
			},
		})
	}
	batches = append(batches, batch{
		name: "RuntimeBatch",
		want: sum(func(q *sqlx.Query) (float64, error) { return ref.RuntimeCost(q, cfg) }),
		run: func(e *Engine) (float64, error) {
			return e.RuntimeBatch(context.Background(), items, cfg)
		},
	})
	for _, b := range batches {
		e := New(testSchema())
		for _, pass := range []string{"cold", "warm"} {
			got, err := b.run(e)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(b.want) {
				t.Fatalf("%s, %s cache: %v != item sum %v (not bit-identical)", b.name, pass, got, b.want)
			}
		}
		if st := e.CacheStats(); st.Hits < uint64(len(items)) {
			t.Fatalf("%s: warm pass hit the cache %d times, want at least %d", b.name, st.Hits, len(items))
		}
	}
}

// cancelAt cancels a context at its n-th engine.cost hit and counts
// every hit.
type cancelAt struct {
	n, hits int
	cancel  context.CancelFunc
}

func (c *cancelAt) Fire(string) error {
	c.hits++
	if c.hits == c.n {
		c.cancel()
	}
	return nil
}

// TestCostBatchCancellation verifies a canceled context aborts the batch
// with the context's error, and that a context canceled mid-batch stops
// it before the next item.
func TestCostBatchCancellation(t *testing.T) {
	items, cfg := batchFixture(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(testSchema())
	if _, err := e.CostBatch(ctx, items, cfg, ModeEstimated); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := e.RuntimeBatch(ctx, items, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RuntimeBatch err = %v, want context.Canceled", err)
	}

	for _, rt := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		in := &cancelAt{n: 3, cancel: cancel}
		e := New(testSchema())
		e.SetInjector(in)
		var err error
		if rt {
			_, err = e.RuntimeBatch(ctx, items, cfg)
		} else {
			_, err = e.CostBatch(ctx, items, cfg, ModeEstimated)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("runtime=%v: err = %v, want context.Canceled", rt, err)
		}
		if in.hits != in.n {
			t.Fatalf("runtime=%v: priced %d items after a cancel at item %d", rt, in.hits, in.n)
		}
	}
}

// TestSingleflightDedup drives cacheShard.do directly with a build
// function that blocks until all contending goroutines have arrived,
// proving the build runs once and every waiter observes the result and
// is counted as a dedup.
func TestSingleflightDedup(t *testing.T) {
	var sh cacheShard
	sh.m = map[uint64]cacheEntry{}
	sh.flight = map[uint64]*flightCall{}
	kHash := fnv1aString("k")

	const waiters = 8
	node := &PlanNode{Type: SeqScan, Cost: 42}
	started := make(chan struct{}) // closed when the builder is inside fn
	release := make(chan struct{}) // closed to let the builder finish
	var calls int
	var wg sync.WaitGroup
	results := make([]*PlanNode, waiters)

	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := sh.do(kHash, []byte("k"), 100, func() (*PlanNode, error) {
				calls++ // single-writer by construction; -race verifies
				close(started)
				<-release
				return node, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = p
		}(i)
	}

	<-started
	// Wait until the other goroutines are blocked in the flight wait or
	// have at least registered their miss; we can't observe "blocked in
	// wg.Wait" directly, so spin on the dedup counter.
	for sh.dedup.Load() < waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("build ran %d times, want 1", calls)
	}
	for i, p := range results {
		if p != node {
			t.Fatalf("waiter %d got %p, want the shared node %p", i, p, node)
		}
	}
	if d := sh.dedup.Load(); d != waiters-1 {
		t.Fatalf("dedup = %d, want %d", d, waiters-1)
	}
	if m := sh.misses.Load(); m != waiters {
		t.Fatalf("misses = %d, want %d", m, waiters)
	}
	if len(sh.flight) != 0 {
		t.Fatalf("flight registry not drained: %d entries", len(sh.flight))
	}
	if e := sh.m[kHash]; e.key != "k" || e.p != node {
		t.Fatal("result was not cached")
	}
}

// TestSingleflightErrorNotCached verifies a failed build is delivered to
// the caller but never inserted into the cache.
func TestSingleflightErrorNotCached(t *testing.T) {
	var sh cacheShard
	sh.m = map[uint64]cacheEntry{}
	sh.flight = map[uint64]*flightCall{}
	boom := errors.New("boom")
	if _, err := sh.do(fnv1aString("k"), []byte("k"), 100, func() (*PlanNode, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(sh.m) != 0 {
		t.Fatal("failed build was cached")
	}
	if len(sh.flight) != 0 {
		t.Fatal("flight registry not drained after error")
	}
}

// TestConcurrentPlanSharesNode plans the same key from many goroutines
// (run under -race) and asserts they all receive the same cached
// *PlanNode — the object identity the immutability contract protects.
func TestConcurrentPlanSharesNode(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.total FROM orders WHERE orders.total < 5000")
	cfg := schema.Config{}.Add(schema.Index{Table: "orders", Columns: []string{"total"}})

	const goroutines = 12
	nodes := make([]*PlanNode, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := e.Plan(q, cfg, ModeEstimated)
			if err != nil {
				t.Error(err)
				return
			}
			nodes[g] = p
			// Read-only traversal: legal under the contract, and -race
			// would flag any engine-internal mutation of the shared tree.
			p.Walk(func(n *PlanNode) { _ = n.Cost })
		}(g)
	}
	wg.Wait()
	first, err := e.Plan(q, cfg, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	for g, p := range nodes {
		if p != first {
			t.Fatalf("goroutine %d got a different node (%p vs %p): cache hand-out is not shared", g, p, first)
		}
	}
}

// TestSetCacheLimitShrinksOversizedCache covers the SetCacheLimit bugfix:
// lowering the limit below the current size must shrink the cache
// immediately, not leak an oversized cache for thousands of inserts.
func TestSetCacheLimitShrinksOversizedCache(t *testing.T) {
	e := New(testSchema())
	for i := 0; i < 2000; i++ {
		sql := fmt.Sprintf("SELECT orders.id FROM orders WHERE orders.total = %d", i)
		if _, err := e.QueryCost(sqlx.MustParse(sql), nil, ModeEstimated); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.CacheStats(); st.Entries < 1000 {
		t.Fatalf("fixture too small: only %d entries cached", st.Entries)
	}
	const limit = 128
	e.SetCacheLimit(limit)
	if st := e.CacheStats(); st.Entries > limit {
		t.Fatalf("SetCacheLimit(%d) left %d entries in the cache", limit, st.Entries)
	}
	// And the bound keeps holding under further inserts.
	for i := 0; i < 4*limit; i++ {
		sql := fmt.Sprintf("SELECT orders.id FROM orders WHERE orders.cust_id = %d", i)
		if _, err := e.QueryCost(sqlx.MustParse(sql), nil, ModeEstimated); err != nil {
			t.Fatal(err)
		}
		if st := e.CacheStats(); st.Entries > limit {
			t.Fatalf("cache exceeded limit after shrink: %d > %d", st.Entries, limit)
		}
	}
}

// TestEvictionUnderConcurrentInsert hammers a tightly bounded cache from
// many goroutines (run under -race): the bound must hold at every
// observation point and evictions must be recorded.
func TestEvictionUnderConcurrentInsert(t *testing.T) {
	e := New(testSchema())
	const limit = 64
	e.SetCacheLimit(limit)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sql := fmt.Sprintf("SELECT orders.id FROM orders WHERE orders.total = %d", g*1000+i)
				if _, err := e.QueryCost(sqlx.MustParse(sql), nil, ModeEstimated); err != nil {
					t.Error(err)
					return
				}
				if st := e.CacheStats(); st.Entries > limit {
					t.Errorf("cache exceeded limit under concurrent insert: %d > %d", st.Entries, limit)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := e.CacheStats()
	if st.Evicted == 0 {
		t.Fatal("no evictions recorded")
	}
	if st.Entries == 0 || st.Entries > limit {
		t.Fatalf("entries out of range after concurrent churn: %d (limit %d)", st.Entries, limit)
	}
}

// TestQueryMemoInvalidation guards the memoization contract the cache
// keys depend on: a mutated query re-renders after Invalidate, and a
// clone never shares its parent's memo.
func TestQueryMemoInvalidation(t *testing.T) {
	q := sqlx.MustParse("SELECT orders.total FROM orders WHERE orders.total < 100")
	before := q.String()
	clone := q.Clone()
	clone.Filters[0].Val = sqlx.NumDatum(999999)
	clone.Invalidate()
	if q.String() != before {
		t.Fatal("mutating a clone changed the parent's rendering")
	}
	if clone.String() == before {
		t.Fatal("Invalidate did not refresh the clone's rendering")
	}

	e := New(testSchema())
	cfg := schema.Config{}.Add(schema.Index{Table: "orders", Columns: []string{"total"}})
	p1, err := e.Plan(q, cfg, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Plan(clone, cfg, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Rows == p2.Rows && p1.Cost == p2.Cost {
		t.Fatal("clone with a far looser predicate planned identically: stale memo in cache key")
	}

	// Mutating a planned query in place and invalidating it must drop
	// its skeletons too: the next plan is the mutated query's.
	j := sqlx.MustParse("SELECT orders.total FROM orders, customers " +
		"WHERE orders.cust_id = customers.id AND customers.region = 'region_3'")
	jcfg := cfg.Add(schema.Index{Table: "orders", Columns: []string{"cust_id"}})
	for _, mode := range []Mode{ModeEstimated, ModeTrue} {
		if _, err := e.Plan(j, jcfg, mode); err != nil {
			t.Fatal(err)
		}
	}
	before2, _ := e.plan(j, jcfg, ModeEstimated)
	j.Filters[0] = sqlx.Predicate{Col: sqlx.ColumnRef{Table: "orders", Column: "total"}, Op: sqlx.OpLt, Val: sqlx.NumDatum(10)}
	j.Invalidate()
	for _, mode := range []Mode{ModeEstimated, ModeTrue} {
		want, wantErr := e.refPlan(j, jcfg, mode)
		got, err := e.Plan(j, jcfg, mode)
		if d := DiffResults(got, err, want, wantErr); d != "" {
			t.Fatalf("%s mode: plan after in-place mutation: %s", mode, d)
		}
	}
	if after, _ := e.plan(j, jcfg, ModeEstimated); DiffResults(after, nil, before2, nil) == "" {
		t.Fatal("the mutation did not change the plan; the check proves nothing")
	}
}
