package engine

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/obs"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/stats"
	"github.com/trap-repro/trap/internal/trace"
)

// Process-wide engine metrics, aggregated across all Engine instances
// (each engine's plan-cache hits, misses, evictions and singleflight
// joins are in its CacheStats).
var (
	mWhatIfCalls = obs.Default().Counter("engine_whatif_calls_total")
	mTrueCalls   = obs.Default().Counter("engine_truecost_calls_total")
	mPlanSeconds = obs.Default().Histogram("engine_plan_seconds")
	mBatchSecs   = obs.Default().Histogram("engine_cost_batch_seconds")
)

// defaultCacheLimit bounds the plan cache; beyond it a fraction of the
// entries is evicted (never the whole cache).
const defaultCacheLimit = 400_000

// Engine is the simulated cost-based optimizer over a schema.
//
// # Concurrency
//
// An Engine is safe for concurrent use by multiple goroutines with no
// external locking: the schema and estimation-error profile are immutable
// after construction; the plan cache is sharded by key hash with one
// RWMutex per shard and per-shard singleflight (concurrent misses on the
// same (mode, config, query) key plan once and share the result); the
// memoized histogram map is guarded by its own RWMutex. Two goroutines
// that miss on the same histogram may both build it; the builds are
// deterministic per column so the duplicate write is benign. A query's
// planning skeletons live on the query, keyed by (engine id, mode), in
// an immutable list published by compare-and-swap; a skeleton is
// read-only once published and holds no pointer to the engine, so a
// query that outlives its engine does not keep it alive. Two goroutines
// planning a fresh query at once may both build its skeleton; the
// builds are identical and the first published wins. Cached
// *PlanNode values are shared across callers and MUST be treated as
// read-only; every path in this package builds fresh nodes before
// caching and never mutates a node after it is published (see PlanNode's
// immutability contract).
type Engine struct {
	// id keys the planning skeletons this engine memoizes on queries.
	id     uint64
	schema *schema.Schema
	estErr stats.EstimationError

	// hists is keyed by the ColumnRef struct itself (comparable) so the
	// per-lookup key is free; building a "t.c" string here dominated the
	// selectivity path's allocation profile.
	histMu sync.RWMutex
	hists  map[sqlx.ColumnRef]stats.Histogram

	cache planCache

	// inject, when non-nil, fires the engine.cost fault-injection point
	// on every QueryCost call (test/diagnostic configuration only).
	inject atomic.Pointer[injectorBox]
}

// engineIDs numbers engines. A skeleton is keyed by its engine's number,
// never by its address, which a later engine may reuse.
var engineIDs atomic.Uint64

// injectorBox wraps the interface so it can live in an atomic.Pointer.
type injectorBox struct{ in faultinject.Injector }

// New builds an engine over the schema with the default estimation-error
// profile.
func New(s *schema.Schema) *Engine {
	return NewWithError(s, stats.DefaultEstimationError())
}

// NewWithError builds an engine whose "ANALYZE" statistics carry the
// given error profile — the knob behind the estimation-error ablation.
func NewWithError(s *schema.Schema, e stats.EstimationError) *Engine {
	eng := &Engine{
		id:     engineIDs.Add(1),
		schema: s,
		estErr: e,
		hists:  map[sqlx.ColumnRef]stats.Histogram{},
	}
	eng.cache.init(defaultCacheLimit)
	return eng
}

// CacheStats is a point-in-time view of one engine's plan cache,
// aggregated over its shards.
type CacheStats struct {
	Entries int
	Hits    uint64
	Misses  uint64
	Evicted uint64
	// Shards is the number of cache shards the totals were summed over.
	Shards int
	// SingleflightDedup counts misses that joined another goroutine's
	// in-flight build of the same key instead of planning again.
	SingleflightDedup uint64
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStats returns this engine's plan-cache statistics.
func (e *Engine) CacheStats() CacheStats {
	return e.cache.stats()
}

// SetCacheLimit bounds the plan cache at n entries (minimum one per
// shard, i.e. 32). Lowering the limit below the current size shrinks the
// cache immediately; at steady state crossing the bound evicts a
// fraction of each shard rather than the whole cache.
func (e *Engine) SetCacheLimit(n int) {
	if n < cacheShards {
		n = cacheShards
	}
	e.cache.setLimit(n)
}

// Schema returns the engine's schema.
func (e *Engine) Schema() *schema.Schema { return e.schema }

// ClearCache drops all cached plans (histograms are kept).
func (e *Engine) ClearCache() {
	e.cache.clear()
}

// keyBuf is the reusable scratch of one costing call: the cache key
// bytes, the positions of the indexes the key lists for one table, and
// the planning scratch of a cost-map miss. Every costing path borrows
// one from keyBufPool (a batch keeps it for all its items), so
// steady-state key building and cost planning allocate nothing.
type keyBuf struct {
	buf  []byte
	ixs  []int
	plan planScratch
}

var keyBufPool = sync.Pool{New: func() any { return new(keyBuf) }}

// planKey renders the cache key of (q, cfg, mode) into kb: a byte for
// the map and mode, the canonical query text and, per table the query
// references (in the query's table order), the identities of the
// indexes cfg holds on that table that can change the plan. Indexes on
// tables the query never touches are left out, and so are inert ones
// (see inert): the plan and its cost are the same with or without them.
// So configurations that differ only in such indexes share one entry,
// which is what lets the advisors' what-if loops (hundreds of
// configurations against the same queries) run mostly on cache hits.
//
// A cost key sorts each table's indexes, since a plan's cost does not
// depend on their order. A tree key lists them in cfg order: an index
// path or nested loop takes the first of several equally cheap indexes,
// so a tree cached under one order could name another index than fresh
// planning under another order would.
//
// It also returns the key's shard hash, continued from the memoized
// hash of the query text so only the short mode/config suffix is
// re-hashed per call.
func (e *Engine) planKey(kb *keyBuf, q *sqlx.Query, cfg schema.Config, mode Mode, tree bool) ([]byte, uint64) {
	qa := analysisOf(q)
	mask := e.pagelessMask(qa)
	b := kb.buf[:0]
	if tree {
		b = append(b, byte('t'+int(mode)))
	} else {
		b = append(b, byte('c'+int(mode)))
	}
	b = append(b, q.String()...)
	suffix := len(b)
	for i, t := range qa.tables {
		b = append(b, '|')
		ixs := kb.ixs[:0]
		for k := range cfg {
			if cfg[k].Table == t && !qa.inert(mask, i, &cfg[k]) {
				ixs = append(ixs, k)
			}
		}
		if !tree {
			// Insertion sort: per-table subsets are tiny and this avoids
			// the sort.Slice interface allocation.
			for x := 1; x < len(ixs); x++ {
				for j := x; j > 0 && cfg[ixs[j]].Less(cfg[ixs[j-1]]); j-- {
					ixs[j], ixs[j-1] = ixs[j-1], ixs[j]
				}
			}
		}
		for _, k := range ixs {
			for _, c := range cfg[k].Columns {
				b = append(b, c...)
				b = append(b, ',')
			}
			b = append(b, ';')
		}
		kb.ixs = ixs[:0]
	}
	kb.buf = b
	h := qa.textHash
	h ^= uint64(b[0]) // map and mode byte
	h *= 1099511628211
	return b, fnv1aSeed(h, b[suffix:])
}

// Plan returns the cheapest plan for q under the index configuration cfg,
// priced with the given statistics mode. Results are cached in the tree
// map; the returned node is shared and must not be mutated.
func (e *Engine) Plan(q *sqlx.Query, cfg schema.Config, mode Mode) (*PlanNode, error) {
	kb := keyBufPool.Get().(*keyBuf)
	defer keyBufPool.Put(kb)
	key, hash := e.planKey(kb, q, cfg, mode, true)
	sh := e.cache.shardOf(hash)
	if p, ok := sh.lookup(hash, key); ok {
		return p, nil
	}
	return sh.do(hash, key, e.cache.shardLimit(), func() (*PlanNode, error) {
		sp := obs.StartSpan(mPlanSeconds)
		defer sp.End()
		return e.plan(q, cfg, mode)
	})
}

// SetInjector installs a fault injector on the engine's what-if costing
// path (nil disables injection, the production default).
func (e *Engine) SetInjector(in faultinject.Injector) {
	if in == nil {
		e.inject.Store(nil)
		return
	}
	e.inject.Store(&injectorBox{in: in})
}

// QueryCost returns the total cost of the cheapest plan for q. In
// ModeEstimated this is the engine's what-if interface — the call
// advisors are billed for. Costs are cached in the cost map, apart from
// Plan's trees, and a miss is priced without building a tree.
func (e *Engine) QueryCost(q *sqlx.Query, cfg schema.Config, mode Mode) (float64, error) {
	kb := keyBufPool.Get().(*keyBuf)
	defer keyBufPool.Put(kb)
	return e.queryCost(kb, q, cfg, mode)
}

// queryCost is QueryCost with a caller-owned key buffer.
func (e *Engine) queryCost(kb *keyBuf, q *sqlx.Query, cfg schema.Config, mode Mode) (float64, error) {
	if mode == ModeEstimated {
		mWhatIfCalls.Inc()
	} else {
		mTrueCalls.Inc()
	}
	if box := e.inject.Load(); box != nil {
		if err := faultinject.Fire(box.in, faultinject.PointEngineCost); err != nil {
			return 0, err
		}
	}
	key, hash := e.planKey(kb, q, cfg, mode, false)
	sh := e.cache.shardOf(hash)
	if c, ok := sh.lookupCost(hash, key); ok {
		return c, nil
	}
	return sh.doCost(hash, key, e.cache.shardLimit(), func() (float64, error) {
		sp := obs.StartSpan(mPlanSeconds)
		defer sp.End()
		sk := e.skeletonOf(q, mode)
		if sk.err != nil {
			return 0, sk.err
		}
		return sk.planCost(e.schema, cfg, &kb.plan), nil
	})
}

// CostItem is one weighted query in a CostBatch call; workload.Item is
// the same type, so a workload's items are priced as they are.
type CostItem struct {
	Query  *sqlx.Query
	Weight float64
}

// CostBatch prices a batch of weighted queries under one configuration
// and returns the weighted total, summed in item order on the caller's
// goroutine. Cancellation is honored between queries, so a canceled
// assessment stops what-if costing at the next query boundary instead
// of draining the whole batch.
func (e *Engine) CostBatch(ctx context.Context, items []CostItem, cfg schema.Config, mode Mode) (float64, error) {
	ctx, finish := e.batchSpan(ctx, "engine.cost_batch", len(items))
	sp := obs.StartSpan(mBatchSecs)
	total, err := e.weightedBatch(ctx, items, cfg, mode, false)
	sp.End()
	finish(err)
	return total, err
}

// batchSpan opens the per-batch trace span of CostBatch/RuntimeBatch
// with the batch size attribute, and returns a finish function that
// stamps the span with the shard-cache and singleflight deltas the
// batch caused before ending it. On an un-traced context everything is
// a no-op (no span is opened and finish does nothing), so the hot path
// pays no stats snapshots and no allocations.
func (e *Engine) batchSpan(ctx context.Context, name string, items int) (context.Context, func(error)) {
	ctx, tsp := trace.Start(ctx, name)
	if tsp == nil {
		return ctx, func(error) {}
	}
	tsp.Int("items", int64(items))
	before := e.cache.stats()
	return ctx, func(err error) {
		after := e.cache.stats()
		tsp.Int("cache_hits", int64(after.Hits-before.Hits))
		tsp.Int("cache_misses", int64(after.Misses-before.Misses))
		tsp.Int("singleflight_dedup", int64(after.SingleflightDedup-before.SingleflightDedup))
		tsp.Fail(err)
		tsp.End()
	}
}

// RuntimeCost is the stand-in for actual query runtime: the true-statistics
// cost with a small deterministic per-query execution noise, a factor
// hashed from the query text and memoized on its analysis.
func (e *Engine) RuntimeCost(q *sqlx.Query, cfg schema.Config) (float64, error) {
	kb := keyBufPool.Get().(*keyBuf)
	defer keyBufPool.Put(kb)
	return e.runtimeCost(kb, q, cfg)
}

func (e *Engine) runtimeCost(kb *keyBuf, q *sqlx.Query, cfg schema.Config) (float64, error) {
	c, err := e.queryCost(kb, q, cfg, ModeTrue)
	if err != nil {
		return 0, err
	}
	return c * analysisOf(q).runtimeFactor(q), nil
}

// runtimeFactor returns RuntimeCost's noise factor for q's text,
// hashing the text on the first call only. Racing first calls compute
// the same factor.
func (qa *queryAnalysis) runtimeFactor(q *sqlx.Query) float64 {
	if b := qa.runtimeBits.Load(); b != 0 {
		return math.Float64frombits(b)
	}
	f := stats.HashFactor("rt:"+q.String(), 0.05)
	qa.runtimeBits.Store(math.Float64bits(f))
	return f
}

// RuntimeBatch is CostBatch over the runtime stand-in: the weighted
// runtime cost of the batch, with the same in-order summation and
// cancellation behavior.
func (e *Engine) RuntimeBatch(ctx context.Context, items []CostItem, cfg schema.Config) (float64, error) {
	ctx, finish := e.batchSpan(ctx, "engine.runtime_batch", len(items))
	sp := obs.StartSpan(mBatchSecs)
	total, err := e.weightedBatch(ctx, items, cfg, ModeTrue, true)
	sp.End()
	finish(err)
	return total, err
}

// weightedBatch prices the items in order (with queryCost, or
// runtimeCost when runtime is set) and sums their weighted costs. ctx
// is checked before each item; the first error ends the batch.
func (e *Engine) weightedBatch(ctx context.Context, items []CostItem, cfg schema.Config, mode Mode, runtime bool) (float64, error) {
	kb := keyBufPool.Get().(*keyBuf)
	defer keyBufPool.Put(kb)
	var total float64
	for _, it := range items {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var c float64
		var err error
		if runtime {
			c, err = e.runtimeCost(kb, it.Query, cfg)
		} else {
			c, err = e.queryCost(kb, it.Query, cfg, mode)
		}
		if err != nil {
			return 0, err
		}
		total += c * it.Weight
	}
	return total, nil
}

// tableStatic is the mode- and configuration-independent per-table
// analysis of a query: predicate groups and required columns. It is
// memoized on the Query (see analysisOf) and shared read-only across
// plan calls, so it must never be mutated after construction.
type tableStatic struct {
	groups  []predGroup // single-table OR-groups on this table
	reqCols map[string]bool
	predOps int // predicate terms evaluated per row

	// What the inert rule reads: the required columns as a list, and
	// the columns that keep an index they lead: those of the sargable
	// predicates on this table, then this table's columns in join
	// predicates (the nested-loop lookups).
	reqList []string
	leads   []string
}

// queryAnalysis is the memoized, engine-independent part of planning a
// query: everything derivable from the query text alone. Stored on the
// Query via sqlx.Query.SetPlanInfo so repeated plan calls (across modes
// and configurations) skip the re-analysis.
type queryAnalysis struct {
	tables    []string
	columns   []sqlx.ColumnRef
	statics   map[string]*tableStatic
	byNum     []*tableStatic // statics by table number
	topGroups []predGroup    // groups spanning several tables
	// wantOrder is the order a single-table query would like its scan
	// to provide, as the skeleton has it.
	wantOrder []string
	// textHash is the FNV-1a hash of the canonical query text, the seed
	// for plan-key shard hashing (so lookups only hash the short suffix).
	textHash uint64
	// runtimeBits holds RuntimeCost's execution noise factor for this
	// text once computed (0 before: the factor is positive).
	runtimeBits atomic.Uint64
	// skeletons holds the planning skeleton of every (engine id, mode)
	// that planned the query; see skeletonOf.
	skeletons atomic.Pointer[[]skelEntry]
	// floors holds, per engine id that keyed the query, which tables'
	// pageless floor is at least their sequential-scan cost; see
	// pagelessMask.
	floors atomic.Pointer[[]floorEntry]
}

// floorEntry is one engine's pagelessMask of a query.
type floorEntry struct {
	engine uint64
	mask   uint64
}

// inert reports whether ix, an index on the query's table number i, can
// never become an access path, the ordered alternative or a nested-loop
// side under the engine whose pagelessMask is mask, so the cache keys
// leave it out: the table's pageless floor is at least its
// sequential-scan cost, ix's leading column has no sargable predicate
// and is no join column, ix does not provide the wanted order, and it
// does not cover the required columns. Such an index matches nothing,
// so it costs at least the floor (see scanCost), and plan compares with
// a strict < starting from the sequential scan, so it never picks it.
func (qa *queryAnalysis) inert(mask uint64, i int, ix *schema.Index) bool {
	if i >= 64 || mask&(1<<i) == 0 {
		return false
	}
	ts := qa.byNum[i]
	if len(ix.Columns) > 0 && hasColumn(ts.leads, ix.Columns[0]) {
		return false
	}
	if providesOrder(ix.Columns, qa.wantOrder) {
		return false
	}
	for _, c := range ts.reqList {
		if !hasColumn(ix.Columns, c) {
			return true
		}
	}
	return false
}

// pagelessMask returns the set of q's tables (bit i for table number i)
// whose pageless floor, the cheapest any matchless, non-covering index
// scan can cost, is at least the sequential scan's cost in this
// engine. Both depend on the schema table and the query's predicate
// count alone, not on the mode, so a query memoizes one mask per
// engine next to its skeletons, and a cache hit builds no skeleton.
// An unknown table gets no bit; such a query fails to plan anyway.
func (e *Engine) pagelessMask(qa *queryAnalysis) uint64 {
	if list := qa.floors.Load(); list != nil {
		for _, fe := range *list {
			if fe.engine == e.id {
				return fe.mask
			}
		}
	}
	var mask uint64
	for i, name := range qa.tables {
		t := e.schema.Table(name)
		if t == nil || i >= 64 {
			continue
		}
		var st skelTable
		st.setScanCosts(t, qa.byNum[i].predOps)
		if floor, _ := st.scanCost(1, 0, false, 0); floor >= st.seqCost {
			mask |= 1 << i
		}
	}
	for {
		old := qa.floors.Load()
		var list []floorEntry
		if old != nil {
			list = *old
		}
		next := append(list[:len(list):len(list)], floorEntry{engine: e.id, mask: mask})
		if qa.floors.CompareAndSwap(old, &next) {
			return mask
		}
	}
}

// analysisOf returns the memoized analysis of q, computing and caching
// it on first use. The result is query-derived only (no schema or mode
// input), so it is safe to share across engines and goroutines.
func analysisOf(q *sqlx.Query) *queryAnalysis {
	if qa, ok := q.PlanInfo().(*queryAnalysis); ok {
		return qa
	}
	qa := &queryAnalysis{tables: q.Tables(), columns: q.Columns(), textHash: fnv1aString(q.String())}
	qa.statics = make(map[string]*tableStatic, len(qa.tables))
	qa.byNum = make([]*tableStatic, len(qa.tables))
	for i, t := range qa.tables {
		if qa.statics[t] == nil {
			qa.statics[t] = &tableStatic{reqCols: map[string]bool{}}
		}
		qa.byNum[i] = qa.statics[t]
	}
	for _, c := range qa.columns {
		if st := qa.statics[c.Table]; st != nil {
			st.reqCols[c.Column] = true
		}
	}
	groups := groupFilters(q)
	for _, g := range groups {
		t := g.onlyTable()
		if t == "" {
			qa.topGroups = append(qa.topGroups, g)
			continue
		}
		if st := qa.statics[t]; st != nil {
			st.groups = append(st.groups, g)
			st.predOps += len(g.preds)
		}
	}
	// Each table's required columns and lead columns are windows of one
	// array each, in the order of qa.columns and of its groups and joins.
	reqs := make([]string, 0, len(qa.columns))
	leads := make([]string, 0, len(groups)+2*len(q.Joins))
	for i, t := range qa.tables {
		st := qa.byNum[i]
		if st.reqList != nil || st.leads != nil {
			continue // a table named twice shares one static
		}
		from := len(reqs)
		for _, c := range qa.columns {
			if c.Table == t {
				reqs = append(reqs, c.Column)
			}
		}
		st.reqList = reqs[from:len(reqs):len(reqs)]
		from = len(leads)
		for _, g := range st.groups {
			if g.sargable {
				leads = append(leads, g.preds[0].Col.Column)
			}
		}
		for _, jp := range q.Joins {
			if jp.Left.Table == t {
				leads = append(leads, jp.Left.Column)
			}
			if jp.Right.Table == t {
				leads = append(leads, jp.Right.Column)
			}
		}
		st.leads = leads[from:len(leads):len(leads)]
	}
	if len(qa.tables) == 1 {
		desired := q.OrderBy
		if len(desired) == 0 {
			desired = q.GroupBy
		}
		qa.wantOrder = oneTableColumns(desired)
	}
	q.SetPlanInfo(qa)
	return qa
}

// plan builds the cheapest plan without consulting the cache: the
// query's skeleton for this engine and mode (built on first use), then
// access paths and join order for cfg.
func (e *Engine) plan(q *sqlx.Query, cfg schema.Config, mode Mode) (*PlanNode, error) {
	sk := e.skeletonOf(q, mode)
	if sk.err != nil {
		return nil, sk.err
	}
	return sk.plan(e.schema, cfg, new(planScratch)), nil
}

// providesOrder reports whether an output ordered on `have` satisfies the
// required prefix `want`.
func providesOrder(have, want []string) bool {
	if len(want) == 0 || len(have) < len(want) {
		return false
	}
	for i, c := range want {
		if have[i] != c {
			return false
		}
	}
	return true
}
