package engine

import (
	"context"
	"runtime"
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
// (per-instance numbers are available from Engine.CacheStats).
var (
	mWhatIfCalls  = obs.Default().Counter("engine_whatif_calls_total")
	mTrueCalls    = obs.Default().Counter("engine_truecost_calls_total")
	mCacheHits    = obs.Default().Counter("engine_plan_cache_hits_total")
	mCacheMisses  = obs.Default().Counter("engine_plan_cache_misses_total")
	mCacheEvicted = obs.Default().Counter("engine_plan_cache_evicted_total")
	mPlanSeconds  = obs.Default().Histogram("engine_plan_seconds")
	mBatchSecs    = obs.Default().Histogram("engine_cost_batch_seconds")
	mBatchQueries = obs.Default().Counter("engine_cost_batch_queries_total")
	mBatches      = obs.Default().Counter("engine_cost_batches_total")
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

	// batchWorkers overrides the CostBatch/RuntimeBatch fan-out width;
	// 0 (the default) resolves to GOMAXPROCS at call time.
	batchWorkers atomic.Int64

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

// SetBatchWorkers bounds the worker pool CostBatch and RuntimeBatch fan
// out over. n <= 0 restores the default (GOMAXPROCS at call time); n == 1
// forces the sequential path. Safe to call concurrently with batches.
func (e *Engine) SetBatchWorkers(n int) {
	if n < 0 {
		n = 0
	}
	e.batchWorkers.Store(int64(n))
}

// BatchWorkers reports the resolved worker-pool width.
func (e *Engine) BatchWorkers() int {
	if n := int(e.batchWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Schema returns the engine's schema.
func (e *Engine) Schema() *schema.Schema { return e.schema }

// ClearCache drops all cached plans (histograms are kept).
func (e *Engine) ClearCache() {
	e.cache.clear()
}

// keyBuf is the reusable scratch for rendering one plan-cache key: the
// key bytes and the per-table index sort scratch. Batch paths hand one
// to each worker (par.ForEachWorker), single-query paths borrow one
// from keyBufPool, so steady-state key building allocates nothing.
type keyBuf struct {
	buf []byte
	ixs []schema.Index
}

var keyBufPool = sync.Pool{New: func() any { return new(keyBuf) }}

// planKey renders the cache key of (q, cfg, mode) into kb: the mode,
// the canonical query text and, per table the query references (in the
// query's stable table order), the sorted identities of the indexes cfg
// holds on that table. Indexes on tables the query never touches cannot
// affect its plan — plan() skips every index whose table is not one of
// the query's — so they are excluded: configurations that differ
// only in irrelevant indexes share one cache entry instead of each
// missing, which is what lets the advisor's what-if loop (which probes
// hundreds of configurations against the same queries) run mostly on
// cache hits.
// It also returns the key's shard hash, continued from the memoized
// hash of the query text so only the short mode/config suffix is
// re-hashed per call.
func planKey(kb *keyBuf, q *sqlx.Query, cfg schema.Config, mode Mode) ([]byte, uint64) {
	qa := analysisOf(q)
	b := kb.buf[:0]
	b = append(b, byte('0'+int(mode)))
	b = append(b, q.String()...)
	suffix := len(b)
	for _, t := range qa.tables {
		b = append(b, '|')
		ixs := kb.ixs[:0]
		for _, ix := range cfg {
			if ix.Table == t {
				ixs = append(ixs, ix)
			}
		}
		// Insertion sort: per-table subsets are tiny and this avoids the
		// sort.Slice interface allocation.
		for i := 1; i < len(ixs); i++ {
			for j := i; j > 0 && ixs[j].Less(ixs[j-1]); j-- {
				ixs[j], ixs[j-1] = ixs[j-1], ixs[j]
			}
		}
		for _, ix := range ixs {
			for _, c := range ix.Columns {
				b = append(b, c...)
				b = append(b, ',')
			}
			b = append(b, ';')
		}
		kb.ixs = ixs[:0]
	}
	kb.buf = b
	h := qa.textHash
	h ^= uint64(b[0]) // mode byte
	h *= 1099511628211
	return b, fnv1aSeed(h, b[suffix:])
}

// Plan returns the cheapest plan for q under the index configuration cfg,
// priced with the given statistics mode. Results are cached; the returned
// node is shared and must not be mutated.
func (e *Engine) Plan(q *sqlx.Query, cfg schema.Config, mode Mode) (*PlanNode, error) {
	kb := keyBufPool.Get().(*keyBuf)
	defer keyBufPool.Put(kb)
	return e.planCached(kb, q, cfg, mode)
}

// planCached looks the plan up in the sharded cache and, on a miss,
// builds it under singleflight: concurrent misses on the same key plan
// once and share the resulting node. The key is rendered into kb and
// only cloned to a heap string when a miss actually inserts it.
func (e *Engine) planCached(kb *keyBuf, q *sqlx.Query, cfg schema.Config, mode Mode) (*PlanNode, error) {
	key, hash := planKey(kb, q, cfg, mode)
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
// advisors are billed for.
func (e *Engine) QueryCost(q *sqlx.Query, cfg schema.Config, mode Mode) (float64, error) {
	kb := keyBufPool.Get().(*keyBuf)
	defer keyBufPool.Put(kb)
	return e.queryCost(kb, q, cfg, mode)
}

// queryCost is QueryCost with a caller-owned key buffer (batch paths
// keep one per worker).
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
	p, err := e.planCached(kb, q, cfg, mode)
	if err != nil {
		return 0, err
	}
	return p.Cost, nil
}

// CostItem is one weighted query in a CostBatch call.
type CostItem struct {
	Q      *sqlx.Query
	Weight float64
}

// CostBatch prices a batch of weighted queries under one configuration
// and returns the weighted total. The per-query costing fans out over a
// bounded worker pool (see SetBatchWorkers); the weighted summation is
// performed in item order afterwards, so the parallel total is
// bit-identical to the sequential one. Cancellation is honored between
// queries, so a canceled assessment stops what-if costing at the next
// query boundary instead of draining the whole batch.
func (e *Engine) CostBatch(ctx context.Context, items []CostItem, cfg schema.Config, mode Mode) (float64, error) {
	ctx, tsp, finish := e.batchSpan(ctx, "engine.cost_batch", len(items))
	sp := obs.StartSpan(mBatchSecs)
	mBatches.Inc()
	mBatchQueries.Add(int64(len(items)))
	total, err := e.weightedBatch(ctx, items, cfg, mode, false)
	sp.EndExemplar(tsp.TraceID())
	finish(err)
	return total, err
}

// batchSpan opens the per-batch trace span of CostBatch/RuntimeBatch
// with the batch size attribute, and returns a finish function that
// stamps the span with the shard-cache and singleflight deltas the
// batch caused before ending it. On an un-traced context everything is
// a no-op (tsp is nil and finish does nothing), so the hot path pays no
// stats snapshots and no allocations.
func (e *Engine) batchSpan(ctx context.Context, name string, items int) (context.Context, *trace.Span, func(error)) {
	ctx, tsp := trace.Start(ctx, name)
	if tsp == nil {
		return ctx, nil, func(error) {}
	}
	tsp.Int("items", int64(items))
	tsp.Int("workers", int64(e.BatchWorkers()))
	before := e.cache.stats()
	return ctx, tsp, func(err error) {
		after := e.cache.stats()
		tsp.Int("cache_hits", int64(after.Hits-before.Hits))
		tsp.Int("cache_misses", int64(after.Misses-before.Misses))
		tsp.Int("singleflight_dedup", int64(after.SingleflightDedup-before.SingleflightDedup))
		tsp.Fail(err)
		tsp.End()
	}
}

// RuntimeCost is the stand-in for actual query runtime: the true-statistics
// cost with a small deterministic per-query execution noise.
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
	return c * stats.HashFactor("rt:"+q.String(), 0.05), nil
}

// RuntimeBatch is CostBatch over the runtime stand-in: the weighted
// runtime cost of the batch, fanned out over the same worker pool with
// the same deterministic in-order summation and cancellation behavior.
func (e *Engine) RuntimeBatch(ctx context.Context, items []CostItem, cfg schema.Config) (float64, error) {
	ctx, tsp, finish := e.batchSpan(ctx, "engine.runtime_batch", len(items))
	sp := obs.StartSpan(mBatchSecs)
	mBatches.Inc()
	mBatchQueries.Add(int64(len(items)))
	total, err := e.weightedBatch(ctx, items, cfg, ModeTrue, true)
	sp.EndExemplar(tsp.TraceID())
	finish(err)
	return total, err
}

// tableStatic is the mode- and configuration-independent per-table
// analysis of a query: predicate groups and required columns. It is
// memoized on the Query (see analysisOf) and shared read-only across
// plan calls, so it must never be mutated after construction.
type tableStatic struct {
	groups  []predGroup // single-table OR-groups on this table
	reqCols map[string]bool
	predOps int // predicate terms evaluated per row
}

// queryAnalysis is the memoized, engine-independent part of planning a
// query: everything derivable from the query text alone. Stored on the
// Query via sqlx.Query.SetPlanInfo so repeated plan calls (across modes
// and configurations) skip the re-analysis.
type queryAnalysis struct {
	tables    []string
	columns   []sqlx.ColumnRef
	statics   map[string]*tableStatic
	topGroups []predGroup // groups spanning several tables
	// textHash is the FNV-1a hash of the canonical query text, the seed
	// for plan-key shard hashing (so lookups only hash the short suffix).
	textHash uint64
	// skeletons holds the planning skeleton of every (engine id, mode)
	// that planned the query; see skeletonOf.
	skeletons atomic.Pointer[[]skelEntry]
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
	for _, t := range qa.tables {
		qa.statics[t] = &tableStatic{reqCols: map[string]bool{}}
	}
	for _, c := range qa.columns {
		if st := qa.statics[c.Table]; st != nil {
			st.reqCols[c.Column] = true
		}
	}
	for _, g := range groupFilters(q) {
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
	return sk.plan(e.schema, cfg), nil
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
