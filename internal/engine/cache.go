package engine

import (
	"sync"
	"sync/atomic"
)

// cacheShards is the number of independent plan-cache shards. Keys are
// spread by FNV-1a hash, so the goroutines sharing one engine (trapd
// jobs, measurement cells, RL rollouts) (almost) never contend on the
// same shard lock. The effective minimum cache limit is one entry per
// shard.
const cacheShards = 32

// planCache is a sharded, bounded plan cache with per-shard singleflight:
// each shard holds its own map, RWMutex, in-flight plan registry and
// hit/miss/eviction tallies, so concurrent lookups on different keys
// proceed in parallel and concurrent misses on the same key plan once.
type planCache struct {
	// limit bounds the total entry count; each shard enforces
	// limit/cacheShards (minimum one entry per shard).
	limit  atomic.Int64
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	hits, misses, evicted, dedup atomic.Uint64

	mu     sync.RWMutex
	m      map[uint64]cacheEntry
	flight map[uint64]*flightCall
}

// cacheEntry stores the full rendered key alongside the plan: the maps
// are keyed by the key's 64-bit FNV hash (computed incrementally from
// the memoized query-text hash, so probes never re-hash the long key),
// and the stored key verifies the hit against hash collisions.
type cacheEntry struct {
	key string
	p   *PlanNode
}

// flightCall is one in-progress plan build; waiters block on wg and read
// p/err afterwards (the WaitGroup provides the happens-before edge).
type flightCall struct {
	key string
	wg  sync.WaitGroup
	p   *PlanNode
	err error
}

func (c *planCache) init(limit int) {
	c.limit.Store(int64(limit))
	for i := range c.shards {
		c.shards[i].m = map[uint64]cacheEntry{}
		c.shards[i].flight = map[uint64]*flightCall{}
	}
}

// fnv1aString is the 64-bit FNV-1a hash of a string (used to memoize
// the query-text hash on the query's analysis).
func fnv1aString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fnv1aSeed continues an FNV-1a hash from seed over b. Shard selection
// hashes only the short mode/config suffix of a plan key this way,
// seeded with the memoized hash of the (often long) query text.
func fnv1aSeed(seed uint64, b []byte) uint64 {
	h := seed
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (c *planCache) shardOf(hash uint64) *cacheShard {
	return &c.shards[hash%cacheShards]
}

// shardLimit is the per-shard entry bound derived from the total limit.
func (c *planCache) shardLimit() int {
	n := int(c.limit.Load()) / cacheShards
	if n < 1 {
		n = 1
	}
	return n
}

// setLimit stores the new bound and immediately shrinks every shard that
// exceeds it, so a lowered limit takes effect at once rather than after
// many inserts.
func (c *planCache) setLimit(n int) {
	c.limit.Store(int64(n))
	lim := c.shardLimit()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.evictLocked(lim)
		sh.mu.Unlock()
	}
}

// clear drops every cached plan (in-flight builds are kept: they publish
// into the fresh maps when they finish).
func (c *planCache) clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = map[uint64]cacheEntry{}
		sh.mu.Unlock()
	}
}

// stats aggregates the per-shard tallies.
func (c *planCache) stats() CacheStats {
	st := CacheStats{Shards: cacheShards}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		st.Entries += len(sh.m)
		sh.mu.RUnlock()
		st.Hits += sh.hits.Load()
		st.Misses += sh.misses.Load()
		st.Evicted += sh.evicted.Load()
		st.SingleflightDedup += sh.dedup.Load()
	}
	return st
}

// lookup is the fast path: a read-locked probe of one shard by the
// precomputed key hash, verified against the stored key. The byte key is
// only compared via the string conversion expression, which Go compiles
// without a heap copy, so hits allocate nothing.
func (s *cacheShard) lookup(hash uint64, key []byte) (*PlanNode, bool) {
	s.mu.RLock()
	e, ok := s.m[hash]
	s.mu.RUnlock()
	if !ok || e.key != string(key) {
		return nil, false
	}
	s.hits.Add(1)
	return e.p, true
}

// do resolves a miss: it re-checks the map, joins an in-flight build of
// the same key if one exists (singleflight), or runs fn itself and
// publishes the result. Plans that fail are delivered to all waiters but
// never cached.
// Only the miss path clones the key to a heap string (for the flight
// registry and the cache insert); re-check and join probes use the
// allocation-free map index conversion.
func (s *cacheShard) do(hash uint64, key []byte, limit int, fn func() (*PlanNode, error)) (*PlanNode, error) {
	s.mu.Lock()
	if e, ok := s.m[hash]; ok && e.key == string(key) {
		s.mu.Unlock()
		s.hits.Add(1)
		return e.p, nil
	}
	if f, ok := s.flight[hash]; ok {
		if f.key == string(key) {
			s.mu.Unlock()
			s.misses.Add(1)
			s.dedup.Add(1)
			f.wg.Wait()
			return f.p, f.err
		}
		// A different key is in flight under the same 64-bit hash — an
		// astronomically rare collision. Plan without singleflight; the
		// insert below simply overwrites the colliding slot.
		s.mu.Unlock()
		s.misses.Add(1)
		p, err := fn()
		if err == nil {
			s.mu.Lock()
			s.evictLocked(limit)
			s.m[hash] = cacheEntry{key: string(key), p: p}
			s.mu.Unlock()
		}
		return p, err
	}
	f := &flightCall{key: string(key)}
	f.wg.Add(1)
	s.flight[hash] = f
	s.mu.Unlock()

	s.misses.Add(1)
	p, err := fn()
	f.p, f.err = p, err

	s.mu.Lock()
	delete(s.flight, hash)
	if err == nil {
		s.evictLocked(limit)
		s.m[hash] = cacheEntry{key: f.key, p: p}
	}
	s.mu.Unlock()
	f.wg.Done()
	return p, err
}

// evictLocked enforces the shard bound: when the shard is at or over
// limit it drops enough entries to get (and stay) below it — at least
// 1/8 of the shard, to amortize eviction over many inserts, and at least
// len-limit+1, so a lowered limit is honored in one call instead of
// leaking an oversized cache for thousands of inserts. Victims are
// sampled via Go's randomized map iteration order, keeping most of the
// working set warm. Called with s.mu held for writing.
func (s *cacheShard) evictLocked(limit int) {
	if len(s.m) < limit {
		return
	}
	drop := len(s.m) / 8
	if min := len(s.m) - limit + 1; drop < min {
		drop = min
	}
	n := uint64(0)
	for k := range s.m {
		if int(n) >= drop {
			break
		}
		delete(s.m, k)
		n++
	}
	s.evicted.Add(n)
}
