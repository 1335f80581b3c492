package engine

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// cacheShards is the number of independent plan-cache shards. Keys are
// spread by FNV-1a hash, so the goroutines sharing one engine (trapd
// jobs, measurement cells, RL rollouts) (almost) never contend on the
// same shard lock. The effective minimum cache limit is one entry per
// shard.
const cacheShards = 32

// planCache is a sharded, bounded what-if cache with per-shard
// singleflight. Each shard holds two maps: a tree map for Plan, whose
// callers read the tree, and a cost map for QueryCost and the batches,
// whose callers read only the cost. Both share the shard's RWMutex,
// in-flight registry, hit/miss/eviction tallies and entry bound, so
// concurrent lookups on different keys proceed in parallel and
// concurrent misses on the same key plan once.
type planCache struct {
	// limit bounds the total entry count of both maps; each shard
	// enforces limit/cacheShards (minimum one entry per shard).
	limit  atomic.Int64
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	hits, misses, evicted, dedup atomic.Uint64

	mu sync.RWMutex
	m  map[uint64]cacheEntry
	// costs holds no pointer, so the garbage collector never scans it:
	// its keys live in arena, chunks of arenaChunk bytes that are filled
	// in order and never grow or move, so a key is copied once. Eviction
	// compacts them into fresh chunks.
	costs  map[uint64]costEntry
	arena  [][]byte
	flight map[uint64]*flightCall
}

// arenaChunk is the size of one key-arena chunk. A costEntry addresses
// its key as chunk<<16 | offset, so a chunk holds at most 64 KiB; a
// longer key is priced but not cached.
const arenaChunk = 1 << 16

// cacheEntry stores the full rendered key alongside the plan: the maps
// are keyed by the key's 64-bit FNV hash (computed incrementally from
// the memoized query-text hash, so probes never re-hash the long key),
// and the stored key verifies the hit against hash collisions.
type cacheEntry struct {
	key string
	p   *PlanNode
}

// costEntry is a cached cost; its key is n bytes at off in the arena
// (see keyAt), which verify a hit as cacheEntry's key does.
type costEntry struct {
	off, n uint32
	cost   float64
}

// flightCall is one in-progress build, of a tree or a cost (the two
// maps' keys differ in their first byte, so a call never serves the
// other map); waiters block on wg and read the result afterwards (the
// WaitGroup provides the happens-before edge). key is the builder's own
// key buffer, which it leaves untouched until it lands the call; every
// goroutine that joins compares it under the shard lock before that.
type flightCall struct {
	key  []byte
	wg   sync.WaitGroup
	p    *PlanNode
	cost float64
	err  error
}

func (c *planCache) init(limit int) {
	c.limit.Store(int64(limit))
	for i := range c.shards {
		c.shards[i].m = map[uint64]cacheEntry{}
		c.shards[i].costs = map[uint64]costEntry{}
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

// clear drops every cached tree and cost (in-flight builds are kept:
// they publish into the emptied maps when they finish).
func (c *planCache) clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		clear(sh.costs)
		if len(sh.arena) > 0 {
			sh.arena = append(sh.arena[:0], sh.arena[0][:0])
		}
		sh.mu.Unlock()
	}
}

// stats aggregates the per-shard tallies over both maps.
func (c *planCache) stats() CacheStats {
	st := CacheStats{Shards: cacheShards}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		st.Entries += len(sh.m) + len(sh.costs)
		sh.mu.RUnlock()
		st.Hits += sh.hits.Load()
		st.Misses += sh.misses.Load()
		st.Evicted += sh.evicted.Load()
		st.SingleflightDedup += sh.dedup.Load()
	}
	return st
}

// lookup is the tree map's fast path: a read-locked probe of one shard
// by the precomputed key hash, verified against the stored key. The
// byte key is only compared via the string conversion expression, which
// Go compiles without a heap copy, so hits allocate nothing.
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

// lookupCost is the cost map's fast path, verified against the key
// bytes in the arena.
func (s *cacheShard) lookupCost(hash uint64, key []byte) (float64, bool) {
	s.mu.RLock()
	c, ok := s.costLocked(hash, key)
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	}
	return c, ok
}

// costLocked probes the cost map; s.mu is held.
func (s *cacheShard) costLocked(hash uint64, key []byte) (float64, bool) {
	e, ok := s.costs[hash]
	if !ok || !bytes.Equal(s.keyAt(e), key) {
		return 0, false
	}
	return e.cost, true
}

// keyAt returns e's key bytes in the arena; s.mu is held.
func (s *cacheShard) keyAt(e costEntry) []byte {
	off := e.off & (arenaChunk - 1)
	return s.arena[e.off>>16][off : off+e.n]
}

// putKeyLocked copies key into the arena's last chunk, or a new one when
// it does not fit, and returns its costEntry address; ok is false for a
// key longer than a chunk, or when the shard already has 65,536 chunks
// (4 GiB of keys). s.mu is held for writing.
func (s *cacheShard) putKeyLocked(key []byte) (off uint32, ok bool) {
	if len(key) > arenaChunk {
		return 0, false
	}
	last := len(s.arena) - 1
	if last < 0 || len(s.arena[last])+len(key) > arenaChunk {
		if last+1 == 1<<16 {
			return 0, false
		}
		s.arena = append(s.arena, make([]byte, 0, arenaChunk))
		last++
	}
	off = uint32(last)<<16 | uint32(len(s.arena[last]))
	s.arena[last] = append(s.arena[last], key...)
	return off, true
}

// do resolves a tree miss: it re-checks the map, joins an in-flight
// build of the same key if one exists (singleflight), or runs fn itself
// and publishes the result. Plans that fail are delivered to all
// waiters but never cached. Only the insert clones the key to a heap
// string; re-check and join probes compare the caller's bytes.
func (s *cacheShard) do(hash uint64, key []byte, limit int, fn func() (*PlanNode, error)) (*PlanNode, error) {
	s.mu.Lock()
	if e, ok := s.m[hash]; ok && e.key == string(key) {
		s.mu.Unlock()
		s.hits.Add(1)
		return e.p, nil
	}
	f, wait := s.flightLocked(hash, key)
	if wait {
		f.wg.Wait()
		return f.p, f.err
	}
	f.p, f.err = fn()
	s.mu.Lock()
	s.landLocked(hash, f)
	if f.err == nil {
		s.evictLocked(limit)
		s.m[hash] = cacheEntry{key: string(key), p: f.p}
	}
	s.mu.Unlock()
	f.wg.Done()
	return f.p, f.err
}

// doCost is do for the cost map: fn prices the miss, and the key bytes
// are copied into the arena when the cost is cached.
func (s *cacheShard) doCost(hash uint64, key []byte, limit int, fn func() (float64, error)) (float64, error) {
	s.mu.Lock()
	if c, ok := s.costLocked(hash, key); ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return c, nil
	}
	f, wait := s.flightLocked(hash, key)
	if wait {
		f.wg.Wait()
		return f.cost, f.err
	}
	f.cost, f.err = fn()
	s.mu.Lock()
	s.landLocked(hash, f)
	if f.err == nil {
		s.evictLocked(limit)
		if off, ok := s.putKeyLocked(key); ok {
			s.costs[hash] = costEntry{off: off, n: uint32(len(key)), cost: f.cost}
		}
	}
	s.mu.Unlock()
	f.wg.Done()
	return f.cost, f.err
}

// flightLocked is a miss's singleflight step: entered with s.mu held
// for writing, it releases it and counts the miss. It returns the
// in-flight build of key to wait for (wait true, counted as a dedup),
// or a new build this goroutine must run and end with landLocked and
// f.wg.Done. A different key in flight under the same 64-bit hash (an
// astronomically rare collision) gets a build outside the registry:
// the insert after it simply overwrites the colliding slot.
func (s *cacheShard) flightLocked(hash uint64, key []byte) (*flightCall, bool) {
	old, busy := s.flight[hash]
	if busy && bytes.Equal(old.key, key) {
		s.mu.Unlock()
		s.misses.Add(1)
		s.dedup.Add(1)
		return old, true
	}
	f := &flightCall{key: key}
	f.wg.Add(1)
	if !busy {
		s.flight[hash] = f
	}
	s.mu.Unlock()
	s.misses.Add(1)
	return f, false
}

// landLocked ends f's flight; s.mu is held for writing.
func (s *cacheShard) landLocked(hash uint64, f *flightCall) {
	if s.flight[hash] == f {
		delete(s.flight, hash)
	}
}

// evictLocked enforces the shard bound over both maps: when the shard
// is at or over limit it drops enough entries to get (and stay) below
// it — at least 1/8 of the shard, to amortize eviction over many
// inserts, and at least len-limit+1, so a lowered limit is honored in
// one call instead of leaking an oversized cache for thousands of
// inserts. Each map gives up victims in proportion to its size, sampled
// via Go's randomized map iteration order, keeping most of the working
// set warm; the arena is then compacted to the surviving costs' keys.
// Called with s.mu held for writing.
func (s *cacheShard) evictLocked(limit int) {
	total := len(s.m) + len(s.costs)
	if total < limit {
		return
	}
	drop := total / 8
	if min := total - limit + 1; drop < min {
		drop = min
	}
	trees := (drop*len(s.m) + total - 1) / total
	n := dropEntries(s.m, trees)
	if costs := dropEntries(s.costs, drop-trees); costs > 0 {
		n += costs
		s.compactArena()
	}
	s.evicted.Add(uint64(n))
}

// dropEntries deletes up to n entries of m in map iteration order and
// returns how many it deleted.
func dropEntries[V any](m map[uint64]V, n int) int {
	dropped := 0
	for k := range m {
		if dropped >= n {
			break
		}
		delete(m, k)
		dropped++
	}
	return dropped
}

// compactArena copies the surviving costs' keys into fresh chunks and
// repoints their entries at them.
func (s *cacheShard) compactArena() {
	old := s.arena
	s.arena = nil
	for h, e := range s.costs {
		off := e.off & (arenaChunk - 1)
		var ok bool
		if e.off, ok = s.putKeyLocked(old[e.off>>16][off : off+e.n]); ok {
			s.costs[h] = e
		} else {
			delete(s.costs, h)
		}
	}
}
