// Package telemetry is the time-series layer on top of internal/obs:
// where obs answers "what is the value now", telemetry answers "how did
// it get there". A Scope is a lock-sharded registry of named Series; a
// Series is a bounded ring of (step, value) points that grows on demand
// up to its capacity and then downsamples itself — merging adjacent
// pairs and doubling its stride — whenever it fills, so an unbounded run
// (thousands of RL epochs, tens of thousands of perturbation candidates)
// is summarised in bounded memory with the newest points always at full
// resolution, and a short series holds only a few points' storage.
//
// The package is built for hot paths that are usually cold: every entry
// point is a no-op on a nil receiver, and FromContext on an
// uninstrumented context returns nil, so callers write
//
//	telemetry.FromContext(ctx).Series("rl_loss").Append(epoch, loss)
//
// unconditionally and pay nothing (no allocation, no branch beyond the
// nil checks) when telemetry is disabled. With telemetry enabled the
// steady-state Append is allocation-free too: once the ring has grown
// to its capacity, downsampling runs in place.
package telemetry

import (
	"context"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
)

// Point is one stored sample: the raw step it covers (for stride > 1,
// the last raw step merged into it) and its value (the mean of the
// merged raw values).
type Point struct {
	Step  int64   `json:"step"`
	Value float64 `json:"value"`
}

// Series is a bounded time series. Steps must be strictly increasing:
// a re-presented step is dropped, which keeps every series monotonic
// whatever its producer delivers twice.
type Series struct {
	mu       sync.Mutex
	pts      []Point // ring storage; len is the fill, cap doubles up to capacity
	capacity int     // the most points stored before downsampling
	stride   int64   // raw appends folded into each stored point
	accSum   float64 // pending bucket: sum of raw values
	accN     int64   // pending bucket: raw appends so far
	accStep  int64   // pending bucket: last raw step
	last     int64   // last raw step accepted (monotonicity gate)
	count    int64   // total raw appends accepted
}

func newSeries(capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	if capacity%2 == 1 {
		capacity++
	}
	return &Series{pts: make([]Point, 0, min(seriesStart, capacity)), capacity: capacity, stride: 1}
}

// Append records value at step. Steps at or below the last accepted
// step are ignored. Safe on a nil receiver.
func (s *Series) Append(step int64, value float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count > 0 && step <= s.last {
		return
	}
	s.last = step
	s.count++
	s.accSum += value
	s.accN++
	s.accStep = step
	if s.accN < s.stride {
		return
	}
	if len(s.pts) == cap(s.pts) {
		if len(s.pts) < s.capacity {
			// Double the storage, up to the capacity.
			s.pts = append(make([]Point, 0, min(2*len(s.pts), s.capacity)), s.pts...)
		} else {
			s.downsample()
		}
	}
	s.pts = append(s.pts, Point{Step: s.accStep, Value: s.accSum / float64(s.accN)})
	s.accSum, s.accN = 0, 0
}

// Add appends value at the step after the last one — the common case of
// a naturally sequenced series (one point per epoch, per candidate).
func (s *Series) Add(value float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	next := s.last + 1
	s.mu.Unlock()
	s.Append(next, value)
}

// downsample halves the ring in place: adjacent pairs merge into one
// point carrying the later step and the mean value, and the stride
// doubles so future buckets cover the same raw span as the survivors.
// Caller holds s.mu.
func (s *Series) downsample() {
	n := len(s.pts) / 2
	for i := 0; i < n; i++ {
		a, b := s.pts[2*i], s.pts[2*i+1]
		s.pts[i] = Point{Step: b.Step, Value: (a.Value + b.Value) / 2}
	}
	s.pts = s.pts[:n]
	s.stride *= 2
}

// Points returns a copy of the stored points plus, when a partial
// bucket is pending, one provisional tail point for it — so the newest
// sample is always visible even mid-bucket. Safe on a nil receiver.
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.pts), len(s.pts)+1)
	copy(out, s.pts)
	if s.accN > 0 {
		out = append(out, Point{Step: s.accStep, Value: s.accSum / float64(s.accN)})
	}
	return out
}

// Latest returns the most recent raw sample and whether one exists.
func (s *Series) Latest() (Point, bool) {
	if s == nil {
		return Point{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.accN > 0 {
		return Point{Step: s.accStep, Value: s.accSum / float64(s.accN)}, true
	}
	if len(s.pts) > 0 {
		return s.pts[len(s.pts)-1], true
	}
	return Point{}, false
}

// Stride reports how many raw appends each stored point summarises.
func (s *Series) Stride() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stride
}

// Count reports the total raw appends accepted over the series'
// lifetime (including points since merged away by downsampling).
func (s *Series) Count() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

const (
	// seriesCapacity is the per-series ring size in stored points.
	seriesCapacity = 512
	// seriesStart is the ring storage a new series starts with; it
	// doubles on demand up to the capacity.
	seriesStart = 8
	// maxSeries is a scope's cardinality cap: once this many distinct
	// series exist, Series returns nil (whose methods are no-ops) and
	// the Dropped counter grows.
	maxSeries   = 64
	scopeShards = 8
)

var scopeSeed = maphash.MakeSeed()

type shard struct {
	mu sync.RWMutex
	m  map[string]*Series
}

// Scope is a lock-sharded registry of named series — one per job, or
// one per subsystem. All methods are safe on a nil *Scope and safe for
// concurrent use.
type Scope struct {
	shards    [scopeShards]shard
	capacity  int          // per-series ring size
	maxSeries int          // cardinality cap
	n         atomic.Int64 // live series count, raced against maxSeries
	dropped   atomic.Int64 // creations refused by the cardinality cap
}

// NewScope returns an empty scope: up to 64 series of 512 stored points
// each.
func NewScope() *Scope { return newScope(seriesCapacity, maxSeries) }

// newScope sizes a scope's rings (rounded up to even, minimum 2) and its
// cardinality cap.
func newScope(capacity, maxSeries int) *Scope {
	sc := &Scope{capacity: capacity, maxSeries: maxSeries}
	for i := range sc.shards {
		sc.shards[i].m = make(map[string]*Series)
	}
	return sc
}

// Series returns the named series, creating it on first use. Past the
// cardinality cap it returns nil — every Series method tolerates that —
// so unbounded label growth degrades to dropped samples, never to
// unbounded memory.
func (sc *Scope) Series(name string) *Series {
	if sc == nil {
		return nil
	}
	sh := &sc.shards[maphash.String(scopeSeed, name)%scopeShards]
	sh.mu.RLock()
	s := sh.m[name]
	sh.mu.RUnlock()
	if s != nil {
		return s
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s = sh.m[name]; s != nil {
		return s
	}
	if sc.n.Add(1) > int64(sc.maxSeries) {
		sc.n.Add(-1)
		sc.dropped.Add(1)
		return nil
	}
	s = newSeries(sc.capacity)
	sh.m[name] = s
	return s
}

// Dropped reports how many series creations the cardinality cap
// refused.
func (sc *Scope) Dropped() int64 {
	if sc == nil {
		return 0
	}
	return sc.dropped.Load()
}

// Len reports the number of live series.
func (sc *Scope) Len() int {
	if sc == nil {
		return 0
	}
	return int(sc.n.Load())
}

// SeriesDump is one series rendered for transport.
type SeriesDump struct {
	Name   string  `json:"name"`
	Stride int64   `json:"stride"`
	Count  int64   `json:"count"`
	Points []Point `json:"points"`
}

// Snapshot returns every series, sorted by name, with copied points.
func (sc *Scope) Snapshot() []SeriesDump {
	if sc == nil {
		return nil
	}
	var out []SeriesDump
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.mu.RLock()
		for name, s := range sh.m {
			out = append(out, SeriesDump{
				Name:   name,
				Stride: s.Stride(),
				Count:  s.Count(),
				Points: s.Points(),
			})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Latest returns the freshest value of every series, sorted by name —
// the payload shape of per-epoch SSE telemetry events.
func (sc *Scope) Latest() map[string]float64 {
	if sc == nil {
		return nil
	}
	out := make(map[string]float64)
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.mu.RLock()
		for name, s := range sh.m {
			if p, ok := s.Latest(); ok {
				out[name] = p.Value
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

type ctxKey struct{}

// NewContext returns ctx carrying sc. A nil sc is carried as absent.
func NewContext(ctx context.Context, sc *Scope) context.Context {
	if sc == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext returns the scope carried by ctx, or nil. The nil return
// is usable directly: every Scope and Series method no-ops on nil.
func FromContext(ctx context.Context) *Scope {
	sc, _ := ctx.Value(ctxKey{}).(*Scope)
	return sc
}
