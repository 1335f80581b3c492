// Package obs is a stdlib-only observability layer for the TRAP system:
// atomic counters and gauges, streaming histograms with quantile
// estimates, callback gauges for cheaply-derived values (cache sizes, hit
// ratios), and a process-wide registry with the Prometheus text
// exposition (prom.go) served by trapd's GET /metrics.
//
// Metrics are get-or-create by name, so hot paths keep a package-level
// pointer and pay one atomic op per event:
//
//	var calls = obs.Default().Counter("engine_whatif_calls_total")
//	...
//	calls.Inc()
//
// Durations are recorded through Span:
//
//	defer obs.StartSpan(planSeconds).End()
//
// All types are safe for concurrent use.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add applies a delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: geometric buckets with 8 buckets per power of
// two, spanning [2^-32, 2^32). That covers nanosecond-scale spans up to
// multi-hour ones (values are typically seconds) with <9% relative error
// per bucket, in a fixed 520-slot array.
const (
	histBucketsPerPow2 = 8
	histMinPow2        = -32
	histMaxPow2        = 32
	histBuckets        = (histMaxPow2 - histMinPow2) * histBucketsPerPow2
)

// Histogram is a streaming histogram over positive float64 values with
// quantile estimation. Zero and negative observations land in a dedicated
// underflow bucket; values beyond the top bucket are clamped into it. The
// exact min, max, sum and count are tracked alongside the buckets.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	under    int64 // v <= 0 or below the smallest bucket
	buckets  [histBuckets]int64
}

// bucketIndex maps a positive value to its bucket, or -1 for underflow.
func bucketIndex(v float64) int {
	log2 := math.Log2(v)
	i := int(math.Floor((log2 - histMinPow2) * histBucketsPerPow2))
	if i < 0 {
		return -1
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketValue returns the geometric midpoint of bucket i.
func bucketValue(i int) float64 {
	lo := float64(i)/histBucketsPerPow2 + histMinPow2
	hi := float64(i+1)/histBucketsPerPow2 + histMinPow2
	return math.Exp2((lo + hi) / 2)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= 0 {
		h.under++
		return
	}
	if i := bucketIndex(v); i >= 0 {
		h.buckets[i]++
	} else {
		h.under++
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (q in [0, 1]) from the buckets.
// Estimates carry the bucket's relative error (<9%); the extremes are
// clamped to the exact observed min and max. Returns 0 with no data.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	seen := h.under
	if seen >= rank {
		return h.min
	}
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i]
		if seen >= rank {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Span times one operation into a histogram.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing; record with End. A nil histogram yields a
// no-op span.
func StartSpan(h *Histogram) Span { return Span{h: h, start: time.Now()} }

// End records the elapsed time in seconds and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	if s.h != nil {
		s.h.ObserveDuration(d)
	}
	return d
}

// Registry is a named collection of metrics. Metrics are created on
// first use and live for the life of the registry. Every name comes
// from a fixed set — names written in code, route patterns, configured
// datasets, span names — so the registry needs no cardinality cap.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
	help       map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() float64{},
		hists:      map[string]*Histogram{},
		help:       map[string]string{},
	}
}

// Describe attaches a # HELP string to a metric family for the
// Prometheus exposition. The name is the family (label-free) name.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers (or replaces) a callback gauge evaluated at
// exposition time — for derived values like cache sizes and hit ratios.
// The callback must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Values dumps every metric as a flat name → value map: counters and
// gauges directly, histograms as _count/_sum/_p99 triples (the suffix
// goes ahead of any labels, as in the exposition).
func (r *Registry) Values() map[string]float64 {
	r.mu.RLock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+len(r.gaugeFuncs)+len(r.hists))
	for n, c := range r.counters {
		out[n] = float64(c.Value())
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	fns := make(map[string]func() float64, len(r.gaugeFuncs))
	for n, fn := range r.gaugeFuncs {
		fns[n] = fn
	}
	type histEntry struct {
		name string
		h    *Histogram
	}
	hists := make([]histEntry, 0, len(r.hists))
	for n, h := range r.hists {
		hists = append(hists, histEntry{n, h})
	}
	r.mu.RUnlock()
	// Callbacks and histogram locks are taken outside the registry lock.
	for n, fn := range fns {
		out[n] = fn()
	}
	for _, he := range hists {
		out[suffixed(he.name, "_count")] = float64(he.h.Count())
		out[suffixed(he.name, "_sum")] = he.h.Sum()
		out[suffixed(he.name, "_p99")] = he.h.Quantile(0.99)
	}
	return out
}
