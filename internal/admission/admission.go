// Package admission is trapd's flow-control layer: it decides, before
// a job touches the worker pool, whether the request should be admitted
// now, deferred (with an honest Retry-After), or shed.
//
// Three mechanisms compose:
//
//   - Priority classes. Requests are interactive or batch; the service's
//     worker pool dequeues interactive work first, so a human waiting on
//     a result is not stuck behind a bulk re-assessment sweep.
//   - Per-tenant quotas. Each tenant (the X-Trap-Tenant header) gets a
//     token bucket refilled at the tenant rate and holding ceil(rate)
//     tokens. A tenant that exhausts its bucket is shed with 429 and a
//     Retry-After equal to the time until its next token — other
//     tenants are unaffected, so no tenant can starve the rest.
//   - Load shedding. When the queue itself is full the request is shed
//     with 503 and a Retry-After derived from the observed drain rate
//     (completions over a sliding window): clients are told how long the
//     backlog actually needs, not a constant guess.
//
// The controller is cheap when idle: with quotas disabled, Admit is a
// single branch, and the drain estimator costs one mutexed ring update
// per finished job.
//
// All methods are safe for concurrent use.
package admission

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Priority is a request's scheduling class.
type Priority int

const (
	// Batch is the default class: bulk assessments, sweeps, re-runs.
	Batch Priority = iota
	// Interactive jumps the queue: a user is waiting on the result.
	Interactive
	// NumPriorities bounds per-class arrays (interactive first).
	NumPriorities = 2
)

// String returns the wire name of the priority.
func (p Priority) String() string {
	if p == Interactive {
		return "interactive"
	}
	return "batch"
}

// ParsePriority maps a wire name (the X-Trap-Priority header) to a
// class. Empty means batch.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "batch":
		return Batch, nil
	case "interactive":
		return Interactive, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want interactive or batch)", s)
}

// The controller's fixed policy.
const (
	// maxTenants bounds the bucket map, whose keys come from the outside
	// X-Trap-Tenant header: past it the stalest bucket is evicted. An
	// evicted tenant restarts with a full bucket, so eviction can only be
	// too generous, never starve.
	maxTenants = 4096
	// drainWindow is the sliding window the completion rate is measured
	// over, at 1 s resolution.
	drainWindow = 16 * time.Second
	// fallbackRetry and coldPerJob make the cold-start Retry-After:
	// before any completion has been observed the hint is
	// fallbackRetry + queued·coldPerJob, so a deep queue on a freshly
	// (re)started node does not invite an immediate thundering retry.
	fallbackRetry = 5 * time.Second
	coldPerJob    = 250 * time.Millisecond
	// minRetry and maxRetry clamp every computed Retry-After.
	minRetry = time.Second
	maxRetry = 5 * time.Minute
)

// Decision is the outcome of an admission check.
type Decision struct {
	// Admit reports whether the request may proceed to the queue.
	Admit bool
	// Reason is "" when admitted, else "tenant-quota".
	Reason string
	// RetryAfter is the client hint when shed (rounded up to whole
	// seconds by the HTTP layer).
	RetryAfter time.Duration
}

// Stats is a point-in-time summary of the controller.
type Stats struct {
	Admitted     int64
	ShedQuota    int64
	Tenants      int
	DrainPerSec  float64
	QuotaEnabled bool
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// Controller makes admission decisions. Build with New.
type Controller struct {
	qps   float64 // per-tenant token refill rate; <= 0 disables quotas
	burst float64 // bucket capacity: ceil(qps), at least 1

	mu      sync.Mutex
	buckets map[string]*bucket

	// drain-rate ring: completions per second over drainWindow. ring
	// slot s%len(ring) holds the count for unix second s, valid for
	// seconds in (hi-len(ring), hi].
	dmu   sync.Mutex
	ring  []int64
	first int64 // unix second of the first sample (0: none yet)
	hi    int64 // unix second of the newest sample

	admitted  atomic.Int64
	shedQuota atomic.Int64
}

// New builds a controller whose tenants may each submit tenantQPS jobs
// per second, in bursts of ceil(tenantQPS). tenantQPS <= 0 disables
// tenant quotas (every tenant is always admitted) and keeps only the
// drain-rate estimator.
func New(tenantQPS float64) *Controller {
	return &Controller{
		qps:     tenantQPS,
		burst:   math.Max(1, math.Ceil(tenantQPS)),
		buckets: map[string]*bucket{},
		ring:    make([]int64, int(drainWindow/time.Second)),
	}
}

// QuotaEnabled reports whether per-tenant quotas are active.
func (c *Controller) QuotaEnabled() bool { return c.qps > 0 }

// Admit charges one token to the tenant's bucket. With quotas disabled
// it always admits. now is injected for testability; callers pass
// time.Now().
func (c *Controller) Admit(tenant string, now time.Time) Decision {
	if !c.QuotaEnabled() {
		c.admitted.Add(1)
		return Decision{Admit: true}
	}
	c.mu.Lock()
	b, ok := c.buckets[tenant]
	if !ok {
		if len(c.buckets) >= maxTenants {
			c.evictStalest()
		}
		b = &bucket{tokens: c.burst, last: now}
		c.buckets[tenant] = b
	}
	// Refill, capped at burst.
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(c.burst, b.tokens+dt*c.qps)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		c.mu.Unlock()
		c.admitted.Add(1)
		return Decision{Admit: true}
	}
	need := (1 - b.tokens) / c.qps
	c.mu.Unlock()
	c.shedQuota.Add(1)
	return Decision{
		Reason:     "tenant-quota",
		RetryAfter: c.clamp(time.Duration(need * float64(time.Second))),
	}
}

// evictStalest drops the bucket with the oldest refill time (caller
// holds mu).
func (c *Controller) evictStalest() {
	var victim string
	var oldest time.Time
	for t, b := range c.buckets {
		if victim == "" || b.last.Before(oldest) {
			victim, oldest = t, b.last
		}
	}
	delete(c.buckets, victim)
}

// JobDone records one job completion at now: the drain-rate sample that
// backs capacity Retry-After hints.
func (c *Controller) JobDone(now time.Time) {
	sec := now.Unix()
	c.dmu.Lock()
	defer c.dmu.Unlock()
	n := int64(len(c.ring))
	if c.first == 0 {
		c.first, c.hi = sec, sec
		c.ring[sec%n] = 1
		return
	}
	if sec <= c.hi-n {
		return // older than the window (clock skew); drop the sample
	}
	if gap := sec - c.hi; gap >= n {
		// Idle long enough that every slot is stale.
		for i := range c.ring {
			c.ring[i] = 0
		}
	} else {
		for s := c.hi + 1; s <= sec; s++ {
			c.ring[s%n] = 0 // seconds that passed without samples
		}
	}
	if sec > c.hi {
		c.hi = sec
	}
	c.ring[sec%n]++
}

// drainPerSec estimates the completion rate at now: completions inside
// the trailing window divided by the observed span, so idle time since
// the last completion honestly dilutes the rate.
func (c *Controller) drainPerSec(now time.Time) float64 {
	sec := now.Unix()
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if c.first == 0 {
		return 0
	}
	n := int64(len(c.ring))
	lo := sec - n + 1 // oldest second inside the trailing window
	if v := c.hi - n + 1; v > lo {
		lo = v // ring slots older than this hold garbage
	}
	var total int64
	for s := lo; s <= c.hi && s <= sec; s++ {
		total += c.ring[s%n]
	}
	span := sec - c.first + 1
	if span > n {
		span = n
	}
	if span <= 0 {
		span = 1
	}
	return float64(total) / float64(span)
}

// CapacityRetryAfter derives a Retry-After for a queue-full shed:
// queued jobs ahead divided by the observed drain rate, clamped. Before
// any completion is observed it returns the fallback.
func (c *Controller) CapacityRetryAfter(queued int, now time.Time) time.Duration {
	if queued < 1 {
		queued = 1
	}
	rate := c.drainPerSec(now)
	if rate <= 0 {
		// Cold-start window: no completion has been observed yet (or the
		// trailing window is empty after a long idle), so the drain rate
		// is undefined — not actually zero. Dividing into it would yield
		// an infinite hint; returning the bare fallback regardless of
		// backlog invites a thundering retry against a node that has a
		// full queue and zero throughput history. Scale the floor with
		// the backlog instead, inside the usual [minRetry, maxRetry].
		return c.clamp(fallbackRetry + time.Duration(queued)*coldPerJob)
	}
	return c.clamp(time.Duration(float64(queued) / rate * float64(time.Second)))
}

// clamp bounds a Retry-After to [minRetry, maxRetry].
func (c *Controller) clamp(d time.Duration) time.Duration {
	return min(max(d, minRetry), maxRetry)
}

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	tenants := len(c.buckets)
	c.mu.Unlock()
	return Stats{
		Admitted:     c.admitted.Load(),
		ShedQuota:    c.shedQuota.Load(),
		Tenants:      tenants,
		DrainPerSec:  c.drainPerSec(time.Now()),
		QuotaEnabled: c.QuotaEnabled(),
	}
}
