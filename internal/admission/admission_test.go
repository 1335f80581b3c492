package admission

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// t0 is an arbitrary fixed wall-clock origin for deterministic tests.
var t0 = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

func TestParsePriority(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Priority
		err  bool
	}{
		{"", Batch, false},
		{"batch", Batch, false},
		{"interactive", Interactive, false},
		{"urgent", 0, true},
	} {
		got, err := ParsePriority(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParsePriority(%q) = %v, %v", tc.in, got, err)
		}
	}
	if Batch.String() != "batch" || Interactive.String() != "interactive" {
		t.Error("priority names changed")
	}
}

func TestQuotaDisabledAlwaysAdmits(t *testing.T) {
	c := New(0)
	if c.QuotaEnabled() {
		t.Fatal("a zero rate should disable quotas")
	}
	for i := 0; i < 100; i++ {
		if d := c.Admit("anyone", t0); !d.Admit {
			t.Fatalf("admit %d shed: %+v", i, d)
		}
	}
	if st := c.Stats(); st.Admitted != 100 || st.ShedQuota != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTokenBucketQuota(t *testing.T) {
	c := New(2)
	// Burst of ceil(2) = 2 admits, third is shed.
	for i := 0; i < 2; i++ {
		if d := c.Admit("acme", t0); !d.Admit {
			t.Fatalf("burst admit %d shed: %+v", i, d)
		}
	}
	d := c.Admit("acme", t0)
	if d.Admit || d.Reason != "tenant-quota" {
		t.Fatalf("over-quota decision: %+v", d)
	}
	// Next token arrives in 1/QPS = 500ms; Retry-After clamps up to minRetry.
	if d.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s (clamped)", d.RetryAfter)
	}
	// After one second two tokens refilled: two more admits.
	later := t0.Add(time.Second)
	for i := 0; i < 2; i++ {
		if d := c.Admit("acme", later); !d.Admit {
			t.Fatalf("post-refill admit %d shed: %+v", i, d)
		}
	}
	if d := c.Admit("acme", later); d.Admit {
		t.Fatal("third post-refill admit should shed")
	}
	// Refill never exceeds burst.
	muchLater := t0.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if d := c.Admit("acme", muchLater); !d.Admit {
			t.Fatalf("capped-refill admit %d shed: %+v", i, d)
		}
	}
	if d := c.Admit("acme", muchLater); d.Admit {
		t.Fatal("bucket refilled past its burst cap")
	}
}

func TestTenantIsolation(t *testing.T) {
	c := New(1)
	if d := c.Admit("noisy", t0); !d.Admit {
		t.Fatalf("noisy first admit shed: %+v", d)
	}
	for i := 0; i < 10; i++ {
		if d := c.Admit("noisy", t0); d.Admit {
			t.Fatal("noisy tenant admitted past its quota")
		}
	}
	// A different tenant still has its full bucket.
	if d := c.Admit("quiet", t0); !d.Admit {
		t.Fatalf("quiet tenant starved by noisy one: %+v", d)
	}
	st := c.Stats()
	if st.Tenants != 2 || st.Admitted != 2 || st.ShedQuota != 10 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMaxTenantsEviction(t *testing.T) {
	c := New(1)
	c.Admit("a", t0)
	later := t0.Add(time.Second)
	for i := 1; i < maxTenants; i++ {
		c.Admit(fmt.Sprint("t", i), later)
	}
	if st := c.Stats(); st.Tenants != maxTenants {
		t.Fatalf("tenants before eviction = %d, want %d", st.Tenants, maxTenants)
	}
	c.Admit("c", later) // evicts "a" (stalest)
	if st := c.Stats(); st.Tenants != maxTenants {
		t.Fatalf("tenants after eviction = %d, want %d", st.Tenants, maxTenants)
	}
	// "a" restarts with a full bucket — eviction is generous, not starving.
	if d := c.Admit("a", later); !d.Admit {
		t.Fatalf("evicted tenant not re-admitted: %+v", d)
	}
}

// TestCapacityRetryAfterColdStart is the regression test for the
// cold-start window: before any JobDone the drain rate is undefined, and
// the hint must be a sane backlog-scaled floor — never zero, never below
// minRetry, never above maxRetry, and growing with queue depth so a
// freshly restarted node with a deep queue is not stampeded.
func TestCapacityRetryAfterColdStart(t *testing.T) {
	c := New(0)
	// Empty queue: the bare fallback.
	if got := c.CapacityRetryAfter(0, t0); got != 5*time.Second+250*time.Millisecond {
		t.Fatalf("cold empty-queue Retry-After = %v", got)
	}
	// Backlog scales the floor: 10 queued -> 5s + 10*250ms = 7.5s.
	if got := c.CapacityRetryAfter(10, t0); got != 7500*time.Millisecond {
		t.Fatalf("cold Retry-After(10) = %v, want 7.5s", got)
	}
	// Monotone in backlog, and always inside [minRetry, maxRetry].
	prev := time.Duration(0)
	for _, q := range []int{1, 4, 16, 64, 1 << 20} {
		got := c.CapacityRetryAfter(q, t0)
		if got <= 0 || got < time.Second || got > 5*time.Minute {
			t.Fatalf("cold Retry-After(%d) = %v outside [1s, 5m]", q, got)
		}
		if got < prev {
			t.Fatalf("cold Retry-After not monotone: %v after %v", got, prev)
		}
		prev = got
	}
	if got := c.CapacityRetryAfter(1<<20, t0); got != 5*time.Minute {
		t.Fatalf("huge cold backlog = %v, want maxRetry", got)
	}
	// A long-idle controller (drain window empty again) falls back to the
	// same floor instead of dividing by a stale zero rate.
	c.JobDone(t0)
	if got := c.CapacityRetryAfter(10, t0.Add(time.Hour)); got != 7500*time.Millisecond {
		t.Fatalf("post-idle Retry-After = %v, want cold floor", got)
	}
}

func TestCapacityRetryAfterFromDrainRate(t *testing.T) {
	c := New(0)
	// 4 completions per second for 4 seconds.
	for s := 0; s < 4; s++ {
		for i := 0; i < 4; i++ {
			c.JobDone(t0.Add(time.Duration(s) * time.Second))
		}
	}
	now := t0.Add(3 * time.Second)
	// 16 completions over 4 observed seconds = 4/s; 20 queued -> 5s.
	if got := c.CapacityRetryAfter(20, now); got != 5*time.Second {
		t.Fatalf("Retry-After = %v, want 5s", got)
	}
	// Small backlogs clamp up to minRetry.
	if got := c.CapacityRetryAfter(1, now); got != time.Second {
		t.Fatalf("Retry-After = %v, want 1s (clamped)", got)
	}
	// Huge backlogs clamp at maxRetry.
	if got := c.CapacityRetryAfter(1<<20, now); got != 5*time.Minute {
		t.Fatalf("Retry-After = %v, want 5m (clamped)", got)
	}
	// Idle time dilutes the observed rate: 12 seconds later the same 16
	// completions spread over the full 16s window = 1/s; 20 queued -> 20s.
	if got := c.CapacityRetryAfter(20, t0.Add(15*time.Second)); got != 20*time.Second {
		t.Fatalf("diluted Retry-After = %v, want 20s", got)
	}
	// Once the window has fully rolled past the burst, the rate decays
	// to zero and the backlog-scaled cold floor applies again:
	// 5s fallback + 20 * 250ms = 10s.
	if got := c.CapacityRetryAfter(20, t0.Add(time.Hour)); got != 10*time.Second {
		t.Fatalf("stale-window Retry-After = %v, want 10s cold floor", got)
	}
}

func TestDrainRingRollover(t *testing.T) {
	c := New(0)
	// One completion per second for 40 seconds (the ring wraps twice):
	// steady 1/s.
	for s := 0; s < 40; s++ {
		c.JobDone(t0.Add(time.Duration(s) * time.Second))
	}
	if rate := c.drainPerSec(t0.Add(39 * time.Second)); rate != 1 {
		t.Fatalf("steady rate = %g, want 1", rate)
	}
	// A long idle gap zeroes the whole ring rather than reading stale slots.
	c.JobDone(t0.Add(100 * time.Second))
	if rate := c.drainPerSec(t0.Add(100 * time.Second)); rate != 1.0/16 {
		t.Fatalf("post-gap rate = %g, want 1/16 (1 completion / 16s window)", rate)
	}
}

// TestConcurrentAdmit exercises the controller under -race.
func TestConcurrentAdmit(t *testing.T) {
	c := New(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := string(rune('a' + w%4))
			for i := 0; i < 200; i++ {
				c.Admit(tenant, time.Now())
				c.JobDone(time.Now())
				c.CapacityRetryAfter(i, time.Now())
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Admitted+st.ShedQuota != 8*200 {
		t.Fatalf("decisions = %d, want 1600", st.Admitted+st.ShedQuota)
	}
}
