package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	c := &Counter{}
	const goroutines, perG = 50, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter lost updates: got %d want %d", got, goroutines*perG)
	}
	c.Add(-5) // negative deltas ignored
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("negative Add changed counter: %d", got)
	}
}

func TestGauge(t *testing.T) {
	g := &Gauge{}
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("Set/Value: %v", g.Value())
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if math.Abs(g.Value()-2.5) > 1e-9 {
		t.Fatalf("Add deltas did not cancel: %v", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// Uniform 1..1000: p50 ~ 500, p99 ~ 990.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count: %d", h.Count())
	}
	wantSum := 1000.0 * 1001 / 2
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("sum: %v want %v", h.Sum(), wantSum)
	}
	checks := []struct{ q, want, relTol float64 }{
		{0, 1, 0},       // exact min
		{1, 1000, 0},    // exact max
		{0.5, 500, 0.1}, // bucketed: ~9% relative error
		{0.9, 900, 0.1},
		{0.99, 990, 0.1},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if math.Abs(got-c.want) > c.relTol*c.want {
			t.Errorf("Quantile(%v) = %v, want %v ± %v%%", c.q, got, c.want, c.relTol*100)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(0)    // underflow bucket
	h.Observe(-3)   // underflow bucket
	h.Observe(1e30) // clamped into the top bucket
	if h.Count() != 3 {
		t.Fatalf("count: %d", h.Count())
	}
	if got := h.Quantile(0); got != -3 {
		t.Fatalf("min: %v", got)
	}
	if got := h.Quantile(1); got != 1e30 {
		t.Fatalf("max: %v", got)
	}
	// Low quantiles resolve to the exact min when underflow dominates.
	if got := h.Quantile(0.3); got != -3 {
		t.Fatalf("underflow quantile: %v", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(base*500 + j + 1))
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 16*500 {
		t.Fatalf("count: %d", h.Count())
	}
}

func TestSpan(t *testing.T) {
	h := &Histogram{}
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration: %v", d)
	}
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Fatalf("span did not record: count=%d sum=%v", h.Count(), h.Sum())
	}
	// Nil-histogram spans are safe no-ops.
	StartSpan(nil).End()
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(7)
	r.Gauge("temperature").Set(21.5)
	r.GaugeFunc("cache_entries", func() float64 { return 42 })
	h := r.Histogram("latency_seconds")
	h.Observe(0.5)
	h.Observe(1.5)

	// Get-or-create must return the same instance.
	if r.Counter("requests_total").Value() != 7 {
		t.Fatal("counter identity lost")
	}

	got := r.Values()
	for name, want := range map[string]float64{
		"requests_total":        7,
		"temperature":           21.5,
		"cache_entries":         42,
		"latency_seconds_count": 2,
		"latency_seconds_sum":   2,
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("Values()[%q] = %v (present %v), want %v", name, v, ok, want)
		}
	}
	if p99 := got["latency_seconds_p99"]; p99 < 1.5*0.9 || p99 > 1.5 {
		t.Errorf("latency_seconds_p99 = %v, want about 1.5", p99)
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(1)
				r.Gauge("g").Set(1)
			}
		}()
	}
	wg.Wait()
	if r.Counter("shared").Value() != 32*200 {
		t.Fatalf("lost increments across get-or-create: %d", r.Counter("shared").Value())
	}
}
