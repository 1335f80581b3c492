package telemetry

import (
	"context"
	"math"
	"sync"
	"testing"
)

func TestSeriesAppendAndPoints(t *testing.T) {
	s := newSeries(8)
	for i := 1; i <= 5; i++ {
		s.Append(int64(i), float64(i)*2)
	}
	pts := s.Points()
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}
	for i, p := range pts {
		if p.Step != int64(i+1) || p.Value != float64(i+1)*2 {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	if s.Stride() != 1 || s.Count() != 5 {
		t.Fatalf("stride=%d count=%d", s.Stride(), s.Count())
	}
}

// TestSeriesGrowsOnDemand: a short series holds a few points' storage,
// not its whole ring.
func TestSeriesGrowsOnDemand(t *testing.T) {
	s := NewScope().Series("short")
	for i := 1; i <= 3; i++ {
		s.Append(int64(i), 1)
	}
	if c := cap(s.pts); c > 16 {
		t.Fatalf("a 3-point series has storage for %d points, want at most 16", c)
	}
}

func TestSeriesMonotonicSteps(t *testing.T) {
	s := newSeries(8)
	s.Append(5, 1)
	s.Append(5, 2) // duplicate step: dropped
	s.Append(3, 3) // regression: dropped
	s.Append(6, 4)
	pts := s.Points()
	if len(pts) != 2 || pts[0].Step != 5 || pts[1].Step != 6 {
		t.Fatalf("points = %+v", pts)
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d, want 2", s.Count())
	}
}

func TestSeriesDownsamples(t *testing.T) {
	const capacity = 16
	s := newSeries(capacity)
	const n = 1000
	for i := 1; i <= n; i++ {
		s.Append(int64(i), float64(i))
	}
	pts := s.Points()
	if len(pts) > capacity+1 { // +1: provisional pending bucket
		t.Fatalf("ring grew past capacity: %d points", len(pts))
	}
	if s.Count() != n {
		t.Fatalf("count = %d, want %d", s.Count(), n)
	}
	if s.Stride() < 2 {
		t.Fatalf("stride = %d, want downsampled (>=2)", s.Stride())
	}
	// Steps stay strictly increasing through every merge.
	for i := 1; i < len(pts); i++ {
		if pts[i].Step <= pts[i-1].Step {
			t.Fatalf("steps not increasing at %d: %+v", i, pts[i-1:i+1])
		}
	}
	// Values of the identity series stay ordered too, and the last point
	// covers the newest data.
	if pts[len(pts)-1].Step != n {
		t.Fatalf("last step = %d, want %d", pts[len(pts)-1].Step, n)
	}
	// Each stored value is the mean of its merged bucket; for the
	// identity series the global mean of the means must stay near the
	// true mean of 1..n.
	var sum float64
	for _, p := range pts {
		sum += p.Value
	}
	mean := sum / float64(len(pts))
	if math.Abs(mean-float64(n+1)/2) > float64(n)/10 {
		t.Fatalf("downsampled mean %f too far from %f", mean, float64(n+1)/2)
	}
}

func TestSeriesLatestSeesPendingBucket(t *testing.T) {
	s := newSeries(4)
	for i := 1; i <= 9; i++ { // forces stride growth, leaves a partial bucket
		s.Append(int64(i), float64(i))
	}
	p, ok := s.Latest()
	if !ok || p.Step != 9 {
		t.Fatalf("latest = %+v ok=%v, want step 9", p, ok)
	}
}

func TestNilSafety(t *testing.T) {
	var s *Series
	s.Append(1, 2)
	s.Add(3)
	if pts := s.Points(); pts != nil {
		t.Fatalf("nil series points = %v", pts)
	}
	if _, ok := s.Latest(); ok {
		t.Fatal("nil series has a latest point")
	}
	var sc *Scope
	if got := sc.Series("x"); got != nil {
		t.Fatalf("nil scope series = %v", got)
	}
	sc.Series("x").Append(1, 2)
	if sc.Snapshot() != nil || sc.Latest() != nil || sc.Len() != 0 {
		t.Fatal("nil scope not inert")
	}
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("plain context carries a scope")
	}
	if NewContext(ctx, nil) != ctx {
		t.Fatal("NewContext(nil) should return ctx unchanged")
	}
}

func TestScopeSnapshotSorted(t *testing.T) {
	sc := NewScope()
	sc.Series("zeta").Append(1, 1)
	sc.Series("alpha").Append(1, 2)
	sc.Series("mid").Append(1, 3)
	snap := sc.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d series", len(snap))
	}
	if snap[0].Name != "alpha" || snap[1].Name != "mid" || snap[2].Name != "zeta" {
		t.Fatalf("snapshot order: %s %s %s", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	latest := sc.Latest()
	if latest["alpha"] != 2 || latest["zeta"] != 1 {
		t.Fatalf("latest = %v", latest)
	}
}

func TestScopeConcurrentAppend(t *testing.T) {
	sc := newScope(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g%4))
			for i := 1; i <= 500; i++ {
				sc.Series(name).Append(int64(g*1000+i), float64(i))
			}
		}(g)
	}
	wg.Wait()
	if sc.Len() != 4 {
		t.Fatalf("len = %d, want 4", sc.Len())
	}
	for _, d := range sc.Snapshot() {
		for i := 1; i < len(d.Points); i++ {
			if d.Points[i].Step <= d.Points[i-1].Step {
				t.Fatalf("series %s steps not increasing under concurrency", d.Name)
			}
		}
	}
}

// TestAppendZeroAlloc pins the telemetry cost contract: with telemetry
// disabled (nil scope from an uninstrumented context) the full
// FromContext → Series → Append chain is zero-alloc, and with telemetry
// enabled the steady-state ring append is zero-alloc too.
func TestAppendZeroAlloc(t *testing.T) {
	ctx := context.Background()
	step := int64(0)
	disabled := testing.AllocsPerRun(1000, func() {
		step++
		FromContext(ctx).Series("rl_loss").Append(step, 1.5)
	})
	if disabled != 0 {
		t.Fatalf("disabled telemetry allocates %.1f allocs/op, want 0", disabled)
	}

	sc := newScope(64)
	ectx := NewContext(context.Background(), sc)
	s := FromContext(ectx).Series("rl_loss")
	// Fill the ring to its capacity: the steady state, where an append
	// downsamples in place instead of growing the storage.
	for step = 1; step <= 64; step++ {
		s.Append(step, 0)
	}
	if cap(s.pts) != 64 {
		t.Fatalf("warm-up left the ring at cap %d, want its capacity 64", cap(s.pts))
	}
	enabled := testing.AllocsPerRun(1000, func() {
		step++
		FromContext(ectx).Series("rl_loss").Append(step, 1.5)
	})
	if enabled != 0 {
		t.Fatalf("enabled telemetry allocates %.1f allocs/op on the steady-state append, want 0", enabled)
	}
}
