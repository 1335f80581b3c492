package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.Start(context.Background(), "job")
	if root == nil {
		t.Fatal("root span is nil")
	}
	root.Str("dataset", "tpch")

	mctx, measure := Start(ctx, "measure")
	measure.Int("cells", 2)
	for i := 0; i < 2; i++ {
		_, cell := Start(mctx, "cell")
		cell.Int("i", int64(i))
		cell.End()
	}
	measure.End()
	root.End()

	got, ok := tr.Get(root.TraceID())
	if !ok {
		t.Fatalf("finished trace %s not retained", root.TraceID())
	}
	if got.Op() != "job" || got.Len() != 4 {
		t.Fatalf("op=%q len=%d, want job/4", got.Op(), got.Len())
	}
	tree := got.Tree()
	if tree.Root == nil || tree.Root.Name != "job" {
		t.Fatalf("bad tree root: %+v", tree.Root)
	}
	if tree.Root.Attrs["dataset"] != "tpch" {
		t.Fatalf("root attrs: %v", tree.Root.Attrs)
	}
	if len(tree.Root.Children) != 1 || tree.Root.Children[0].Name != "measure" {
		t.Fatalf("tree level 2: %+v", tree.Root.Children)
	}
	cells := tree.Root.Children[0].Children
	if len(cells) != 2 || cells[0].Name != "cell" {
		t.Fatalf("tree level 3: %+v", cells)
	}
	if tree.Status != "ok" {
		t.Fatalf("status %q", tree.Status)
	}
}

func TestUntracedContextIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "anything")
	if sp != nil {
		t.Fatal("expected nil span without a tracer")
	}
	if ctx2 != ctx {
		t.Fatal("expected unchanged context")
	}
	// All methods must be nil-safe.
	sp.Int("k", 1)
	sp.Str("k", "v")
	sp.Float("k", 1.5)
	sp.Bool("k", true)
	sp.Fail(errors.New("x"))
	if sp.End() != 0 || sp.TraceID() != "" || sp.SpanID() != 0 {
		t.Fatal("nil span accessors should be zero")
	}
}

func TestUntracedStartDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := Start(ctx, "hot")
		sp.Int("n", 1)
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("untraced Start allocates %.0f objects per call, want 0", allocs)
	}
}

func TestFailMarksTraceStatus(t *testing.T) {
	tr := New(Options{})
	_, root := tr.Start(context.Background(), "job")
	root.Fail(errors.New("boom"))
	root.End()
	got, _ := tr.Get(root.TraceID())
	if got.Err() != "boom" {
		t.Fatalf("Err=%q", got.Err())
	}
	if s := got.Summary(); s.Status != "error" || s.Error != "boom" {
		t.Fatalf("summary: %+v", s)
	}
}

// TestTailRetention verifies the slowest trace of an op survives
// arbitrarily many faster successors that wash the recency ring.
func TestTailRetention(t *testing.T) {
	tr := New(Options{Recent: 16})
	_, slow := tr.Start(context.Background(), "op")
	time.Sleep(20 * time.Millisecond)
	slow.End()
	slowID := slow.TraceID()

	for i := 0; i < 500; i++ {
		_, sp := tr.Start(context.Background(), "op")
		sp.End()
	}
	if _, ok := tr.Get(slowID); !ok {
		t.Fatal("slowest trace evicted despite tail retention")
	}
	// The recency ring is bounded: far fewer than 501 traces remain.
	if n := len(tr.List(Filter{Limit: 10000})); n > 16+slowPerOp {
		t.Fatalf("retained %d traces, want bounded by ring+slow", n)
	}
}

// TestRecentTracesAllRetained: after many traces, every one of the last
// Recent is still retrievable by ID.
func TestRecentTracesAllRetained(t *testing.T) {
	for _, recent := range []int{16, 64} {
		tr := New(Options{Recent: recent})
		ids := make([]string, 2000)
		for i := range ids {
			_, sp := tr.Start(context.Background(), "op")
			sp.End()
			ids[i] = sp.TraceID()
		}
		found := 0
		for _, id := range ids[len(ids)-recent:] {
			if _, ok := tr.Get(id); ok {
				found++
			}
		}
		if found != recent {
			t.Errorf("Recent %d: Get finds %d of the last %d traces", recent, found, recent)
		}
	}
}

func TestListFilters(t *testing.T) {
	tr := New(Options{})
	_, a := tr.Start(context.Background(), "fast")
	a.End()
	_, b := tr.Start(context.Background(), "slow")
	time.Sleep(15 * time.Millisecond)
	b.Fail(errors.New("bad"))
	b.End()

	if got := tr.List(Filter{Op: "slow"}); len(got) != 1 || got[0].ID() != b.TraceID() {
		t.Fatalf("op filter: %d results", len(got))
	}
	if got := tr.List(Filter{MinDur: 10 * time.Millisecond}); len(got) != 1 {
		t.Fatalf("minDur filter: %d results", len(got))
	}
	if got := tr.List(Filter{Status: "error"}); len(got) != 1 || got[0].Err() != "bad" {
		t.Fatalf("status=error filter: %d results", len(got))
	}
	if got := tr.List(Filter{Status: "ok"}); len(got) != 1 || got[0].Op() != "fast" {
		t.Fatalf("status=ok filter: %d results", len(got))
	}
	if got := tr.List(Filter{Limit: 1}); len(got) != 1 {
		t.Fatalf("limit: %d results", len(got))
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := New(Options{MaxSpans: 4})
	ctx, root := tr.Start(context.Background(), "job")
	for i := 0; i < 10; i++ {
		c, sp := Start(ctx, "child")
		if i >= 3 && sp != nil {
			t.Fatalf("span %d recorded past the cap", i)
		}
		if sp == nil && c != ctx {
			t.Fatal("capped Start must return the unchanged context")
		}
		sp.End()
	}
	root.End()
	got, _ := tr.Get(root.TraceID())
	if got.Len() != 4 || got.Dropped() != 7 {
		t.Fatalf("len=%d dropped=%d, want 4/7", got.Len(), got.Dropped())
	}
	if tree := got.Tree(); tree.Dropped != 7 {
		t.Fatalf("tree dropped=%d", tree.Dropped)
	}
}

func TestChromeExport(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.Start(context.Background(), "job")
	c1, child := Start(ctx, "phase")
	child.Int("n", 7)
	_, leaf := Start(c1, "leaf")
	leaf.End()
	child.End()
	root.End()

	got, _ := tr.Get(root.TraceID())
	evs := got.Chrome()
	if len(evs) != 3 {
		t.Fatalf("%d chrome events", len(evs))
	}
	tidByName := map[string]int{}
	for _, ev := range evs {
		if ev.Ph != "X" || ev.PID != 1 {
			t.Fatalf("bad event: %+v", ev)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("negative ts/dur: %+v", ev)
		}
		tidByName[ev.Name] = ev.TID
	}
	if tidByName["job"] != 0 || tidByName["phase"] != 1 || tidByName["leaf"] != 2 {
		t.Fatalf("depth lanes: %v", tidByName)
	}
}

// TestConcurrentTracing drives many goroutines through shared traces
// while a reader lists and exports continuously — the -race target.
func TestConcurrentTracing(t *testing.T) {
	tr := New(Options{Recent: 8})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, g := range tr.List(Filter{}) {
				g.Tree()
				g.Chrome()
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				ctx, root := tr.Start(context.Background(), fmt.Sprintf("op-%d", i%2))
				var inner sync.WaitGroup
				for c := 0; c < 4; c++ {
					inner.Add(1)
					go func(c int) {
						defer inner.Done()
						_, sp := Start(ctx, "child")
						sp.Int("c", int64(c))
						sp.End()
					}(c)
				}
				inner.Wait()
				root.End()
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-readerDone
}

func TestTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for n := uint64(1); n < 1000; n++ {
		id := traceID(n)
		if len(id) != 16 || seen[id] {
			t.Fatalf("bad/duplicate id %q at %d", id, n)
		}
		seen[id] = true
	}
}

// TestSpanObserverBridge verifies the span→event bridge: an observer
// installed on the root span sees every span end — concurrently ended
// children included — with name, duration, error and attribute snapshot.
func TestSpanObserverBridge(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.Start(context.Background(), "job")

	var mu sync.Mutex
	var got []SpanEnd
	root.Observe(func(se SpanEnd) {
		mu.Lock()
		got = append(got, se)
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := Start(ctx, "assess.cell")
			sp.Int("workload", int64(i))
			if i == 3 {
				sp.Fail(errors.New("boom"))
			}
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("observer saw %d span ends, want 5 (4 cells + root)", len(got))
	}
	cells, failed := 0, 0
	for _, se := range got {
		if se.TraceID != root.TraceID() {
			t.Errorf("span end carries trace %q, want %q", se.TraceID, root.TraceID())
		}
		if se.Name == "assess.cell" {
			cells++
			found := false
			for _, a := range se.Attrs {
				if a.Key == "workload" {
					found = true
				}
			}
			if !found {
				t.Errorf("cell span end lost its attrs: %+v", se)
			}
		}
		if se.Err != "" {
			failed++
		}
	}
	if cells != 4 || failed != 1 {
		t.Fatalf("cells=%d failed=%d, want 4/1", cells, failed)
	}
	// The last delivery is the root (it ended after every child here).
	if got[len(got)-1].Name != "job" {
		t.Errorf("last span end %q, want root", got[len(got)-1].Name)
	}
}

// TestObserverUnsetIsFree double-checks the no-observer path: spans end
// without delivering anywhere and a nil span ignores Observe.
func TestObserverUnsetIsFree(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.Start(context.Background(), "job")
	var nilSpan *Span
	nilSpan.Observe(func(SpanEnd) { t.Error("observer on nil span fired") })
	_, sp := Start(ctx, "child")
	sp.End()
	root.End()
}
