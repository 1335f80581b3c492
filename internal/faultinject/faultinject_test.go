package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilInjectorIsNoop(t *testing.T) {
	if err := Fire(nil, PointEngineCost); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	// A typed-nil *Seeded inside the interface (what Parse returns for
	// an empty spec) bypasses the interface nil check; it must still be
	// a disarmed no-op, not a nil dereference.
	disarmed, err := Parse("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Fire(disarmed, PointEngineCost); err != nil {
		t.Fatalf("disarmed injector fired: %v", err)
	}
}

func TestEveryAfterCount(t *testing.T) {
	in := NewSeeded(1, Rule{Point: "p", Action: ActError, Every: 3, After: 2, Count: 2})
	var fired []int
	for hit := 1; hit <= 15; hit++ {
		if err := in.Fire("p"); err != nil {
			fired = append(fired, hit)
			var ie *Error
			if !errors.As(err, &ie) || ie.Point != "p" || ie.Hit != uint64(hit) {
				t.Fatalf("wrong error payload: %v", err)
			}
		}
	}
	// After=2 skips hits 1-2; Every=3 fires on hits 5, 8, 11, ...;
	// Count=2 stops after two fires.
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 8 {
		t.Fatalf("fired on hits %v, want [5 8]", fired)
	}
	if in.Hits("p") != 15 || in.Fired("p") != 2 {
		t.Fatalf("hits=%d fired=%d", in.Hits("p"), in.Fired("p"))
	}
}

func TestProbabilisticRulesAreSeedDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := NewSeeded(seed, Rule{Point: "p", Action: ActError, Prob: 0.5})
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.Fire("p") != nil)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different fire patterns")
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical 64-hit patterns")
	}
}

func TestPanicAction(t *testing.T) {
	in := NewSeeded(1, Rule{Point: "p", Action: ActPanic, Every: 1, Count: 1})
	func() {
		defer func() {
			p, ok := recover().(*Panic)
			if !ok || p.Point != "p" {
				t.Fatalf("recover() = %v, want *Panic at p", p)
			}
		}()
		_ = in.Fire("p")
		t.Fatal("expected panic")
	}()
	// Count=1: the second hit passes through.
	if err := in.Fire("p"); err != nil {
		t.Fatalf("second hit should pass: %v", err)
	}
}

func TestDelayAction(t *testing.T) {
	in := NewSeeded(1, Rule{Point: "p", Action: ActDelay, Every: 1, Delay: 30 * time.Millisecond})
	t0 := time.Now()
	if err := in.Fire("p"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 30*time.Millisecond {
		t.Errorf("delay rule slept %v, want >= 30ms", d)
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("core.rl.epoch:error:count=1;engine.cost:delay:every=100,delay=5ms", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(in.rules))
	}
	r := in.rules[1]
	if r.Point != "engine.cost" || r.Action != ActDelay || r.Every != 100 || r.Delay != 5*time.Millisecond {
		t.Fatalf("rule parsed wrong: %+v", r)
	}
	// Bare point:action defaults to every hit.
	if in.rules[0].Every != 1 {
		t.Fatalf("bare rule Every = %d, want 1", in.rules[0].Every)
	}

	if in, err := Parse("", 1); in != nil || err != nil {
		t.Errorf("empty spec: %v %v", in, err)
	}
	for _, bad := range []string{"p", "p:explode", "p:error:every", "p:error:every=x", "p:error:bogus=1"} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestConcurrentFire(t *testing.T) {
	in := NewSeeded(1, Rule{Point: "p", Action: ActError, Every: 2})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fires := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if in.Fire("p") != nil {
					mu.Lock()
					fires++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if in.Hits("p") != 800 {
		t.Fatalf("hits = %d", in.Hits("p"))
	}
	if fires != 400 || in.Fired("p") != 400 {
		t.Fatalf("fires = %d / %d, want 400", fires, in.Fired("p"))
	}
}
