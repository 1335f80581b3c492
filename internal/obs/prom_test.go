package obs

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestWritePromDeterministicOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Add(3)
	r.Counter("aa_total").Inc()
	r.Gauge("mid_gauge").Set(1.5)
	r.GaugeFunc("fn_gauge", func() float64 { return 2 })
	h := r.Histogram("lat_seconds")
	h.Observe(0.25)
	h.Observe(4)
	for _, span := range []string{"e", "b", "d", "a", "c"} {
		r.Histogram(`span_seconds{span="` + span + `"}`).Observe(1)
	}

	var a, b bytes.Buffer
	if err := r.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	// Families appear in sorted order.
	var fams []string
	for _, line := range strings.Split(a.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams = append(fams, strings.Fields(rest)[0])
		}
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1] >= fams[i] {
			t.Fatalf("families out of order: %v", fams)
		}
	}
	if want := []string{"aa_total", "fn_gauge", "lat_seconds", "mid_gauge", "span_seconds", "zz_total"}; len(fams) != len(want) {
		t.Fatalf("families %v, want %v", fams, want)
	}
	// So do the labeled series of one histogram family.
	var spans []string
	for _, line := range strings.Split(a.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `span_seconds_count{span="`); ok {
			spans = append(spans, rest[:1])
		}
	}
	if got := strings.Join(spans, ""); got != "abcde" {
		t.Fatalf("labeled histogram series in order %q, want abcde", got)
	}
}

func TestWritePromHelpAndTypes(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total").Inc()
	r.Describe("jobs_total", "Jobs submitted.")
	r.Gauge("depth").Set(3)
	r.Histogram("lat_seconds").Observe(1)

	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs submitted.",
		"# TYPE jobs_total counter",
		"# TYPE depth gauge",
		"# TYPE lat_seconds histogram",
		"lat_seconds_sum 1",
		"lat_seconds_count 1",
		`lat_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWritePromBucketMonotonic feeds values across the full range
// (underflow included) and asserts cumulative bucket counts are
// non-decreasing in le order and end at the total count.
func TestWritePromBucketMonotonic(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds")
	for _, v := range []float64{-1, 0, 1e-12, 0.001, 0.5, 0.75, 3, 3.5, 1e6, 1e30} {
		h.Observe(v)
	}
	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	prevLe := math.Inf(-1)
	prevCum := int64(-1)
	buckets := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket{le=") {
			continue
		}
		buckets++
		rest := strings.TrimPrefix(line, `lat_seconds_bucket{le="`)
		q := strings.Index(rest, `"`)
		leStr, cntStr := rest[:q], strings.TrimSpace(rest[q+2:])
		le := math.Inf(1)
		if leStr != "+Inf" {
			var err error
			le, err = strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", leStr, err)
			}
		}
		cum, err := strconv.ParseInt(cntStr, 10, 64)
		if err != nil {
			t.Fatalf("bad count in %q: %v", line, err)
		}
		if le <= prevLe {
			t.Fatalf("le not increasing: %g after %g", le, prevLe)
		}
		if cum < prevCum {
			t.Fatalf("cumulative count decreased: %d after %d", cum, prevCum)
		}
		prevLe, prevCum = le, cum
	}
	if buckets < 5 {
		t.Fatalf("only %d bucket lines", buckets)
	}
	if !math.IsInf(prevLe, 1) || prevCum != 10 {
		t.Fatalf("last bucket le=%g cum=%d, want +Inf/10", prevLe, prevCum)
	}
}

func TestWritePromLabeledSeriesShareFamily(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc(`cache_entries{dataset="tpch"}`, func() float64 { return 10 })
	r.GaugeFunc(`cache_entries{dataset="tpcds"}`, func() float64 { return 20 })
	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE cache_entries gauge") != 1 {
		t.Fatalf("want one family header for labeled series:\n%s", out)
	}
	if !strings.Contains(out, `cache_entries{dataset="tpch"} 10`) ||
		!strings.Contains(out, `cache_entries{dataset="tpcds"} 20`) {
		t.Fatalf("labeled series missing:\n%s", out)
	}
}

// TestRegistryConcurrentScrape races metric get-or-create and writes
// against continuous exposition and against Values
// (-race target: registry writes racing a /metrics scrape are safe).
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				r.Counter(fmt.Sprintf("c%d_total", k%17)).Inc()
				r.Gauge(fmt.Sprintf("g%d", k%13)).Add(1)
				r.Histogram(fmt.Sprintf("h%d_seconds", k%7)).Observe(float64(k%10) + 0.1)
				r.Describe(fmt.Sprintf("c%d_total", k%17), "racing help")
				r.GaugeFunc(fmt.Sprintf("fn%d", k%5), func() float64 { return float64(i) })
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				var b bytes.Buffer
				if err := r.WriteProm(&b); err != nil {
					t.Error(err)
					return
				}
				_ = r.Values()
			}
		}(i)
	}
	wg.Wait()
}

func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeGauges(r)
	// Force a GC so the pause histogram has data.
	runtime.GC()
	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{"go_goroutines", "go_heap_inuse_bytes", "go_gc_pause_p99_seconds"} {
		if !strings.Contains(out, "# TYPE "+name+" gauge") {
			t.Fatalf("missing %s family:\n%s", name, out)
		}
	}
	val := func(name string) float64 {
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("parse %s: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("missing %s value", name)
		return 0
	}
	if v := val("go_goroutines"); v < 1 {
		t.Fatalf("go_goroutines = %g", v)
	}
	if v := val("go_heap_inuse_bytes"); v <= 0 {
		t.Fatalf("go_heap_inuse_bytes = %g", v)
	}
	if v := val("go_gc_pause_p99_seconds"); v < 0 || v > 10 {
		t.Fatalf("go_gc_pause_p99_seconds = %g", v)
	}
}
