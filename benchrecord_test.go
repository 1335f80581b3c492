package trap

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchRecord is one line of BENCH_perfbench.jsonl: one side of one
// perfbench measurement of a workload. Rev is the commit the pair was
// measured against, and Side says whether the line times that commit
// ("parent") or the change on top of it ("change").
type benchRecord struct {
	Rev        string                `json:"rev"`
	Side       string                `json:"side"`
	Workload   string                `json:"workload"`
	Seeds      []int64               `json:"seeds"`
	Seconds    float64               `json:"seconds"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Metrics    map[string]benchStats `json:"metrics"`
	// Traced holds the self.* and cpu.* shares of one traced run.
	Traced map[string]float64 `json:"traced"`
}

// benchStats are an end-to-end metric's median and quartiles over a
// side's runs.
type benchStats struct {
	Median *float64 `json:"median"`
	Q1     *float64 `json:"q1"`
	Q3     *float64 `json:"q3"`
}

// TestBenchRecord checks the committed measurement record: every line
// parses, names a workload BENCHMARK.json declares, and carries the
// median and quartiles of every end-to-end metric it declares.
func TestBenchRecord(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads := map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}

	f, err := os.Open("BENCH_perfbench.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	n := 0
	for sc.Scan() {
		n++
		var r benchRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if r.Rev == "" || (r.Side != "parent" && r.Side != "change") {
			t.Errorf("line %d: rev %q side %q, want a revision and parent or change", n, r.Rev, r.Side)
		}
		if !workloads[r.Workload] {
			t.Errorf("line %d: workload %q is not in BENCHMARK.json", n, r.Workload)
		}
		if len(r.Seeds) == 0 || r.Seconds <= 0 || r.GOMAXPROCS <= 0 {
			t.Errorf("line %d: seeds %v, seconds %v, gomaxprocs %d", n, r.Seeds, r.Seconds, r.GOMAXPROCS)
		}
		for _, m := range decl.EndToEnd {
			s, ok := r.Metrics[m.Name]
			switch {
			case !ok || s.Median == nil || s.Q1 == nil || s.Q3 == nil:
				t.Errorf("line %d: %s lacks %s's median and quartiles", n, r.Workload, m.Name)
			case *s.Q1 > *s.Median || *s.Median > *s.Q3:
				t.Errorf("line %d: %s quartiles out of order: %v %v %v", n, m.Name, *s.Q1, *s.Median, *s.Q3)
			}
		}
		var self, cpu int
		for k := range r.Traced {
			switch {
			case strings.HasPrefix(k, "self."):
				self++
			case strings.HasPrefix(k, "cpu."):
				cpu++
			default:
				t.Errorf("line %d: traced share %q is neither self.* nor cpu.*", n, k)
			}
		}
		if self == 0 || cpu == 0 {
			t.Errorf("line %d: %d self.* and %d cpu.* traced shares, want both", n, self, cpu)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("BENCH_perfbench.jsonl has no lines")
	}
}
