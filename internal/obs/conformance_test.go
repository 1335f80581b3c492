package obs

// Exposition-conformance tests: the details Prometheus scrapers are
// strict about — label-value escaping and HELP-before-TYPE header
// ordering.

import (
	"strings"
	"testing"
)

func TestLabelValueEscaping(t *testing.T) {
	// withLabel must escape a spliced value's quote, backslash and
	// newline: a raw one would break line-oriented parsers.
	if got := withLabel("m", "k", `a"b\c`+"\nd"); got != `m{k="a\"b\\c\nd"}` {
		t.Fatalf("withLabel escaping: %s", got)
	}
	// A labeled histogram's buckets splice le into its existing labels.
	r := NewRegistry()
	r.Histogram(`span_seconds{span="rl.epoch"}`).Observe(0.5)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if want := `span_seconds_bucket{span="rl.epoch",le="+Inf"} 1`; !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("exposition missing %q:\n%s", want, b.String())
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	r.Describe("x_total", "line one\nline two \\ backslash")
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_total line one\nline two \\ backslash`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("HELP not escaped:\n%s", b.String())
	}
}

func TestHelpTypeOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.Describe("a_total", "a counter")
	r.Gauge("b_gauge").Set(1)
	r.Describe("b_gauge", "a gauge")
	r.Histogram("c_seconds").Observe(0.25)
	r.Describe("c_seconds", "a histogram")
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	// Per family: # HELP (when described) must directly precede # TYPE,
	// and both precede every sample of that family. Families sort by name.
	var order []string
	for i, l := range lines {
		if strings.HasPrefix(l, "# HELP ") {
			name := strings.Fields(l)[2]
			order = append(order, name)
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Fatalf("HELP for %s not directly followed by its TYPE:\n%s", name, b.String())
			}
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("families out of order: %v", order)
		}
	}
	// No sample may appear before its family's TYPE header.
	seenType := map[string]bool{}
	for _, l := range lines {
		if strings.HasPrefix(l, "# TYPE ") {
			seenType[strings.Fields(l)[2]] = true
			continue
		}
		if strings.HasPrefix(l, "#") || l == "" {
			continue
		}
		fam := familyName(strings.Fields(l)[0])
		fam = strings.TrimSuffix(fam, "_bucket")
		fam = strings.TrimSuffix(fam, "_sum")
		fam = strings.TrimSuffix(fam, "_count")
		if !seenType[fam] && !seenType[strings.Fields(l)[0]] {
			t.Fatalf("sample %q before its TYPE header:\n%s", l, b.String())
		}
	}
}
