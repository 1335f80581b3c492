package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Prometheus-compatible exposition: # HELP/# TYPE headers per metric
// family and cumulative _bucket/_sum/_count series for histograms.

// ContentTypeProm is the text exposition format v0.0.4 content type.
const ContentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// promBucket is one emitted histogram boundary.
type promBucket struct {
	le  float64 // upper bound (inclusive), +Inf for the last
	cum int64   // cumulative count of observations <= le
}

// promSnapshot condenses the 8-per-pow2 internal buckets to
// power-of-two exposition boundaries under one lock hold: boundaries
// whose bucket is empty are skipped (the cumulative counts stay exact
// and monotone).
func (h *Histogram) promSnapshot() (bs []promBucket, count int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := h.under
	for p := 0; p < histMaxPow2-histMinPow2; p++ {
		var n int64
		for i := p * histBucketsPerPow2; i < (p+1)*histBucketsPerPow2; i++ {
			n += h.buckets[i]
		}
		cum += n
		if n == 0 {
			continue
		}
		bs = append(bs, promBucket{le: math.Exp2(float64(p + 1 + histMinPow2)), cum: cum})
	}
	bs = append(bs, promBucket{le: math.Inf(1), cum: h.count})
	return bs, h.count, h.sum
}

// familyName strips a label suffix: `name{k="v"}` → `name`.
func familyName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// suffixed appends a series suffix to a possibly-labeled name, ahead of
// its labels: suffixed(`m{a="b"}`, `_sum`) → `m_sum{a="b"}`.
func suffixed(name, suffix string) string {
	fam := familyName(name)
	return fam + suffix + name[len(fam):]
}

// labelEscaper rewrites a label value per the exposition format:
// backslash, double-quote and newline must be escaped inside quoted
// label values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabelValue renders a raw string safe for use inside a quoted
// label value.
func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// helpEscaper rewrites HELP text: only backslash and newline are
// escaped there (quotes are legal in HELP lines).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeHelp renders a raw string safe for a # HELP line.
func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// withLabel splices an extra label into a possibly-labeled series name,
// escaping the value:
// withLabel(`m`, `le`, `1`) → `m{le="1"}`;
// withLabel(`m{a="b"}`, `le`, `1`) → `m{a="b",le="1"}`.
func withLabel(name, key, val string) string {
	val = escapeLabelValue(val)
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + key + "=\"" + val + "\"}"
	}
	return name + "{" + key + "=\"" + val + "\"}"
}

// formatLe renders a bucket boundary the way Prometheus expects.
func formatLe(le float64) string {
	if math.IsInf(le, 1) {
		return "+Inf"
	}
	return trimFloat(le)
}

// trimFloat formats a float compactly
func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// promFamily is one metric family being assembled for exposition.
type promFamily struct {
	name  string
	typ   string // counter | gauge | histogram
	lines []string
}

// WriteProm renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE (and # HELP where described)
// header per family, families and series sorted by name, histograms
// expanded to cumulative _bucket/_sum/_count series.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.RLock()
	fams := map[string]*promFamily{}
	family := func(name, typ string) *promFamily {
		fam := fams[name]
		if fam == nil {
			fam = &promFamily{name: name, typ: typ}
			fams[name] = fam
		}
		return fam
	}
	for n, c := range r.counters {
		fam := family(familyName(n), "counter")
		fam.lines = append(fam.lines, fmt.Sprintf("%s %d", n, c.Value()))
	}
	for n, g := range r.gauges {
		fam := family(familyName(n), "gauge")
		fam.lines = append(fam.lines, fmt.Sprintf("%s %g", n, g.Value()))
	}
	fns := make(map[string]func() float64, len(r.gaugeFuncs))
	for n, fn := range r.gaugeFuncs {
		fns[n] = fn
	}
	type histEntry struct {
		name string
		h    *Histogram
	}
	var hists []histEntry
	for n, h := range r.hists {
		hists = append(hists, histEntry{n, h})
	}
	help := make(map[string]string, len(r.help))
	for n, h := range r.help {
		help[n] = h
	}
	r.mu.RUnlock()

	// Histograms and callback gauges are rendered outside the registry
	// lock: snapshots take the histogram locks, callbacks may take
	// arbitrary locks of their own (e.g. an engine's cache mutex).
	// Histograms render in name order, so the labeled series of one
	// family keep a fixed order.
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for n, fn := range fns {
		fam := family(familyName(n), "gauge")
		fam.lines = append(fam.lines, fmt.Sprintf("%s %g", n, fn()))
	}
	for _, he := range hists {
		fam := family(familyName(he.name), "histogram")
		bs, count, sum := he.h.promSnapshot()
		for _, b := range bs {
			fam.lines = append(fam.lines, fmt.Sprintf("%s %d",
				withLabel(suffixed(he.name, "_bucket"), "le", formatLe(b.le)), b.cum))
		}
		fam.lines = append(fam.lines,
			fmt.Sprintf("%s %g", suffixed(he.name, "_sum"), sum),
			fmt.Sprintf("%s %d", suffixed(he.name, "_count"), count))
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fam := fams[n]
		if h := help[n]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", n, escapeHelp(h)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, fam.typ); err != nil {
			return err
		}
		// Series within one family sort lexically, except histogram
		// buckets, which keep their ascending-le order (lexical sorting
		// would shuffle numeric boundaries).
		if fam.typ != "histogram" {
			sort.Strings(fam.lines)
		}
		for _, l := range fam.lines {
			if _, err := fmt.Fprintln(w, l); err != nil {
				return err
			}
		}
	}
	return nil
}
