package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"

	"github.com/trap-repro/trap/internal/trace"
)

// tracing is the state of a traced run: the tracer whose root spans the
// benchmark opens, the span-end records it collects in memory, the
// wall-attributed self time per span name, and the CPU-profile samples
// per layer.
type tracing struct {
	tr *trace.Tracer

	mu   sync.Mutex
	ends []trace.SpanEnd

	self map[string]float64 // span name → wall-attributed self seconds
	recs int                // Recommend intervals folded in
	wall float64            // wall seconds of the traced ops
	cpu  map[string]float64 // layer bucket → CPU samples
	prof bytes.Buffer
}

func newTracing() *tracing {
	return &tracing{
		// Large retention: trapd's job traces are read back after the
		// load ends, and one attack trace can hold thousands of spans.
		tr:   trace.New(trace.Options{Recent: 8192, MaxSpans: 1 << 16}),
		self: map[string]float64{},
		cpu:  map[string]float64{},
	}
}

// collect starts keeping every span end in memory.
func (tg *tracing) collect() {
	tg.tr.SetOnSpanEnd(func(se trace.SpanEnd) {
		tg.mu.Lock()
		tg.ends = append(tg.ends, se)
		tg.mu.Unlock()
	})
}

// close detaches the span collector.
func (tg *tracing) close() { tg.tr.SetOnSpanEnd(nil) }

func (tg *tracing) startProfile() error {
	tg.prof.Reset()
	if err := pprof.StartCPUProfile(&tg.prof); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	return nil
}

// stopProfile ends the CPU profile and adds its samples to the layer
// buckets.
func (tg *tracing) stopProfile() error {
	pprof.StopCPUProfile()
	b, err := profileBuckets(tg.prof.Bytes())
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	for k, v := range b {
		tg.cpu[k] += v
	}
	return nil
}

// spanTotals returns the count and summed duration (seconds) of every
// collected span, by name.
func (tg *tracing) spanTotals() (count, secs map[string]float64) {
	tg.mu.Lock()
	defer tg.mu.Unlock()
	count, secs = map[string]float64{}, map[string]float64{}
	for _, se := range tg.ends {
		count[se.Name]++
		secs[se.Name] += se.Dur.Seconds()
	}
	return count, secs
}

// foldTrace attributes one finished trace's wall time to its spans (plus
// the recorded Recommend intervals) and adds it to the run's self-time
// table and to tot. wall is the op's wall time as the benchmark measured it.
func (tg *tracing) foldTrace(id string, recs []interval, wall float64, tot *layerTotals) {
	t, ok := tg.tr.Get(id)
	if !ok {
		return
	}
	self := selfTimes(t.Tree().Root, recs)
	tg.recs += len(recs)
	if tot.selfGroups == nil {
		tot.selfGroups = map[string]float64{}
	}
	for name, s := range self {
		tg.self[name] += s
		tot.selfGroups[selfGroup(name)] += s
		tot.selfWall += s
	}
	tot.coveredWall += wall
	tg.wall += wall
}

// selfNode is one span (or recorded Recommend call) in the sweep.
type selfNode struct {
	name       string
	start, end int64 // unix nanoseconds
	parent     int   // index into the node slice; -1 for the root
	depth      int
}

// selfTimes attributes a trace's wall time to span names. At every
// instant the active spans with no active child ("leaves") share the
// instant equally, so concurrent siblings split it and the attributed
// times sum to the root's duration. For a sequential trace this is the
// usual self time: a span's duration minus what its children cover.
//
// Recommend calls carry no context, so their intervals are placed under
// the deepest span that contains them in time; under the measurement
// pool that can be a concurrent sibling's span, which moves time between
// spans of the same op but never changes the total.
func selfTimes(root *trace.SpanJSON, recs []interval) map[string]float64 {
	out := map[string]float64{}
	if root == nil {
		return out
	}
	var nodes []selfNode
	var walk func(s *trace.SpanJSON, parent, depth int)
	walk = func(s *trace.SpanJSON, parent, depth int) {
		start := s.Start.UnixNano()
		nodes = append(nodes, selfNode{s.Name, start, start + s.DurMicro*1000, parent, depth})
		me := len(nodes) - 1
		for _, c := range s.Children {
			walk(c, me, depth+1)
		}
	}
	walk(root, -1, 0)
	spans := len(nodes)
	for _, iv := range recs {
		s, e := iv.start.UnixNano(), iv.end.UnixNano()
		best := -1
		for i := 0; i < spans; i++ {
			n := nodes[i]
			if n.start <= s && e <= n.end && (best < 0 || n.depth > nodes[best].depth) {
				best = i
			}
		}
		if best < 0 {
			continue // outside the op's root span
		}
		nodes = append(nodes, selfNode{"advisor.recommend", s, e, best, nodes[best].depth + 1})
	}

	type event struct {
		t    int64
		i    int
		open bool
	}
	evs := make([]event, 0, 2*len(nodes))
	for i, n := range nodes {
		evs = append(evs, event{n.start, i, true}, event{n.end, i, false})
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].t < evs[b].t })
	active := make([]bool, len(nodes))
	kids := make([]int, len(nodes)) // active children per node
	leaves := map[int]bool{}
	for k, ev := range evs {
		if k > 0 && len(leaves) > 0 {
			share := float64(ev.t-evs[k-1].t) / 1e9 / float64(len(leaves))
			for i := range leaves {
				out[nodes[i].name] += share
			}
		}
		p := nodes[ev.i].parent
		if ev.open {
			active[ev.i] = true
			if kids[ev.i] == 0 {
				leaves[ev.i] = true
			}
			if p >= 0 {
				kids[p]++
				delete(leaves, p)
			}
			continue
		}
		active[ev.i] = false
		delete(leaves, ev.i)
		if p >= 0 {
			kids[p]--
			if active[p] && kids[p] == 0 {
				leaves[p] = true
			}
		}
	}
	return out
}

// selfGroupNames are the layer groups of the self-time table, reported
// as self.<group> shares of the traced wall time.
var selfGroupNames = []string{"setup", "advisor_build", "pretrain", "train", "recommend", "engine", "measure", "perturb", "service", "bench"}

// selfGroup maps a span name to its layer group.
func selfGroup(name string) string {
	switch {
	case name == "bench.suite_build":
		return "setup"
	case name == "bench.build_advisor" || name == "assess.build_advisor":
		return "advisor_build"
	case name == "core.pretrain" || strings.HasPrefix(name, "pretrain."):
		return "pretrain"
	case name == "bench.build_method" || name == "assess.build_method" ||
		name == "core.rl_train" || strings.HasPrefix(name, "rl."):
		return "train"
	case name == "advisor.recommend":
		return "recommend"
	case strings.HasPrefix(name, "engine."):
		return "engine"
	case name == "bench.measure" || name == "assess.measure" || name == "assess.cell":
		return "measure"
	case name == "core.perturb_workload":
		return "perturb"
	case name == "trapd.job" || strings.HasPrefix(name, "bench.http."):
		return "service"
	}
	return "bench"
}

// printSelfTable prints the per-span self-time table of the traced ops.
func (tg *tracing) printSelfTable(w io.Writer) {
	count, secs := tg.spanTotals()
	names := make([]string, 0, len(tg.self))
	var total float64
	for n, s := range tg.self {
		names = append(names, n)
		total += s
	}
	sort.Slice(names, func(i, j int) bool { return tg.self[names[i]] > tg.self[names[j]] })
	fmt.Fprintf(w, "self-time table (wall-attributed; traced wall %.3fs, self sum %.3fs)\n", tg.wall, total)
	fmt.Fprintf(w, "  %-24s %-14s %8s %12s %12s %8s\n", "span", "group", "count", "total_s", "self_s", "share")
	for _, n := range names {
		share := 0.0
		if tg.wall > 0 {
			share = tg.self[n] / tg.wall
		}
		c := count[n]
		if n == "advisor.recommend" {
			c = float64(tg.recs) // recorded by the decorator, not a tracer span
		}
		fmt.Fprintf(w, "  %-24s %-14s %8.0f %12.4f %12.4f %8.4f\n", n, selfGroup(n), c, secs[n], tg.self[n], share)
	}
}

// writeSpans writes every collected span-end record, one JSON object a
// line, under .bench_build/traces/.
func (tg *tracing) writeSpans(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	tg.mu.Lock()
	ends := append([]trace.SpanEnd(nil), tg.ends...)
	tg.mu.Unlock()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, se := range ends {
		if err := enc.Encode(map[string]any{"trace": se.TraceID, "name": se.Name,
			"dur_s": se.Dur.Seconds(), "err": se.Err, "attrs": se.Attrs}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
