package trace

import (
	"sort"
	"time"
)

// SpanJSON is the wire form of one span in a trace tree.
type SpanJSON struct {
	ID       uint64         `json:"id"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	DurMicro int64          `json:"durUs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Error    string         `json:"error,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
}

// TraceJSON is the wire form of a finished trace: its summary plus the
// root of the span tree.
type TraceJSON struct {
	ID       string    `json:"id"`
	Op       string    `json:"op"`
	Start    time.Time `json:"start"`
	DurMicro int64     `json:"durUs"`
	Status   string    `json:"status"`
	Error    string    `json:"error,omitempty"`
	Spans    int       `json:"spans"`
	Dropped  int       `json:"dropped,omitempty"`
	Root     *SpanJSON `json:"root,omitempty"`
}

// Summary renders the trace's header without the span tree (the list
// endpoint's row format).
func (t *Trace) Summary() TraceJSON {
	out := TraceJSON{
		ID:       t.id,
		Op:       t.op,
		Start:    t.start,
		DurMicro: t.Duration().Microseconds(),
		Status:   "ok",
		Spans:    t.Len(),
		Dropped:  t.Dropped(),
	}
	if msg := t.Err(); msg != "" {
		out.Status = "error"
		out.Error = msg
	}
	return out
}

// Tree renders the trace with its full span tree. Spans whose parent
// was dropped at the span cap are grafted onto the root so nothing
// recorded is lost from the export.
func (t *Trace) Tree() TraceJSON {
	out := t.Summary()
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	if len(spans) == 0 {
		return out
	}
	nodes := make(map[uint64]*SpanJSON, len(spans))
	for _, sp := range spans {
		nodes[sp.id] = sp.json()
	}
	var root *SpanJSON
	for _, sp := range spans {
		n := nodes[sp.id]
		if sp.parent == 0 {
			root = n
			continue
		}
		if p, ok := nodes[sp.parent]; ok {
			p.Children = append(p.Children, n)
		} else if root != nil {
			root.Children = append(root.Children, n)
		}
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool {
			if n.Children[i].Start.Equal(n.Children[j].Start) {
				return n.Children[i].ID < n.Children[j].ID
			}
			return n.Children[i].Start.Before(n.Children[j].Start)
		})
	}
	out.Root = root
	return out
}

// json snapshots one span (attrs flattened to a map; later duplicates of
// a key win, matching "last write sticks" semantics).
func (s *Span) json() *SpanJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &SpanJSON{
		ID:       s.id,
		Name:     s.name,
		Start:    s.start,
		DurMicro: s.dur.Microseconds(),
		Error:    s.errMsg,
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	return out
}

// ChromeEvent is one entry of the Chrome trace_event format ("X"
// complete events), loadable in chrome://tracing or Perfetto.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`  // microseconds since trace start
	Dur  int64          `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Chrome exports the trace in the Chrome trace_event format. Spans are
// laid out one thread-lane per tree depth, which renders nested spans
// correctly; concurrent siblings at the same depth share a lane and may
// visually overlap (the JSON itself stays exact).
func (t *Trace) Chrome() []ChromeEvent {
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	depth := map[uint64]int{}
	var depthOf func(sp *Span) int
	byID := make(map[uint64]*Span, len(spans))
	for _, sp := range spans {
		byID[sp.id] = sp
	}
	depthOf = func(sp *Span) int {
		if d, ok := depth[sp.id]; ok {
			return d
		}
		d := 0
		if p, ok := byID[sp.parent]; ok && sp.parent != 0 {
			d = depthOf(p) + 1
		}
		depth[sp.id] = d
		return d
	}
	out := make([]ChromeEvent, 0, len(spans))
	for _, sp := range spans {
		j := sp.json()
		ev := ChromeEvent{
			Name: j.Name,
			Cat:  t.op,
			Ph:   "X",
			TS:   j.Start.Sub(t.start).Microseconds(),
			Dur:  j.DurMicro,
			PID:  1,
			TID:  depthOf(sp),
			Args: j.Attrs,
		}
		if j.Error != "" {
			if ev.Args == nil {
				ev.Args = map[string]any{}
			}
			ev.Args["error"] = j.Error
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}
