// Package trace is a stdlib-only span-tree tracer for the TRAP pipeline:
// per-request attribution that the aggregate counters and histograms of
// internal/obs cannot give. A traced operation is a tree of timed spans
// carrying attributes (workload index, epoch, batch size, cache hit/miss
// deltas); finished traces land in a lock-sharded ring-buffered store
// with two retention policies:
//
//   - recency: the last Recent traces, spread over the store's shards;
//   - tail latency: the slowest SlowPerOp traces per root operation are
//     always kept, however old, so the outliers that matter for p99
//     debugging survive churn from fast traces.
//
// Propagation is by context. Instrumented code calls
//
//	ctx, sp := trace.Start(ctx, "engine.cost_batch")
//	defer sp.End()
//	sp.Int("items", int64(len(items)))
//
// and pays nothing when no trace is active: Start returns a nil *Span
// (every method of which is a no-op) without allocating, so hot paths
// stay inside their allocs/op budgets unless a tracer was installed on
// the context by a root span (Tracer.Start).
//
// Layer labels the CPU samples of a coarse stage (advisor build,
// training, pretraining, measurement) with the same layer names as
// perfbench's self-time table, traced or not.
//
// All types are safe for concurrent use.
package trace

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed operation in a trace. A nil *Span is a valid no-op
// receiver for every method, which is what un-traced contexts produce.
type Span struct {
	tr     *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu     sync.Mutex
	dur    time.Duration
	ended  bool
	errMsg string
	attrs  []Attr
}

// Trace is one operation tree: a root span plus everything started under
// it. Spans append themselves on Start; once the root ends the trace is
// finished and immutable, and the tracer's store retains or drops it.
type Trace struct {
	id       string
	op       string // root span name
	start    time.Time
	tracer   *Tracer
	root     *Span
	nextID   atomic.Uint64
	observer atomic.Pointer[func(SpanEnd)]
	mu       sync.Mutex
	spans    []*Span
	dropped  int

	// set once at finish (root End), read-only afterwards
	done atomic.Bool
	dur  time.Duration
}

// ID returns the trace's identifier.
func (t *Trace) ID() string { return t.id }

// Op returns the root span's name.
func (t *Trace) Op() string { return t.op }

// Start returns the trace's start time.
func (t *Trace) Start() time.Time { return t.start }

// Duration returns the root span's duration (0 while still running).
func (t *Trace) Duration() time.Duration {
	if !t.done.Load() {
		return 0
	}
	return t.dur
}

// Err returns the root span's error message ("" on success).
func (t *Trace) Err() string {
	if t.root == nil {
		return ""
	}
	t.root.mu.Lock()
	defer t.root.mu.Unlock()
	return t.root.errMsg
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans were discarded past MaxSpans.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

type ctxKey struct{}

// FromContext returns the active span, or nil when ctx is untraced.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start begins a child of the span in ctx and returns the child-carrying
// context. When ctx carries no span (or the trace is at its span cap)
// Start is a no-op: it returns ctx unchanged and a nil span, without
// allocating, so un-traced hot paths pay only a context lookup.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.tr.newSpan(name, parent.id)
	if child == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, child), child
}

// newSpan allocates and registers a span, or returns nil at the cap.
func (t *Trace) newSpan(name string, parent uint64) *Span {
	sp := &Span{
		tr:     t,
		id:     t.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.tracer.maxSpans {
		t.dropped++
		return nil
	}
	t.spans = append(t.spans, sp)
	return sp
}

// TraceID returns the owning trace's ID ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// SpanID returns the span's ID within its trace (0 on a nil span).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Attr records an arbitrary attribute (boxes v; prefer the typed
// helpers on hot paths).
func (s *Span) Attr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.mu.Unlock()
}

// Int records an integer attribute.
func (s *Span) Int(key string, v int64) {
	if s == nil {
		return
	}
	s.Attr(key, v)
}

// Float records a float attribute.
func (s *Span) Float(key string, v float64) {
	if s == nil {
		return
	}
	s.Attr(key, v)
}

// Str records a string attribute.
func (s *Span) Str(key, v string) {
	if s == nil {
		return
	}
	s.Attr(key, v)
}

// Bool records a boolean attribute.
func (s *Span) Bool(key string, v bool) {
	if s == nil {
		return
	}
	s.Attr(key, v)
}

// SpanEnd is the span→event bridge payload: a snapshot of one finished
// span, delivered to the trace's observer the moment the span ends
// (while the rest of the trace is still running). It lets a subscriber
// stream pipeline progress — training epochs, measurement cells — at
// span granularity without polling the trace store.
type SpanEnd struct {
	TraceID string
	Name    string
	Dur     time.Duration
	Err     string
	Attrs   []Attr
}

// Observe installs fn as the span-end observer of the receiver's trace:
// every span of the trace (the receiver included) that ends after this
// call is delivered to fn, on the goroutine that ended it, so fn must be
// fast and safe for concurrent use. Only one observer is held; installing
// replaces. A nil span is a no-op. Untraced paths pay nothing: without an
// observer the delivery check is a single atomic load on span end.
func (s *Span) Observe(fn func(SpanEnd)) {
	if s == nil {
		return
	}
	s.tr.observer.Store(&fn)
}

// deliver snapshots the span and hands it to the trace's observer.
func (s *Span) deliver(fn func(SpanEnd), d time.Duration) {
	s.mu.Lock()
	se := SpanEnd{
		TraceID: s.tr.id,
		Name:    s.name,
		Dur:     d,
		Err:     s.errMsg,
		Attrs:   append([]Attr(nil), s.attrs...),
	}
	s.mu.Unlock()
	fn(se)
}

// Fail marks the span failed with the error's message. A nil err (or
// nil span) is a no-op, so `sp.Fail(err)` is safe on every return path.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// End stops the span's clock and returns its duration. Ending the root
// span finishes the trace and hands it to the tracer's store. End is
// idempotent; a nil span returns 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.ended {
		d := s.dur
		s.mu.Unlock()
		return d
	}
	s.ended = true
	s.dur = time.Since(s.start)
	d := s.dur
	s.mu.Unlock()
	if fn := s.tr.observer.Load(); fn != nil {
		s.deliver(*fn, d)
	}
	if t := s.tr.tracer; t != nil {
		if fn := t.onSpanEnd.Load(); fn != nil {
			s.deliver(*fn, d)
		}
	}
	if s.parent == 0 {
		s.tr.dur = d
		s.tr.done.Store(true)
		s.tr.tracer.finish(s.tr)
	}
	return d
}

// Options parameterizes a Tracer. The zero value gives the defaults.
type Options struct {
	// Recent bounds the recency ring across all shards (default 64).
	Recent int
	// SlowPerOp is the tail-retention width: the slowest N finished
	// traces of every root operation are always kept (default 8).
	SlowPerOp int
	// MaxSpans caps spans recorded per trace; further Start calls
	// return no-op spans and bump the trace's dropped counter
	// (default 4096). The store's memory bound is roughly
	// (Recent + SlowPerOp·ops) · MaxSpans · sizeof(span).
	MaxSpans int
}

const traceShards = 16

// Tracer records traces and retains a bounded set of finished ones.
type Tracer struct {
	maxSpans int
	seq      atomic.Uint64 // trace IDs

	// onSpanEnd is the tracer-global span-end callback (see SetOnSpanEnd):
	// unlike a per-trace observer it sees every span of every trace, at
	// the cost of one atomic load per span end when unset.
	onSpanEnd atomic.Pointer[func(SpanEnd)]

	shards [traceShards]traceShard // recency rings

	slowMu  sync.Mutex
	slowCap int
	slow    map[string][]*Trace // per-op, ascending by duration
}

// SetOnSpanEnd installs (or, with nil, removes) a tracer-global callback
// invoked on every span end, on the goroutine that ended the span — the
// hook a span collector (perfbench's self-time table) uses to see every
// span of every trace. The callback must be fast and safe for concurrent
// use; installing replaces any previous callback.
func (t *Tracer) SetOnSpanEnd(fn func(SpanEnd)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.onSpanEnd.Store(nil)
		return
	}
	t.onSpanEnd.Store(&fn)
}

type traceShard struct {
	mu   sync.Mutex
	ring []*Trace
	next int
}

// New builds a tracer with the given retention options.
func New(o Options) *Tracer {
	if o.Recent <= 0 {
		o.Recent = 64
	}
	if o.SlowPerOp <= 0 {
		o.SlowPerOp = 8
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = 4096
	}
	t := &Tracer{maxSpans: o.MaxSpans, slowCap: o.SlowPerOp, slow: map[string][]*Trace{}}
	per := (o.Recent + traceShards - 1) / traceShards
	if per < 1 {
		per = 1
	}
	for i := range t.shards {
		t.shards[i].ring = make([]*Trace, per)
	}
	return t
}

// Start begins a new root span (a new trace) under this tracer and
// returns a context that propagates it. A nil tracer records nothing: it
// returns ctx unchanged and a nil span.
func (t *Tracer) Start(ctx context.Context, op string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	n := t.seq.Add(1)
	tr := &Trace{id: traceID(n), op: op, start: time.Now(), tracer: t}
	root := tr.newSpan(op, 0)
	tr.root = root
	return context.WithValue(ctx, ctxKey{}, root), root
}

// traceID derives a stable, unique hex ID from the tracer sequence
// number via a splitmix64 scramble (no global RNG, no time dependence).
func traceID(n uint64) string {
	z := n + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[z&0xf]
		z >>= 4
	}
	return string(b[:])
}

// finish retains a finished trace: always in the recency ring, and in
// the per-op slow set when it ranks among the op's slowest.
func (t *Tracer) finish(tr *Trace) {
	sh := &t.shards[fnv(tr.id)%traceShards]
	sh.mu.Lock()
	sh.ring[sh.next] = tr
	sh.next = (sh.next + 1) % len(sh.ring)
	sh.mu.Unlock()

	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	s := t.slow[tr.op]
	i := sort.Search(len(s), func(i int) bool { return s[i].dur >= tr.dur })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = tr
	if len(s) > t.slowCap {
		s = s[1:] // drop the fastest
	}
	t.slow[tr.op] = s
}

func fnv(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Get returns a retained finished trace by ID.
func (t *Tracer) Get(id string) (*Trace, bool) {
	if t == nil {
		return nil, false
	}
	for _, tr := range t.retained() {
		if tr.id == id {
			return tr, true
		}
	}
	return nil, false
}

// Filter selects traces for List.
type Filter struct {
	// Op matches the root span name exactly ("" matches all).
	Op string
	// MinDur drops traces faster than this.
	MinDur time.Duration
	// Status filters by outcome: "", "ok" or "error".
	Status string
	// Limit bounds the result (0: 50).
	Limit int
}

// List returns retained traces matching f, most recent first.
func (t *Tracer) List(f Filter) []*Trace {
	if t == nil {
		return nil
	}
	if f.Limit <= 0 {
		f.Limit = 50
	}
	var out []*Trace
	for _, tr := range t.retained() {
		if f.Op != "" && tr.op != f.Op {
			continue
		}
		if tr.dur < f.MinDur {
			continue
		}
		if f.Status == "ok" && tr.Err() != "" {
			continue
		}
		if f.Status == "error" && tr.Err() == "" {
			continue
		}
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start.After(out[j].start) })
	if len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// retained snapshots every live trace (ring ∪ slow sets), deduplicated.
func (t *Tracer) retained() []*Trace {
	seen := map[string]bool{}
	var out []*Trace
	add := func(tr *Trace) {
		if tr != nil && !seen[tr.id] {
			seen[tr.id] = true
			out = append(out, tr)
		}
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, tr := range sh.ring {
			add(tr)
		}
		sh.mu.Unlock()
	}
	t.slowMu.Lock()
	for _, s := range t.slow {
		for _, tr := range s {
			add(tr)
		}
	}
	t.slowMu.Unlock()
	return out
}
