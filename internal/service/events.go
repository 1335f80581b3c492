package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// JobEvent is one entry in a job's progress stream, delivered over
// GET /v1/jobs/{id}/events as a Server-Sent Event. Seq is the SSE event
// ID: clients resume after a disconnect by replaying it back in the
// Last-Event-ID header.
type JobEvent struct {
	Seq  int64     `json:"seq"`
	Type string    `json:"type"`
	Time time.Time `json:"time"`
	// Status accompanies "state" events.
	Status JobStatus `json:"status,omitempty"`
	// Epoch accompanies "epoch" events (1-based: epochs completed).
	Epoch int `json:"epoch,omitempty"`
	// Workload and Pairs accompany "cell" events (one measurement cell
	// finished). Workload is a pointer so index 0 survives omitempty.
	Workload *int `json:"workload,omitempty"`
	Pairs    int  `json:"pairs,omitempty"`
	// Error accompanies terminal "state" events of failed jobs.
	Error string `json:"error,omitempty"`
	// Result accompanies the "result" event of a successful job.
	Result *JobResult `json:"result,omitempty"`
	// Points accompanies "telemetry" events: the rl_* attributes of the
	// epoch's rl.epoch span (rl_loss, rl_mean_reward, ...), keyed by
	// series name.
	Points map[string]float64 `json:"points,omitempty"`
}

// Progress-stream event types.
const (
	evState     = "state"     // lifecycle transition (pending/running/terminal)
	evEpoch     = "epoch"     // one RL training epoch finished
	evCell      = "cell"      // one measurement cell finished
	evResult    = "result"    // final result of a successful job
	evTelemetry = "telemetry" // per-epoch training-series values
)

// jobHub fans one job's events out to its SSE subscribers. It keeps a
// bounded backlog so a client that reconnects with Last-Event-ID can
// catch up on everything it missed (until the backlog overflows, at
// which point the oldest events are gone and the client restarts from
// the oldest retained one).
type jobHub struct {
	mu      sync.Mutex
	base    int64 // Seq of backlog[0]
	backlog []JobEvent
	subs    map[chan JobEvent]struct{}
	closed  bool
}

const (
	// hubBacklog bounds the per-job replay buffer.
	hubBacklog = 1024
	// subBuffer is each subscriber's channel depth; a consumer that
	// falls this far behind is evicted (its channel is closed) rather
	// than allowed to block the publisher.
	subBuffer = 256
)

// sseHeartbeat is the comment-heartbeat interval of an idle progress
// stream (a variable only so a test can shorten it).
var sseHeartbeat = 15 * time.Second

func newJobHub() *jobHub {
	return &jobHub{base: 1, subs: map[chan JobEvent]struct{}{}}
}

// publish appends the event to the backlog (assigning its Seq) and
// fans it out. Slow subscribers are evicted, never waited on.
func (h *jobHub) publish(ev JobEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	ev.Seq = h.base + int64(len(h.backlog))
	ev.Time = time.Now()
	h.backlog = append(h.backlog, ev)
	if over := len(h.backlog) - hubBacklog; over > 0 {
		h.backlog = append(h.backlog[:0], h.backlog[over:]...)
		h.base += int64(over)
	}
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
			delete(h.subs, ch)
			close(ch)
		}
	}
}

// subscribe returns the retained events after seq `after` (0 replays
// the whole backlog) plus a live channel, or a nil channel when the hub
// is closed (the job is terminal: the backlog is all there will be).
func (h *jobHub) subscribe(after int64) ([]JobEvent, chan JobEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var replay []JobEvent
	if idx := after - h.base + 1; idx < int64(len(h.backlog)) {
		if idx < 0 {
			idx = 0
		}
		replay = append(replay, h.backlog[idx:]...)
	}
	if h.closed {
		return replay, nil
	}
	ch := make(chan JobEvent, subBuffer)
	h.subs[ch] = struct{}{}
	return replay, ch
}

// unsubscribe removes the channel (eviction may have removed it first).
func (h *jobHub) unsubscribe(ch chan JobEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
}

// publishState streams the job's lifecycle state and, once the job is
// terminal, its result (when it succeeded), then completes the stream.
func (h *jobHub) publishState(j Job) {
	h.publish(JobEvent{Type: evState, Status: j.Status, Error: j.Error})
	if !j.Status.terminal() {
		return
	}
	if j.Status == JobDone && j.Result != nil {
		h.publish(JobEvent{Type: evResult, Result: j.Result})
	}
	h.closeHub()
}

// closeHub marks the stream complete: live subscribers are closed (the
// handler then ends the response) and future subscribers get only the
// backlog.
func (h *jobHub) closeHub() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}

// ended reports whether the stream is complete.
func (h *jobHub) ended() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// GET /v1/jobs/{id}/events
//
// handleJobEvents streams a job's progress as Server-Sent Events:
// "state" on lifecycle transitions, "epoch" per finished training
// epoch, "cell" per finished measurement cell, and "result" once. The
// stream ends when the job reaches a terminal state. Reconnecting
// clients send the standard Last-Event-ID header (or ?last_event_id=)
// to resume after the last event they saw; comment heartbeats keep
// idle connections alive through proxies.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, e := s.jobs.entry(id)
	if e == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	var after int64
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("last_event_id")
	}
	if lastID != "" {
		n, err := parseEventID(lastID)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad Last-Event-ID %q", lastID)
			return
		}
		after = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // disable proxy buffering
	w.WriteHeader(http.StatusOK)

	replay, ch := e.hub.subscribe(after)
	if ch != nil {
		defer e.hub.unsubscribe(ch)
	}
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	fl.Flush()
	if ch == nil {
		return // terminal job: backlog delivered, stream complete
	}

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// Hub closed: job terminal (or consumer evicted). Either
				// way the client reconnects with Last-Event-ID if it
				// wants to be sure it saw everything.
				return
			}
			writeSSE(w, ev)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// parseEventID parses an SSE event ID: a Seq written as a plain
// decimal, with no sign, base prefix or trailing text.
func parseEventID(s string) (int64, error) {
	n, err := strconv.ParseUint(s, 10, 63)
	if err != nil {
		return 0, fmt.Errorf("bad event id %q", s)
	}
	return int64(n), nil
}

// writeSSE renders one event as an SSE frame: id, event type, and the
// JSON payload on a data line.
func writeSSE(w http.ResponseWriter, ev JobEvent) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: ", ev.Seq, ev.Type)
	enc := json.NewEncoder(w) // Encode appends the newline ending the data line
	_ = enc.Encode(ev)
	fmt.Fprint(w, "\n")
}
