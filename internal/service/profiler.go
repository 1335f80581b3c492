package service

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trap-repro/trap/internal/obs"
	olog "github.com/trap-repro/trap/internal/obs/log"
	"github.com/trap-repro/trap/internal/trace"
)

// Continuous profiling: with Config.ProfileDir set, the server hooks
// the tracer's span-end stream and, whenever any traced span runs
// longer than Config.ProfileThreshold, captures a heap profile of the
// moment plus a short CPU profile of the window right after it — the
// tail of a slow training epoch or measurement cell is usually still
// executing the same code the span spent its time in. Captures are
// retained ProfileKeep-deep (oldest pruned), indexed by
// GET /v1/profiles and downloadable one by one, so a slow span seen
// hours ago still has its profile on disk.
//
// A single in-flight gate (busy) makes the capture path cheap on the
// span hot path: a threshold breach while a capture is running is
// counted and skipped, never queued.

// profileCapture is one retained capture in the /v1/profiles index.
type profileCapture struct {
	// Name is the capture's ID and file-name stem (heap: <Name>.heap.pb.gz,
	// CPU: <Name>.cpu.pb.gz).
	Name string `json:"name"`
	// Span and DurMilli identify the slow span that triggered the capture.
	Span     string    `json:"span"`
	DurMilli int64     `json:"durMs"`
	At       time.Time `json:"at"`
	// Files lists the capture's downloadable profile files.
	Files []string `json:"files"`
}

type profiler struct {
	dir       string
	threshold time.Duration
	keep      int
	cpuWindow time.Duration
	log       *olog.Logger

	busy     atomic.Bool
	stopOnce sync.Once

	mu       sync.Mutex
	captures []profileCapture // newest last
	seq      int64

	mTriggered *obs.Counter
	mSkipped   *obs.Counter
}

func newProfiler(cfg Config, reg *obs.Registry, log *olog.Logger) (*profiler, error) {
	if err := os.MkdirAll(cfg.ProfileDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: profile dir: %w", err)
	}
	p := &profiler{
		dir:        cfg.ProfileDir,
		threshold:  cfg.ProfileThreshold,
		keep:       cfg.ProfileKeep,
		cpuWindow:  cfg.ProfileCPUWindow,
		log:        log,
		mTriggered: reg.Counter("trapd_profile_captures_total"),
		mSkipped:   reg.Counter("trapd_profile_skipped_total"),
	}
	reg.Describe("trapd_profile_captures_total",
		"Profile captures triggered by spans over the latency threshold.")
	reg.Describe("trapd_profile_skipped_total",
		"Threshold breaches skipped because a capture was already in flight.")
	return p, nil
}

// onSpanEnd is the tracer hook: called for every finished span.
func (p *profiler) onSpanEnd(se trace.SpanEnd) {
	if se.Dur < p.threshold {
		return
	}
	if !p.busy.CompareAndSwap(false, true) {
		p.mSkipped.Inc()
		return
	}
	go p.capture(se)
}

// stop keeps further captures from starting and waits for the one in
// flight, if any, so no capture writes into the directory after Close.
func (p *profiler) stop() {
	p.stopOnce.Do(func() {
		for !p.busy.CompareAndSwap(false, true) {
			time.Sleep(time.Millisecond)
		}
	})
}

// capture writes the heap profile immediately, then profiles CPU for
// the configured window, then prunes past the retention depth.
func (p *profiler) capture(se trace.SpanEnd) {
	defer p.busy.Store(false)
	p.mu.Lock()
	p.seq++
	name := fmt.Sprintf("cap-%d", p.seq)
	p.mu.Unlock()

	c := profileCapture{
		Name: name, Span: se.Name, DurMilli: se.Dur.Milliseconds(), At: time.Now(),
	}
	ctx := context.Background()
	heapFile := name + ".heap.pb.gz"
	if err := p.writeHeap(filepath.Join(p.dir, heapFile)); err != nil {
		p.log.Warn(ctx, "trapd: heap profile capture failed", "err", err)
	} else {
		c.Files = append(c.Files, heapFile)
	}
	cpuFile := name + ".cpu.pb.gz"
	if err := p.writeCPU(filepath.Join(p.dir, cpuFile)); err != nil {
		// StartCPUProfile fails if something else (e.g. /debug/pprof)
		// is already profiling; the heap capture alone is still useful.
		p.log.Warn(ctx, "trapd: cpu profile capture failed", "err", err)
	} else {
		c.Files = append(c.Files, cpuFile)
	}
	p.mTriggered.Inc()

	p.mu.Lock()
	p.captures = append(p.captures, c)
	var pruned []profileCapture
	if over := len(p.captures) - p.keep; over > 0 {
		pruned = append(pruned, p.captures[:over]...)
		p.captures = append(p.captures[:0], p.captures[over:]...)
	}
	p.mu.Unlock()
	for _, old := range pruned {
		for _, f := range old.Files {
			_ = os.Remove(filepath.Join(p.dir, f))
		}
	}
	p.log.Info(ctx, "trapd: slow span profiled",
		"span", se.Name, "dur", se.Dur.Round(time.Millisecond), "capture", name)
}

func (p *profiler) writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.Lookup("heap").WriteTo(f, 0)
}

func (p *profiler) writeCPU(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	time.Sleep(p.cpuWindow)
	pprof.StopCPUProfile()
	return nil
}

// index snapshots the retained captures, newest first.
func (p *profiler) index() []profileCapture {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]profileCapture, len(p.captures))
	copy(out, p.captures)
	sort.Slice(out, func(i, j int) bool { return out[i].At.After(out[j].At) })
	return out
}

// has reports whether file belongs to a retained capture — the gate
// that keeps /v1/profiles/{file} from serving anything else.
func (p *profiler) has(file string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.captures {
		for _, f := range c.Files {
			if f == file {
				return true
			}
		}
	}
	return false
}

// GET /v1/profiles

type profilesResponse struct {
	Captures []profileCapture `json:"captures"`
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if s.prof == nil {
		writeError(w, http.StatusNotFound, "continuous profiling not enabled (no -profile-dir)")
		return
	}
	writeJSON(w, http.StatusOK, profilesResponse{Captures: s.prof.index()})
}

// profileFileName allows exactly the names the profiler generates.
var profileFileName = regexp.MustCompile(`^cap-\d+\.(heap|cpu)\.pb\.gz$`)

// GET /v1/profiles/{file}
func (s *Server) handleProfileFile(w http.ResponseWriter, r *http.Request) {
	if s.prof == nil {
		writeError(w, http.StatusNotFound, "continuous profiling not enabled (no -profile-dir)")
		return
	}
	file := r.PathValue("file")
	if !profileFileName.MatchString(file) || !s.prof.has(file) {
		writeError(w, http.StatusNotFound, "unknown profile %q", file)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, filepath.Join(s.prof.dir, file))
}
