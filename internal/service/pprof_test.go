package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/faultinject"
)

// TestPprofGatedOff: the default server must not expose profiling
// endpoints — /debug/pprof/ is an unknown route without EnablePprof.
func TestPprofGatedOff(t *testing.T) {
	h := testServer(t).Handler()
	code, _ := getPath(t, h, "/debug/pprof/")
	if code != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ without EnablePprof = %d, want 404", code)
	}
}

// TestPprofEnabled: with EnablePprof the endpoints are mounted. Routing
// depends only on the config, so the test wires a bare mux instead of
// paying for a second suite build.
func TestPprofEnabled(t *testing.T) {
	s := &Server{cfg: Config{EnablePprof: true}, mux: http.NewServeMux()}
	s.routes()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s with EnablePprof = %d, want 200", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if !strings.Contains(rec.Body.String(), "profile") {
		t.Error("pprof index does not list profiles")
	}
}

// layerGate is an Injector that holds the first call to reach each of
// its points, in order, until the test sends on release.
type layerGate struct {
	mu      sync.Mutex
	points  []string      // points still to hold, in order
	entered chan struct{} // receives once per held call
	release chan struct{}
}

func (g *layerGate) Fire(point string) error {
	g.mu.Lock()
	hold := len(g.points) > 0 && g.points[0] == point
	if hold {
		g.points = g.points[1:]
	}
	g.mu.Unlock()
	if hold {
		g.entered <- struct{}{}
		<-g.release
	}
	return nil
}

// gateLabels returns the pprof labels of each goroutine group held in a
// layerGate, read from the debug=1 goroutine profile.
func gateLabels(t *testing.T, h http.Handler) []string {
	t.Helper()
	code, body := getPath(t, h, "/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Fatalf("goroutine profile: %d %s", code, body)
	}
	var out []string
	for _, rec := range strings.Split(string(body), "\n\n") {
		if !strings.Contains(rec, "(*layerGate).Fire") {
			continue
		}
		labels := ""
		for _, line := range strings.Split(rec, "\n") {
			if l, ok := strings.CutPrefix(line, "# labels: "); ok {
				labels = l
			}
		}
		out = append(out, labels)
	}
	return out
}

// TestJobProfileLabels holds a TRAP job in its pretraining, its RL
// training and its measurement, and checks at each hold that the held
// goroutine carries the job's pprof label and that layer's label, the
// caller's layer coming back when a nested one (pretrain) ends. Once
// the job is done, no goroutine carries its label.
func TestJobProfileLabels(t *testing.T) {
	g := &layerGate{
		points:  []string{faultinject.PointPretrainEpoch, faultinject.PointRLEpoch, faultinject.PointGenerate},
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	s := newFaultServer(t, func(c *Config) {
		c.EnablePprof = true
		c.Injector = g
	})
	s.Suite("tpch").MeasureWorkers = 2
	h := s.Handler()

	job := submitJob(t, h, "Drop", "TRAP")
	for _, layer := range []string{"pretrain", "train", "measure"} {
		select {
		case <-g.entered:
		case <-time.After(time.Minute):
			t.Fatalf("job never reached its %s hold", layer)
		}
		// A measurement pool goroutine may be passing through the gate
		// beside the held one; it carries the same labels.
		want := fmt.Sprintf("{%q:%q, %q:%q}", "job", job.ID, "layer", layer)
		got := gateLabels(t, h)
		if len(got) == 0 {
			t.Errorf("held in %s: no goroutine in the gate's profile", layer)
		}
		for _, l := range got {
			if l != want {
				t.Errorf("held in %s: goroutine labels %s, want %s", layer, l, want)
			}
		}
		g.release <- struct{}{}
	}
	if j := pollTerminal(t, h, job.ID, time.Minute); j.Status != JobDone {
		t.Fatalf("job ended %s (%s), want done", j.Status, j.Error)
	}
	_, body := getPath(t, h, "/debug/pprof/goroutine?debug=1")
	if label := fmt.Sprintf("%q:%q", "job", job.ID); strings.Contains(string(body), label) {
		t.Errorf("a goroutine still carries %s after the job ended", label)
	}
}
