package service

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/faultinject"
)

// warmKinds is the open-loop benchmark's job mix: four TRAP jobs, three
// Random ones and one GRU one, none of them on an RL advisor.
var warmKinds = []struct{ method, advisor string }{
	{"TRAP", "Extend"}, {"TRAP", "DB2Advis"}, {"TRAP", "AutoAdmin"}, {"TRAP", "Drop"},
	{"Random", "Extend"}, {"Random", "DB2Advis"}, {"GRU", "Extend"}, {"Random", "Drop"},
}

// sameResult compares the parts of a job result that the assessment
// determines, the IUDR by bits.
func sameResult(a, b JobResult) bool {
	return math.Float64bits(a.MeanIUDR) == math.Float64bits(b.MeanIUDR) &&
		a.Workloads == b.Workloads && a.Pairs == b.Pairs && a.NonSargable == b.NonSargable
}

// TestWarmJobsRepeatConcurrently checks that once every job kind has
// run twice in sequence, its result no longer depends on what runs
// before or beside it: every kind submitted twice at once, the two
// copies of a kind back to back so they run side by side on the two
// workers (and share the spool's checkpoint file), must each reproduce
// the kind's second sequential result.
func TestWarmJobsRepeatConcurrently(t *testing.T) {
	base := t.TempDir()
	s := newFaultServer(t, func(c *Config) {
		c.Workers = 2
		c.QueueDepth = 16
		c.JobLogDir = filepath.Join(base, "joblog")
		c.SpoolDir = filepath.Join(base, "spool")
	})
	defer s.Close()
	h := s.Handler()

	warm := make([]JobResult, len(warmKinds))
	for round := 0; round < 2; round++ {
		for i, k := range warmKinds {
			j := submitJob(t, h, k.advisor, k.method)
			done := waitForJob(t, h, j.ID, JobDone, 2*time.Minute)
			if done.Result == nil {
				t.Fatalf("warm-up %s/%s: done without a result", k.method, k.advisor)
			}
			warm[i] = *done.Result
		}
	}

	type sub struct {
		kind int
		id   string
	}
	var subs []sub
	const rotate = 3
	for n := range warmKinds {
		kind := (n + rotate) % len(warmKinds)
		for c := 0; c < 2; c++ {
			k := warmKinds[kind]
			subs = append(subs, sub{kind, submitJob(t, h, k.advisor, k.method).ID})
		}
	}
	for _, sj := range subs {
		k := warmKinds[sj.kind]
		j := pollTerminal(t, h, sj.id, 3*time.Minute)
		if j.Status != JobDone || j.Result == nil {
			t.Errorf("%s %s/%s ended %s (%s)", sj.id, k.method, k.advisor, j.Status, j.Error)
			continue
		}
		if !sameResult(*j.Result, warm[sj.kind]) {
			t.Errorf("%s %s/%s (resumed %v) = %+v, want the warm result %+v",
				sj.id, k.method, k.advisor, j.Resumed, *j.Result, warm[sj.kind])
		}
	}
}

// holdInjector holds one job's RL training at the top of a chosen
// epoch: once armed with n, the n-th RL epoch to start blocks until
// release is closed. Every other injection point passes.
type holdInjector struct {
	mu      sync.Mutex
	left    int // RL epochs to let start before the hold; 0: disarmed
	held    chan struct{}
	release chan struct{}
}

func (h *holdInjector) arm(n int) {
	h.mu.Lock()
	h.left = n
	h.held = make(chan struct{})
	h.release = make(chan struct{})
	h.mu.Unlock()
}

func (h *holdInjector) Fire(point string) error {
	if point != faultinject.PointRLEpoch {
		return nil
	}
	h.mu.Lock()
	if h.left == 0 {
		h.mu.Unlock()
		return nil
	}
	h.left--
	held, release := h.held, h.release
	hold := h.left == 0
	h.mu.Unlock()
	if hold {
		close(held)
		<-release
	}
	return nil
}

// TestResumeFromRunningSibling checks the resume that spool checkpoints
// keyed by job kind allow: a job held at the top of its second RL
// epoch has checkpointed its first, and a second job of the kind,
// submitted meanwhile, resumes from that checkpoint. Both must return
// the kind's warm result.
func TestResumeFromRunningSibling(t *testing.T) {
	hold := &holdInjector{}
	s := newFaultServer(t, func(c *Config) {
		c.Params.RLEpochs = 3
		c.Workers = 2
		c.SpoolDir = filepath.Join(t.TempDir(), "spool")
		c.Injector = hold
	})
	defer s.Close()
	h := s.Handler()
	for _, k := range []struct{ method, advisor string }{
		{"TRAP", "Extend"}, {"GRU", "Extend"}, {"TRAP", "Drop"},
	} {
		t.Run(k.method+"/"+k.advisor, func(t *testing.T) {
			var warm JobResult
			for i := 0; i < 2; i++ {
				warm = *waitForJob(t, h, submitJob(t, h, k.advisor, k.method).ID, JobDone, 2*time.Minute).Result
			}
			hold.arm(2)
			held := submitJob(t, h, k.advisor, k.method)
			release := sync.OnceFunc(func() { close(hold.release) })
			defer release()
			select {
			case <-hold.held:
			case <-time.After(2 * time.Minute):
				t.Fatal("the job never reached its second RL epoch")
			}

			sib := pollTerminal(t, h, submitJob(t, h, k.advisor, k.method).ID, 2*time.Minute)
			if sib.Status != JobDone || !sib.Resumed {
				t.Fatalf("sibling ended %s (%s), resumed %v; want done from the held job's checkpoint",
					sib.Status, sib.Error, sib.Resumed)
			}
			if !sameResult(*sib.Result, warm) {
				t.Errorf("resumed sibling = %+v, want the warm result %+v", *sib.Result, warm)
			}

			release()
			j := pollTerminal(t, h, held.ID, 2*time.Minute)
			if j.Status != JobDone || j.Resumed {
				t.Fatalf("held job ended %s (%s), resumed %v; want done from its own training",
					j.Status, j.Error, j.Resumed)
			}
			if !sameResult(*j.Result, warm) {
				t.Errorf("held job = %+v, want the warm result %+v", *j.Result, warm)
			}
		})
	}
}

// TestCorruptSpoolTrainsFresh puts a file that does not load as a
// checkpoint at a kind's spool path before a job of the kind runs: a
// real checkpoint one byte short (what reading a file mid-save would
// give without the atomic rename) and arbitrary bytes. Each job must
// train from scratch and return the kind's warm result.
func TestCorruptSpoolTrainsFresh(t *testing.T) {
	hold := &holdInjector{}
	s := newFaultServer(t, func(c *Config) {
		c.Params.RLEpochs = 3
		c.SpoolDir = filepath.Join(t.TempDir(), "spool")
		c.Injector = hold
	})
	defer s.Close()
	h := s.Handler()
	const advisor, method = "Extend", "TRAP"
	var warm Job
	for i := 0; i < 2; i++ {
		warm = waitForJob(t, h, submitJob(t, h, advisor, method).ID, JobDone, 2*time.Minute)
	}
	path := s.ckpt.path(warm)

	// A real checkpoint: the one a job spools after its first epoch.
	hold.arm(2)
	held := submitJob(t, h, advisor, method)
	select {
	case <-hold.held:
	case <-time.After(2 * time.Minute):
		t.Fatal("the job never reached its second RL epoch")
	}
	ckpt, err := os.ReadFile(path)
	close(hold.release)
	if err != nil {
		t.Fatal(err)
	}
	waitForJob(t, h, held.ID, JobDone, 2*time.Minute)

	for _, c := range []struct {
		name string
		data []byte
	}{
		{"checkpoint one byte short", ckpt[:len(ckpt)-1]},
		{"garbage", []byte("not a checkpoint\n")},
	} {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		j := pollTerminal(t, h, submitJob(t, h, advisor, method).ID, 2*time.Minute)
		if j.Status != JobDone || j.Resumed {
			t.Fatalf("%s: job ended %s (%s), resumed %v; want done from fresh training", c.name, j.Status, j.Error, j.Resumed)
		}
		if !sameResult(*j.Result, *warm.Result) {
			t.Errorf("%s: job = %+v, want the warm result %+v", c.name, *j.Result, *warm.Result)
		}
	}
}
