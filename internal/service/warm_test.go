package service

import (
	"math"
	"path/filepath"
	"testing"
	"time"
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
