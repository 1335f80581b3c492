package service

import (
	"errors"
	"io/fs"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/core"
)

// TestSpoolSaveIsAtomic reads a kind's spool file while checkpoints of
// the kind are saved over it again and again, as a job resuming from a
// running sibling does: every read must load as a whole checkpoint,
// never part of one, and no temp file may be left behind.
func TestSpoolSaveIsAtomic(t *testing.T) {
	v := core.BuildVocab(bench.TPCH(100), nil)
	build := func() *core.Framework {
		m := core.NewGRUModel(v, core.Sizes{Embed: 16, Hidden: 16}, rand.New(rand.NewSource(1)))
		return core.NewFramework(m, v, core.SharedTable, 1)
	}
	src, dst := build(), build()
	c := &ckptStore{dir: t.TempDir(), seed: 1}
	j := Job{Dataset: "tpch", Advisor: "Extend", Method: "GRU", Constraint: "shared"}

	const saves = 200
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= saves; i++ {
			if err := c.save(j, src, i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	loads := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			temps, _ := filepath.Glob(filepath.Join(c.dir, ".ckpt-*"))
			if len(temps) != 0 {
				t.Errorf("temp files left behind: %v", temps)
			}
			t.Logf("%d loads during %d saves", loads, saves)
			return
		default:
		}
		data, err := c.load(j)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.LoadCheckpoint(data); err != nil {
			t.Fatalf("spool file read mid-save (%d bytes): %v", len(data), err)
		}
		loads++
	}
}
