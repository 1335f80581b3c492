package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"github.com/trap-repro/trap/internal/core"
)

// ckptStore spools RL-training checkpoints to disk so a canceled,
// failed or crashed assessment job, resubmitted or replayed, resumes
// from its last completed epoch instead of from scratch. Checkpoints are keyed by the job's
// assessment identity (dataset, advisor, method, constraint and the
// server seed): an identical resubmission finds the same spool file.
// Files are written atomically (temp + rename) so a crash mid-write
// never leaves a truncated checkpoint behind; a stale or corrupt file
// just falls back to fresh training.
type ckptStore struct {
	dir  string
	seed int64
}

// path derives the spool file for a job's assessment identity.
func (c *ckptStore) path(j Job) string {
	key := fmt.Sprintf("%s|%s|%s|%s|%d", j.Dataset, j.Advisor, j.Method, j.Constraint, c.seed)
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16])+".ckpt")
}

// load reads the spooled checkpoint for a job, if any.
func (c *ckptStore) load(j Job) ([]byte, error) {
	return os.ReadFile(c.path(j))
}

// save atomically writes a checkpoint for the job after doneEpochs
// completed RL epochs: the framework streams it into a temp file,
// which is renamed over the job's spool file, so a reader (a resuming
// sibling of the job's kind) sees the previous checkpoint or this one,
// never part of one. The temp file is removed on every error.
func (c *ckptStore) save(j Job, fw *core.Framework, doneEpochs int) error {
	tmp, err := os.CreateTemp(c.dir, ".ckpt-*")
	if err != nil {
		return err
	}
	err = fw.SaveCheckpoint(tmp, doneEpochs)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path(j))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// remove drops the job's checkpoint (called when the job completes, so
// a later identical submission trains from scratch).
func (c *ckptStore) remove(j Job) {
	_ = os.Remove(c.path(j))
}
