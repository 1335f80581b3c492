//go:build unix && !aix && !solaris

package joblog

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenLocksDirectory checks the one-writer rule: a second Open of a
// live log directory fails with an error naming it, Open after Close
// succeeds, and an Open that fails in replay leaves the directory free.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("submit", "job-1", nil); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open of a live log: %v, want ErrLocked", err)
	}
	if !strings.Contains(err.Error(), dir) {
		t.Errorf("lock error %q does not name the directory", err)
	}
	if _, err := LockDir(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("LockDir of a live log: %v, want ErrLocked", err)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, l2 := collect(t, dir)
	if len(recs) != 1 {
		t.Fatalf("reopened log replayed %d records, want 1", len(recs))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("replay refused")
	if _, err := Open(dir, Options{Replay: func(Record) error { return boom }}); !errors.Is(err, boom) {
		t.Fatalf("Open with a failing Replay: %v, want %v", err, boom)
	}
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after a failed Open: %v", err)
	}
	l3.Close()
}

// TestDirLockUnlock checks LockDir on its own: it creates the directory,
// excludes a second holder until Unlock, and Unlock is idempotent.
func TestDirLockUnlock(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	a, err := LockDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LockDir(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second LockDir: %v, want ErrLocked", err)
	}
	if err := a.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlock(); err != nil {
		t.Fatalf("second Unlock: %v", err)
	}
	b, err := LockDir(dir)
	if err != nil {
		t.Fatalf("LockDir after Unlock: %v", err)
	}
	b.Unlock()
}
