package joblog

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
)

// ErrLocked reports that a directory is already held by another writer:
// an open Log or DirLock in this process or in another one.
var ErrLocked = errors.New("directory is locked by another writer")

// DirLock is an exclusive lock on one directory, held from LockDir until
// Unlock. It is how trapd keeps one writer per piece of on-disk state:
// Open takes one on the job-log directory, and the service takes one on
// the checkpoint spool when that is another directory.
//
// On unix systems with flock(2) the lock is flock(LOCK_EX|LOCK_NB) on the
// directory itself, with no lock file. It belongs to the open directory
// handle, so a second LockDir conflicts even inside one process, Unlock
// releases it, and the kernel releases it when the process dies. The lock
// is advisory and only as good as the filesystem's flock support: a
// network filesystem may not carry it between hosts. Elsewhere (Windows,
// AIX, Solaris) LockDir takes no lock and the rule is the operator's.
type DirLock struct {
	f atomic.Pointer[os.File] // nil where no lock is taken
}

// LockDir creates dir if it is missing and takes its lock without
// waiting. A directory someone else holds fails with an error that
// names it and wraps ErrLocked.
func LockDir(dir string) (*DirLock, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("joblog: %w", err)
	}
	f, err := flockDir(dir)
	if err != nil {
		return nil, err
	}
	l := &DirLock{}
	if f != nil {
		l.f.Store(f)
	}
	return l, nil
}

// Unlock releases the lock. Later calls, and calls on nil, do nothing.
func (l *DirLock) Unlock() error {
	if l == nil {
		return nil
	}
	if f := l.f.Swap(nil); f != nil {
		return f.Close()
	}
	return nil
}
