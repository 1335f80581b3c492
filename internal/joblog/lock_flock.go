//go:build unix && !aix && !solaris

package joblog

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// flockDir opens dir and takes flock(LOCK_EX|LOCK_NB) on it.
func flockDir(dir string) (*os.File, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("joblog: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("joblog: %s: %w", dir, ErrLocked)
		}
		return nil, fmt.Errorf("joblog: locking %s: %w", dir, err)
	}
	return f, nil
}
