//go:build unix && !aix && !solaris

package service

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trap-repro/trap/internal/joblog"
)

// dirLocks reports that joblog.LockDir takes a real lock on this
// platform, so a second server on a live directory must be refused.
const dirLocks = true

// TestSecondWriterRefused runs one live server on its own job log and
// spool directories and starts a second server against them: a shared
// spool is refused with an error naming it, while one directory used as
// both job log and spool of the same server, however it is spelled, is
// locked once and accepted.
func TestSecondWriterRefused(t *testing.T) {
	base := t.TempDir()
	live := newFaultServer(t, func(c *Config) {
		c.JobLogDir = filepath.Join(base, "live-joblog")
		c.SpoolDir = filepath.Join(base, "live-spool")
	})
	defer live.Close()

	for _, tc := range []struct {
		name    string
		dirs    func(c *Config)
		refused string // the directory the error must name; "" = accepted
	}{
		{
			name: "spool shared with a live server",
			dirs: func(c *Config) {
				c.JobLogDir = filepath.Join(base, "b-joblog")
				c.SpoolDir = live.cfg.SpoolDir
			},
			refused: live.cfg.SpoolDir,
		},
		{
			name: "one directory for job log and spool",
			dirs: func(c *Config) {
				c.JobLogDir = filepath.Join(base, "d-state")
				c.SpoolDir = c.JobLogDir
			},
		},
		{
			name: "job log as spool, other spelling",
			dirs: func(c *Config) {
				c.JobLogDir = filepath.Join(base, "e-state")
				c.SpoolDir = c.JobLogDir + "/."
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Datasets: []string{"tpch"},
				Params:   tinyParams(),
				Seed:     23,
				Logger:   discardLogger(),
			}
			tc.dirs(&cfg)
			s, err := NewServer(cfg)
			if tc.refused == "" {
				if err != nil {
					t.Fatalf("NewServer: %v", err)
				}
				s.Close()
				return
			}
			if err == nil {
				s.Close()
				t.Fatal("second writer accepted")
			}
			if !errors.Is(err, joblog.ErrLocked) || !strings.Contains(err.Error(), tc.refused) {
				t.Fatalf("error %q: want joblog.ErrLocked naming %s", err, tc.refused)
			}
		})
	}
}

// TestLocksBeforeSuites checks the fail-fast order: with the job log
// held elsewhere, NewServer reports the lock before it gets as far as
// resolving (let alone building) a suite.
func TestLocksBeforeSuites(t *testing.T) {
	dir := t.TempDir()
	held, err := joblog.LockDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Unlock()
	_, err = NewServer(Config{Datasets: []string{"nope"}, JobLogDir: dir, Logger: discardLogger()})
	if !errors.Is(err, joblog.ErrLocked) {
		t.Fatalf("NewServer on a locked job log: %v, want joblog.ErrLocked", err)
	}
}
