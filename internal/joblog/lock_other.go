//go:build !unix || aix || solaris

package joblog

import "os"

// flockDir takes no lock: this platform has no flock(2).
func flockDir(string) (*os.File, error) { return nil, nil }
