//go:build !unix || aix || solaris

package service

// dirLocks is false where joblog.LockDir takes no lock.
const dirLocks = false
