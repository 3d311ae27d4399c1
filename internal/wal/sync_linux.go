//go:build linux

package wal

import "syscall"

// fdatasync flushes f's data (and its size) without forcing a metadata
// (timestamp) update, which is all log durability needs.
func fdatasync(f segmentFile) error {
	return syscall.Fdatasync(int(f.Fd()))
}
