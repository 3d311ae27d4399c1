//go:build linux

package wal

import "syscall"

// odsyncFlag is O_DSYNC for opening segments in SyncODsync mode.
const odsyncFlag = syscall.O_DSYNC

// odsyncReal reports that odsyncFlag actually provides synchronous writes.
const odsyncReal = true

// fdatasync flushes f's data (and its size) without forcing a metadata
// (timestamp) update, which is all log durability needs.
func fdatasync(f segmentFile) error {
	return syscall.Fdatasync(int(f.Fd()))
}
