//go:build !linux

package wal

// fdatasync degrades to a full fsync where the platform has no fdatasync.
func fdatasync(f segmentFile) error {
	return f.Sync()
}
