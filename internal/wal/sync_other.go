//go:build !linux

package wal

// Portable fallbacks: O_DSYNC and fdatasync degrade to full fsync where
// the platform-specific fast paths are unavailable.
const odsyncFlag = 0

// odsyncReal is false here: SyncODsync falls back to an explicit fsync per
// append (see Writer.syncLocked).
const odsyncReal = false

func fdatasync(f segmentFile) error {
	return f.Sync()
}
