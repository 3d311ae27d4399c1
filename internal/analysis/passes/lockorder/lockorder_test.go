package lockorder_test

import (
	"testing"

	"txcache/internal/analysis/analysistest"
	"txcache/internal/analysis/passes/lockorder"
)

func TestLockorder(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer,
		"txcache/internal/db",
		"txcache/internal/cacheserver",
		"txcache/internal/mvcc",
	)
}
