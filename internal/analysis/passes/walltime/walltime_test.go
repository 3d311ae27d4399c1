package walltime_test

import (
	"testing"

	"txcache/internal/analysis/analysistest"
	"txcache/internal/analysis/passes/walltime"
)

func TestWalltime(t *testing.T) {
	analysistest.Run(t, walltime.Analyzer,
		"txcache/internal/rubis",
		"txcache/internal/other",
	)
}
