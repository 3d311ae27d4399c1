package deadline_test

import (
	"testing"

	"txcache/internal/analysis/analysistest"
	"txcache/internal/analysis/passes/deadline"
)

func TestDeadline(t *testing.T) {
	analysistest.Run(t, deadline.Analyzer, "txcache/internal/wire", "txcache/internal/rpc/dlfix", "txcache/internal/transportfix")
}
