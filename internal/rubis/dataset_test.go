package rubis

import (
	"runtime"
	"testing"

	"txcache/internal/db"
)

// liveHeap is the heap still in use after two collections (the second frees
// what the first one's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDatasetBytes is the ratchet on what a resident dataset costs: the
// benchmark's dataset (InMemoryScale) loaded into a bare engine — rows, row
// directories, indexes, nothing else — measured as live heap. Every workload
// of the benchmark carries this under whatever else it does. It was 8.12 MiB
// when a row was a slice of boxed values.
func TestDatasetBytes(t *testing.T) {
	before := liveHeap()
	e := db.New(db.Options{VacuumEvery: -1})
	if _, err := Load(e, InMemoryScale, 1); err != nil {
		t.Fatal(err)
	}
	const MiB = 1 << 20
	got := float64(liveHeap()-before) / MiB
	st := e.Stats()
	t.Logf("%d rows: %.2f MiB live heap; db.Stats says %.2f MiB of rows (directory and payload) and %.2f MiB of indexes",
		st.Rows, got, float64(st.RowBytes)/MiB, float64(st.IndexBytes)/MiB)
	if got > 5.6 {
		t.Errorf("the dataset holds %.2f MiB of live heap, ceiling 5.6", got)
	}
	runtime.KeepAlive(e)
}
