//go:build race

package db

// raceAllocSlack widens the pinned allocation ceilings under the race
// detector, whose instrumentation adds bookkeeping allocations that are
// not regressions of the paths under test, and under which sync.Pool drops a
// quarter of its Puts: a commit that draws a fresh scratch grows its staging
// buffers again (measured 14 objects on the single-row commit whose ceiling
// without the detector is 6).
const raceAllocSlack = 10
