//go:build race

package core

// raceEnabled skips the TestAllocBudget* ceilings under the race detector,
// whose own bookkeeping allocates inside the measured calls in some runs and
// not others. make alloc-regression checks the ceilings without it.
const raceEnabled = true
