//go:build race

package cacheserver

// raceEnabled skips the TestAllocBudget* ceilings under the race detector,
// whose own bookkeeping allocates inside the measured calls in some runs and
// not others (cacheserver's invalidate+reinstall read 6.0 objects/op against
// a budget of 5 in about half of them). make alloc-regression checks the
// ceilings without it.
const raceEnabled = true
