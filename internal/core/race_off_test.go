//go:build !race

package core

// raceEnabled is false without the race detector: the ceilings bind.
const raceEnabled = false
