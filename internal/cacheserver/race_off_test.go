//go:build !race

package cacheserver

// raceEnabled is false without the race detector: the ceilings bind.
const raceEnabled = false
