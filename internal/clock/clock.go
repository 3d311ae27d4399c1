// Package clock abstracts wall-clock time so the whole system can run either
// in real time (production daemons) or in virtual time (deterministic tests
// and time-scaled benchmarks).
//
// TxCache uses wall-clock time in exactly three places: staleness limits on
// read-only transactions, the pincushion's pin-expiry scan, and the cache
// server's eager eviction of entries too stale to be useful. Everything else
// is ordered by logical commit timestamps.
package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies the current wall-clock time.
type Clock interface {
	Now() time.Time
}

// Real is a Clock backed by time.Now.
type Real struct{}

// Now returns the current wall-clock time.
func (Real) Now() time.Time { return time.Now() }

// Virtual is a manually-advanced Clock. It is safe for concurrent use.
// The zero value starts at the Unix epoch plus one hour (so that subtracting
// staleness windows never underflows into negative times).
type Virtual struct {
	once sync.Once
	ns   atomic.Int64
}

func (v *Virtual) init() {
	v.once.Do(func() {
		v.ns.CompareAndSwap(0, int64(time.Hour))
	})
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.init()
	return time.Unix(0, v.ns.Load())
}

// Advance moves the virtual clock forward by d and returns the new time.
// Negative durations are ignored: virtual time never moves backwards.
func (v *Virtual) Advance(d time.Duration) time.Time {
	v.init()
	if d < 0 {
		return v.Now()
	}
	return time.Unix(0, v.ns.Add(int64(d)))
}
