// Package pincushion implements the pincushion daemon (paper §5.4): a
// lightweight registry of the snapshots it holds pinned on the database and
// their wall-clock times. It answers "which pinned snapshots are fresh
// enough?" at the start of every read-only transaction and unpins snapshots
// once they are too old to be handed out again. A pin is removed by whoever
// placed it: Register adopts a snapshot its caller holds pinned by placing a
// pin of its own, so every tracked snapshot is one placement of the
// pincushion's, which Sweep removes.
//
// Unlike the paper's, this pincushion counts no uses. A transaction's
// database session pins the snapshot it runs at from its first statement to
// its end, so only the gap between GetPins and that statement is unguarded:
// a snapshot swept inside it fails the statement with db.ErrNotPinned, a
// serialization failure the library retries.
package pincushion

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"

	"txcache/internal/clock"
	"txcache/internal/interval"
)

// Pin describes one pinned snapshot.
type Pin struct {
	TS   interval.Timestamp
	Wall time.Time
}

// Pinner is the database the pincushion places and removes its pins on;
// *db.Engine satisfies it, as does the dbnet client. Pin adds a reference to
// a snapshot that is already pinned, failing if it is not.
type Pinner interface {
	Pin(ts interval.Timestamp) error
	Unpin(ts interval.Timestamp)
}

// Config configures a Pincushion.
type Config struct {
	// Retention is how long a pin is kept before Sweep unpins it on the
	// database, used only when Staleness is 0. Defaults to 60s.
	Retention time.Duration // kept for benchmark/ (ROADMAP 1)
	// Staleness, when set, is the largest staleness argument GetPins
	// answers, and the age at which Sweep unpins a pin: one older than this
	// bound can never be handed out again (GetPins filters by wall age).
	Staleness time.Duration
	// Clock supplies wall time; defaults to the real clock.
	Clock clock.Clock
	// DB is where Register pins the snapshots it adopts and Sweep unpins
	// them. Nil makes the pincushion a plain registry that pins nothing.
	DB Pinner
}

// Pincushion tracks pinned snapshots. Safe for concurrent use.
type Pincushion struct {
	cfg Config
	clk clock.Clock

	mu     sync.Mutex
	pins   map[interval.Timestamp]time.Time // each tracked snapshot's wall time
	closed bool                             // Start's stop ran: no sweep is left, so nothing is adopted

	statRequests uint64
	statSweeps   uint64
}

// New creates a Pincushion.
func New(cfg Config) *Pincushion {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 60 * time.Second
	}
	return &Pincushion{cfg: cfg, clk: cfg.Clock, pins: make(map[interval.Timestamp]time.Time)}
}

// GetPins returns every pinned snapshot at most staleness old, sorted by
// timestamp ascending. A cancelled ctx, or a staleness past the trim age,
// returns no pins, which the library treats the same as an empty pincushion.
// The library counts a pin for a cache hit as long as it is within the
// caller's bound by the caller's clock, so a bound past the trim age would
// let it count a pin Sweep has already removed.
func (p *Pincushion) GetPins(ctx context.Context, staleness time.Duration) []Pin {
	if ctx != nil && ctx.Err() != nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.statRequests++
	if staleness > p.trimAge() {
		return nil
	}
	cutoff := p.clk.Now().Add(-staleness)
	var out []Pin
	for ts, wall := range p.pins {
		if !wall.Before(cutoff) {
			out = append(out, Pin{TS: ts, Wall: wall})
		}
	}
	slices.SortFunc(out, func(a, b Pin) int { return cmp.Compare(a.TS, b.TS) })
	return out
}

// Register adopts a snapshot the caller holds pinned: the pincushion pins an
// untracked one itself (Config.DB.Pin), outside the registry lock, and tracks
// it only if that succeeded. Re-registering a tracked snapshot places nothing
// and keeps the later wall time: it was still the latest then. (Keeping the first let a deployment with no commits age its
// only snapshot past the staleness bound, and the cache with it.)
func (p *Pincushion) Register(ts interval.Timestamp, wall time.Time) {
	if p.track(ts, wall, false) {
		return
	}
	if p.cfg.DB != nil && p.cfg.DB.Pin(ts) != nil {
		return // the caller's pin is gone: there is nothing to adopt
	}
	if p.track(ts, wall, true) && p.cfg.DB != nil {
		p.cfg.DB.Unpin(ts) // a concurrent Register adopted it first
	}
}

// track keeps the later wall time of a tracked snapshot and reports true;
// an untracked one it starts tracking if adopt is set. A closed pincushion
// reports true for any snapshot: what a Register places then is unpinned at
// once, since no sweep is left to do it.
func (p *Pincushion) track(ts interval.Timestamp, wall time.Time, adopt bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return true
	}
	if old, ok := p.pins[ts]; ok {
		if wall.After(old) {
			p.pins[ts] = wall
		}
		return true
	}
	if adopt {
		p.pins[ts] = wall
	}
	return false
}

// Release does nothing: the pincushion counts no uses (see the package
// comment), and a snapshot stays pinned until Sweep ages it out.
func (p *Pincushion) Release([]interval.Timestamp) {} // kept for benchmark/ (ROADMAP 1)

// trimAge is the age past which Sweep unpins a pin: the staleness bound, past
// which no GetPins call can return it again, or Retention without one.
func (p *Pincushion) trimAge() time.Duration {
	if p.cfg.Staleness > 0 {
		return p.cfg.Staleness
	}
	return p.cfg.Retention
}

// Sweep unpins snapshots older than the trim age (Config.Staleness, or
// Retention without it), returning how many were removed. Run it
// periodically.
func (p *Pincushion) Sweep() int {
	p.mu.Lock()
	cutoff := p.clk.Now().Add(-p.trimAge())
	var victims []interval.Timestamp
	for ts, wall := range p.pins {
		if wall.Before(cutoff) {
			victims = append(victims, ts)
			delete(p.pins, ts)
		}
	}
	p.statSweeps++
	p.mu.Unlock()
	p.unpin(victims)
	return len(victims)
}

// unpin removes the pincushion's pin on each swept snapshot, outside the
// registry lock: the database takes its own locks.
func (p *Pincushion) unpin(tss []interval.Timestamp) {
	if p.cfg.DB == nil {
		return
	}
	for _, ts := range tss {
		p.cfg.DB.Unpin(ts)
	}
}

// SweepAll unpins every tracked snapshot regardless of age,
// returning how many were removed. Teardown only: a drained deployment has
// no transaction left that could use them, and any pin that outlives the
// daemon would keep the versions it sees from being reclaimed forever.
func (p *Pincushion) SweepAll() int {
	p.mu.Lock()
	victims := make([]interval.Timestamp, 0, len(p.pins))
	for ts := range p.pins {
		victims = append(victims, ts)
	}
	clear(p.pins)
	p.statSweeps++
	p.mu.Unlock()
	p.unpin(victims)
	return len(victims)
}

// PinClass partitions the tracked pins by how they interact with the
// database's vacuum: every pin keeps the versions its snapshot sees (and
// that no other pin sees) from being reclaimed, but what the system can do
// about it differs by class.
type PinClass int

const (
	// PinIdle pins are within the trim age, kept warm so the next
	// read-only transaction can share an already-pinned snapshot.
	PinIdle PinClass = iota
	// PinExpired pins are past the trim age: the next Sweep will unpin
	// them. A persistent PinExpired population means the sweeper is running
	// too rarely — every pin in this class is pointlessly holding versions
	// back from the database's vacuum.
	PinExpired

	numPinClasses
)

func (c PinClass) String() string {
	return [...]string{"idle", "expired"}[c]
}

// horizonBuckets are the inclusive upper edges of the Stats age histogram;
// ages beyond the last edge land in the overflow bucket. The edges skew
// short because the open question is vacuum behavior at short horizons —
// sub-retention resolution is the point.
var horizonBuckets = [...]time.Duration{
	time.Second, 5 * time.Second, 15 * time.Second, time.Minute, 5 * time.Minute,
}

// Stats is a read-only snapshot of the pincushion's counters and of the
// current pin population's age distribution.
type Stats struct {
	Requests uint64 `json:"requests"` // GetPins calls served
	Sweeps   uint64 `json:"sweeps"`   // Sweep passes completed
	Pins     int    `json:"pins"`     // pins currently tracked

	// Horizon[c][i] counts tracked pins of class c whose age (now minus
	// the pin's snapshot wall time — how stale the versions it holds back
	// from vacuum may be) is within the i'th edge of 1s, 5s, 15s, 1m and
	// 5m; the last column is the overflow. Observability only: Stats
	// takes the same snapshot lock as GetPins but mutates nothing.
	Horizon [numPinClasses][len(horizonBuckets) + 1]int `json:"horizon"`
}

// Stats returns a snapshot of counters and the per-class horizon histogram.
func (p *Pincushion) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Requests: p.statRequests,
		Sweeps:   p.statSweeps,
		Pins:     len(p.pins),
	}
	now := p.clk.Now()
	cutoff := now.Add(-p.trimAge())
	for _, wall := range p.pins {
		c := PinIdle
		if wall.Before(cutoff) {
			c = PinExpired
		}
		age := now.Sub(wall)
		b := 0
		for b < len(horizonBuckets) && age > horizonBuckets[b] {
			b++
		}
		st.Horizon[c][b]++
	}
	return st
}

// NextTrim reports when the next pin crosses the trim age (false if no
// pins are tracked). The sweeper uses it to
// schedule the pass that unpins it — and lets the database reclaim the
// versions only it could see — instead of letting expired pins sit until
// the next fixed tick.
func (p *Pincushion) NextTrim() (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var at time.Time
	found := false
	for _, wall := range p.pins {
		t := wall.Add(p.trimAge())
		if !found || t.Before(at) {
			at = t
			found = true
		}
	}
	return at, found
}

// RunSweeper sweeps until stop is closed: at least every interval, and
// sooner when NextTrim says a pin is about to become reclaimable —
// the per-class horizon histogram in Stats shows the payoff as an empty
// expired class.
func (p *Pincushion) RunSweeper(every time.Duration, stop <-chan struct{}) {
	t := time.NewTimer(every)
	defer t.Stop()
	for {
		wait := every
		if at, ok := p.NextTrim(); ok {
			// Floor the adaptive delay so a burst of near-expiry pins cannot
			// degenerate into a busy loop of one-victim sweeps.
			if d := at.Sub(p.clk.Now()); d < wait {
				wait = max(d, every/8, 10*time.Millisecond)
			}
		}
		t.Reset(wait)
		select {
		case <-t.C:
			p.Sweep()
		case <-stop:
			return
		}
	}
}
