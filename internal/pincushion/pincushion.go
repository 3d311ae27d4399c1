// Package pincushion implements the pincushion daemon (paper §5.4): a
// lightweight registry of the snapshots it holds pinned on the database,
// their wall-clock times, and how many running transactions might be using
// each. It answers "which pinned snapshots are fresh enough?" at the start
// of every read-only transaction and periodically unpins old unused
// snapshots. A pin is removed by whoever placed it: Register adopts a
// snapshot its caller holds pinned by placing a pin of its own, so every
// tracked snapshot is one placement of the pincushion's, which Sweep removes.
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
	// Retention is how long an unused pin is kept before Sweep unpins it on
	// the database. It should be at least the largest staleness limit any
	// application uses. Defaults to 60s.
	Retention time.Duration
	// Staleness, when set, is an upper bound on the staleness argument any
	// caller passes to GetPins. It lets Sweep trim unused pins early: a pin
	// older than this bound can never be handed out again (GetPins filters
	// by wall age), so keeping it warm until Retention only keeps the
	// database from reclaiming the versions that pin alone can see, for up
	// to Retention ≈ 2× the staleness limit. 0 disables early trimming.
	Staleness time.Duration
	// Clock supplies wall time; defaults to the real clock.
	Clock clock.Clock
	// DB is where Register pins the snapshots it adopts and Sweep unpins
	// them. Nil makes the pincushion a plain registry that pins nothing.
	DB Pinner
}

type pinState struct {
	wall    time.Time
	lastUse time.Time // most recent GetPins/Release touching this pin
	active  int       // running transactions that may use this snapshot
}

// Pincushion tracks pinned snapshots. Safe for concurrent use.
type Pincushion struct {
	cfg Config
	clk clock.Clock

	mu     sync.Mutex
	pins   map[interval.Timestamp]*pinState
	closed bool // Start's stop ran: no sweep is left, so nothing is adopted

	statRequests uint64
	statSweeps   uint64
	statLeaked   uint64 // pins force-swept with a nonzero use-count
}

// New creates a Pincushion.
func New(cfg Config) *Pincushion {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 60 * time.Second
	}
	return &Pincushion{cfg: cfg, clk: cfg.Clock, pins: make(map[interval.Timestamp]*pinState)}
}

// GetPins returns every pinned snapshot at most staleness old, sorted by
// timestamp ascending, and flags each as possibly in use by the caller's
// transaction. The caller must Release the same set when its transaction
// ends. A cancelled ctx returns no pins (and flags nothing in use), which
// the library treats the same as an empty pincushion; in-process the call
// never blocks, so the check only stops cancelled transactions from
// acquiring uses they would immediately release.
func (p *Pincushion) GetPins(ctx context.Context, staleness time.Duration) []Pin {
	if ctx != nil && ctx.Err() != nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.statRequests++
	now := p.clk.Now()
	cutoff := now.Add(-staleness)
	var out []Pin
	for ts, st := range p.pins {
		if !st.wall.Before(cutoff) {
			st.active++
			st.lastUse = now
			out = append(out, Pin{TS: ts, Wall: st.wall})
		}
	}
	slices.SortFunc(out, func(a, b Pin) int { return cmp.Compare(a.TS, b.TS) })
	return out
}

// Register adopts a snapshot the caller holds pinned: the pincushion pins an
// untracked one itself (Config.DB.Pin), outside the registry lock, and tracks
// it only if that succeeded. It adds no use. Re-registering a tracked
// snapshot places nothing and keeps the later wall time: it was still the
// latest then. (Keeping the first let a deployment with no commits age its
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
	if st := p.pins[ts]; st != nil {
		if wall.After(st.wall) {
			st.wall = wall
		}
		return true
	}
	if adopt {
		p.pins[ts] = &pinState{wall: wall}
	}
	return false
}

// Release drops the caller's uses of the given snapshots (the set returned
// by GetPins). Snapshots stay pinned on the database until Sweep ages them
// out.
func (p *Pincushion) Release(tss []interval.Timestamp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clk.Now()
	for _, ts := range tss {
		if st := p.pins[ts]; st != nil && st.active > 0 {
			st.active--
			st.lastUse = now
		}
	}
}

// leakFactor scales the retention threshold into the leak cutoff: a pin
// whose use-count has been nonzero with no GetPins/Release activity for
// leakFactor × Retention is considered leaked (a client
// crashed, or a network fault lost a Release after the daemon had marked
// uses) and is swept anyway. This is safe for running transactions: once
// a transaction begins its database snapshot it holds its own engine pin
// (db.BeginTx pins, Abort/Commit unpin), so the pincushion reference only
// protects the short window between GetPins and the first query — far
// shorter than the leak cutoff.
const leakFactor = 4

// trimAge is the age past which an unused pin is reclaimed: Retention,
// tightened to the staleness bound when Config.Staleness promises that no
// GetPins call can ever return a pin that old again.
func (p *Pincushion) trimAge() time.Duration {
	if p.cfg.Staleness > 0 && p.cfg.Staleness < p.cfg.Retention {
		return p.cfg.Staleness
	}
	return p.cfg.Retention
}

// Sweep unpins snapshots that are unused and older than the trim threshold
// (Retention, or the tighter Config.Staleness bound) — plus pins whose
// use-counts have leaked (see leakFactor) — returning how many were
// removed. Run it periodically.
func (p *Pincushion) Sweep() int {
	p.mu.Lock()
	now := p.clk.Now()
	cutoff := now.Add(-p.trimAge())
	leakCutoff := now.Add(-leakFactor * p.cfg.Retention)
	var victims []interval.Timestamp
	for ts, st := range p.pins {
		switch {
		case st.active == 0 && st.wall.Before(cutoff):
		case st.active > 0 && st.wall.Before(cutoff) && st.lastUse.Before(leakCutoff):
			p.statLeaked++
		default:
			continue
		}
		victims = append(victims, ts)
		delete(p.pins, ts)
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

// SweepAll unpins every tracked snapshot regardless of age or use-count,
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
	// PinActive pins are flagged in use by at least one running
	// transaction; the database must retain their snapshots regardless of
	// age.
	PinActive PinClass = iota
	// PinIdle pins are unused but within retention, kept warm so the next
	// read-only transaction can share an already-pinned snapshot.
	PinIdle
	// PinExpired pins are unused and past the trim threshold (Retention, or
	// the tighter Config.Staleness bound): the next Sweep will unpin them.
	// A persistent PinExpired population means the sweeper is running too
	// rarely for the configured thresholds — every pin in this class is
	// pointlessly holding versions back from the database's vacuum.
	PinExpired

	numPinClasses
)

func (c PinClass) String() string {
	return [...]string{"active", "idle", "expired"}[c]
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
	Leaked   uint64 `json:"leaked"`   // pins force-swept with a nonzero use-count
	Pins     int    `json:"pins"`     // pins currently tracked

	// Horizon[c][i] counts tracked pins of class c whose age (now minus
	// the pin's snapshot wall time — how stale the versions it holds back
	// from vacuum may be) is within the i'th edge of 1s, 5s, 15s, 1m and
	// 5m; the last column is the overflow. Observability only: Stats
	// takes the same snapshot lock as GetPins but mutates nothing.
	Horizon [numPinClasses][len(horizonBuckets) + 1]int `json:"horizon"`
}

// InClass returns how many tracked pins are in class c, whatever their age.
func (s Stats) InClass(c PinClass) int {
	n := 0
	for _, b := range s.Horizon[c] {
		n += b
	}
	return n
}

// Stats returns a snapshot of counters and the per-class horizon histogram.
func (p *Pincushion) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Requests: p.statRequests,
		Sweeps:   p.statSweeps,
		Leaked:   p.statLeaked,
		Pins:     len(p.pins),
	}
	now := p.clk.Now()
	cutoff := now.Add(-p.trimAge())
	for _, ps := range p.pins {
		var c PinClass
		switch {
		case ps.active > 0:
			c = PinActive
		case ps.wall.Before(cutoff):
			c = PinExpired
		default:
			c = PinIdle
		}
		age := now.Sub(ps.wall)
		b := 0
		for b < len(horizonBuckets) && age > horizonBuckets[b] {
			b++
		}
		st.Horizon[c][b]++
	}
	return st
}

// Newest returns the most recent pin and whether one exists.
func (p *Pincushion) Newest() (Pin, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best Pin
	found := false
	for ts, st := range p.pins {
		if !found || ts > best.TS {
			best = Pin{TS: ts, Wall: st.wall}
			found = true
		}
	}
	return best, found
}

// NextTrim reports when the next currently-unused pin crosses the trim
// threshold (false if no unused pins are tracked). The sweeper uses it to
// schedule the pass that unpins it — and lets the database reclaim the
// versions only it could see — instead of letting expired pins sit until
// the next fixed tick.
func (p *Pincushion) NextTrim() (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var at time.Time
	found := false
	for _, st := range p.pins {
		if st.active > 0 {
			continue
		}
		t := st.wall.Add(p.trimAge())
		if !found || t.Before(at) {
			at = t
			found = true
		}
	}
	return at, found
}

// RunSweeper sweeps until stop is closed: at least every interval, and
// sooner when NextTrim says an idle pin is about to become reclaimable —
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
