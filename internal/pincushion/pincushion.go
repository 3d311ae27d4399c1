// Package pincushion implements the pincushion daemon (paper §5.4): a
// lightweight registry of the snapshots currently pinned on the database,
// their wall-clock times, and how many running transactions might be using
// each. It answers "which pinned snapshots are fresh enough?" at the start
// of every read-only transaction and periodically unpins old unused
// snapshots.
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

// Unpinner releases pinned snapshots on the database; *db.Engine satisfies
// it. The pincushion calls it from Sweep for pins that have aged out.
type Unpinner interface {
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
	// DB, when set, is told to UNPIN swept snapshots.
	DB Unpinner
}

type pinState struct {
	wall    time.Time
	lastUse time.Time // most recent GetPins/Register/Release touching this pin
	active  int       // running transactions that may use this snapshot
	// placed counts PIN placements on the database for this snapshot. Two
	// clients can race past GetPins and both ★-pin the same latest
	// timestamp; the database reference-counts those placements, so the
	// sweeper must issue exactly as many UNPINs as there were PINs or the
	// snapshot stays pinned forever and silently holds back vacuum.
	placed int
}

// Pincushion tracks pinned snapshots. Safe for concurrent use.
type Pincushion struct {
	cfg Config
	clk clock.Clock

	mu   sync.Mutex
	pins map[interval.Timestamp]*pinState

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

// Register records a snapshot the caller just pinned on the database,
// marking it in use by the caller's transaction. Re-registering an existing
// snapshot adds a use and keeps the later wall time: the database handing
// out the same timestamp again means that snapshot was still the latest
// then, so it is as fresh as that later moment. (Keeping the first time
// instead let a deployment with no commits age its only snapshot past the
// staleness bound, after which no transaction could use the cache again.)
func (p *Pincushion) Register(ts interval.Timestamp, wall time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.pins[ts]
	if st == nil {
		st = &pinState{wall: wall}
		p.pins[ts] = st
	} else if wall.After(st.wall) {
		st.wall = wall
	}
	st.active++
	st.placed++
	st.lastUse = p.clk.Now()
}

// Release drops the caller's uses of the given snapshots (the set returned
// by GetPins plus any snapshot it Registered). Snapshots stay pinned on the
// database until Sweep ages them out.
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
// whose use-count has been nonzero with no GetPins/Register/Release
// activity for leakFactor × Retention is considered leaked (a client
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
	var victims []pinRef
	for ts, st := range p.pins {
		switch {
		case st.active == 0 && st.wall.Before(cutoff):
			victims = append(victims, pinRef{ts, st.placed})
		case st.active > 0 && st.wall.Before(cutoff) && st.lastUse.Before(leakCutoff):
			p.statLeaked++
			victims = append(victims, pinRef{ts, st.placed})
		}
	}
	for _, v := range victims {
		delete(p.pins, v.ts)
	}
	p.statSweeps++
	p.mu.Unlock()
	p.unpin(victims)
	return len(victims)
}

// pinRef pairs a swept timestamp with how many PIN placements it carries.
type pinRef struct {
	ts     interval.Timestamp
	placed int
}

// unpin releases every placement of each swept pin on the database,
// outside the registry lock: the database takes its own locks, and it
// reference-counts placements, so one UNPIN per PIN.
func (p *Pincushion) unpin(victims []pinRef) {
	if p.cfg.DB == nil {
		return
	}
	for _, v := range victims {
		n := v.placed
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			p.cfg.DB.Unpin(v.ts)
		}
	}
}

// SweepAll unpins every tracked snapshot regardless of age or use-count,
// returning how many were removed. Teardown only: a drained deployment has
// no transaction left that could use them, and any pin that outlives the
// daemon would keep the versions it sees from being reclaimed forever.
func (p *Pincushion) SweepAll() int {
	p.mu.Lock()
	victims := make([]pinRef, 0, len(p.pins))
	for ts, st := range p.pins {
		victims = append(victims, pinRef{ts, st.placed})
	}
	p.pins = make(map[interval.Timestamp]*pinState)
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

// HorizonBuckets returns the histogram's bucket edges (a copy); bucket i of
// Stats.Horizon counts pins aged at most edge i, and the final bucket
// collects everything older.
func HorizonBuckets() []time.Duration {
	out := make([]time.Duration, len(horizonBuckets))
	copy(out, horizonBuckets[:])
	return out
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
	// from vacuum may be) is within the i'th HorizonBuckets
	// edge; the last column is the overflow. Observability only: Stats
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

// Len returns the number of tracked pins.
func (p *Pincushion) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pins)
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
