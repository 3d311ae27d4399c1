package db

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/clock"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/mvcc"
	"txcache/internal/sql"
)

// Common engine errors.
var (
	// ErrSerialization is returned by Commit when first-committer-wins
	// validation fails: another transaction modified a row in this
	// transaction's write set after its snapshot. Retry the transaction.
	ErrSerialization = errors.New("db: serialization failure, retry transaction")
	// ErrUnique is returned by Commit on a unique-index violation.
	ErrUnique = errors.New("db: unique constraint violation")
	// ErrReadOnly is returned when a read-only transaction attempts a write.
	ErrReadOnly = errors.New("db: read-only transaction cannot write")
	// ErrTxDone is returned when using a committed or aborted transaction.
	ErrTxDone = errors.New("db: transaction already finished")
	// ErrNotPinned is returned when beginning a read-only transaction at an
	// unpinned past snapshot. It is an ErrSerialization: the snapshot was
	// swept after the caller chose it, and a retry chooses afresh.
	ErrNotPinned = fmt.Errorf("db: snapshot is not pinned: %w", ErrSerialization)
	// ErrClosed is returned by writes arriving after Close began shutting
	// the durable engine down (reads keep working; durability is a
	// write-path property).
	ErrClosed = errors.New("db: engine closed")
	// ErrAlreadyExists is returned by DDL when the table or index being
	// created already exists. Typed so callers — recovery's DDL replay in
	// particular, where a statement can legitimately appear both in the
	// restored checkpoint's catalog and in a kept log segment — can test
	// with errors.Is instead of matching message substrings.
	ErrAlreadyExists = errors.New("db: already exists")
)

// Options configures an Engine.
type Options struct {
	// Clock supplies wall-clock time for commit records and pin times.
	// Defaults to the real clock.
	Clock clock.Clock
	// Bus receives one invalidation message per committed read/write
	// transaction. Optional.
	Bus *invalidation.Bus
	// Pool simulates a bounded buffer cache with a disk penalty.
	// Nil models the in-memory configuration.
	Pool *PoolConfig
	// DisableValidityTracking turns off validity-interval and tag
	// computation, emulating a stock DBMS; used to measure the overhead of
	// the paper's database modifications (§8.1).
	DisableValidityTracking bool
	// EagerVisibilityCheck reverts to stock-Postgres scan ordering: the
	// (cheap) visibility check runs before the predicate, so every
	// snapshot-invisible tuple scanned pollutes the invalidity mask
	// whether or not it could have matched. The paper's modification
	// (§5.2) evaluates the predicate first, tightening the mask; this
	// option exists to measure that design choice (an ablation).
	EagerVisibilityCheck bool
	// VacuumEvery is the watermark delta (in commit timestamps) between
	// automatic vacuum passes: the commit sequencer starts a background pass
	// whenever the watermark has advanced that far past the last trigger,
	// and a full Unpin of a snapshot below it starts one too. 0 selects the
	// default (256); negative disables automatic vacuum (callers then run
	// Vacuum themselves, as tests do).
	VacuumEvery int
	// Durability enables the write-ahead log and checkpointing. Only Open
	// honors it (recovery must run before the engine serves traffic); New
	// ignores it and builds the in-memory configuration.
	Durability *DurabilityOptions
}

// wildcardTagLimit caps the number of distinct key tags one commit or one
// query may emit per table before collapsing them into a table wildcard
// (paper §5.3).
const wildcardTagLimit = 64

// defaultVacuumEvery is the auto-vacuum watermark delta when unset.
const defaultVacuumEvery = 256

// Engine is the multiversion database server. All methods are safe for
// concurrent use.
type Engine struct {
	clk      clock.Clock
	bus      *invalidation.Bus
	pool     *bufferPool
	track    bool
	wcLim    int
	eagerVis bool

	// catMu guards only the tables map (the catalog): DDL holds it
	// exclusive, table-name resolution holds it shared. Table data is
	// guarded by each Table's own lock, and commit visibility by the
	// sequencer — see DESIGN.md for the locking hierarchy.
	catMu  sync.RWMutex
	tables map[string]*Table

	// seq stamps read/write commits and publishes them in timestamp
	// order (the pipelined commit path).
	seq commitSequencer

	// dur is the durability runtime (WAL writer, checkpoint state); nil
	// for a pure in-memory engine. Set by Open before the engine serves
	// traffic and immutable afterwards.
	dur *durState

	// planCache memoizes projection plans per parsed SELECT (*sql.Select →
	// *selPlan). Keyed per engine: statement ASTs are shared process-wide
	// by the parse cache, but column positions depend on this engine's
	// schema.
	planCache sync.Map

	lastCommit atomic.Uint64 // interval.Timestamp of the newest published commit

	// pinMu guards pins and serializes pin acquisition against a vacuum
	// pass reading the pin set.
	pinMu sync.Mutex
	pins  map[interval.Timestamp]int // snapshot id -> refcount

	// Vacuum scheduling and scratch. vacMu serializes passes so their
	// reusable buffers are safe. vacGate throttles the sequencer's trigger
	// to one spawned pass per vacEvery timestamps; vacKick is set while a
	// pass that Unpin started has not yet read the pin set, so a burst of
	// unpins spawns one.
	vacEvery uint64 // 0 = automatic vacuum disabled
	vacGate  atomic.Uint64
	vacKick  atomic.Bool
	vacMu    sync.Mutex
	vacBuf   []mvcc.Reclaimed
	vacTabs  []*Table
	vacPins  []interval.Timestamp

	// Statistics.
	statQueries  atomic.Uint64
	statCommits  atomic.Uint64
	statConflict atomic.Uint64
	statVacuumed atomic.Uint64
}

// New creates an empty database engine.
func New(opts Options) *Engine {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	vacEvery := uint64(defaultVacuumEvery)
	switch {
	case opts.VacuumEvery > 0:
		vacEvery = uint64(opts.VacuumEvery)
	case opts.VacuumEvery < 0:
		vacEvery = 0
	}
	e := &Engine{
		clk:      opts.Clock,
		bus:      opts.Bus,
		pool:     newBufferPool(opts.Pool),
		track:    !opts.DisableValidityTracking,
		wcLim:    wildcardTagLimit,
		eagerVis: opts.EagerVisibilityCheck,
		vacEvery: vacEvery,
		tables:   make(map[string]*Table),
		pins:     make(map[interval.Timestamp]int),
	}
	// Timestamp 1 is "the empty database"; the first commit is 2. Snapshot 1
	// therefore always exists and sees nothing.
	e.lastCommit.Store(1)
	e.seq.init(1)
	e.vacGate.Store(1)
	return e
}

// LastCommit returns the timestamp of the most recent commit.
func (e *Engine) LastCommit() interval.Timestamp {
	return interval.Timestamp(e.lastCommit.Load())
}

// DDL executes a CREATE TABLE or CREATE INDEX statement. DDL is not
// transactional and not versioned; run it before serving traffic.
func (e *Engine) DDL(src string) error {
	st, err := sql.Parse(src)
	if err != nil {
		return err
	}
	if e.dur != nil {
		// DDL appends to the WAL; hold the shutdown gate like Commit does
		// so it cannot race Close's writer teardown (see durState.gate).
		e.dur.gate.RLock()
		defer e.dur.gate.RUnlock()
		if e.dur.closed.Load() {
			return ErrClosed
		}
	}
	e.catMu.Lock()
	defer e.catMu.Unlock()
	switch s := st.(type) {
	case *sql.CreateTable:
		if _, dup := e.tables[s.Name]; dup {
			return fmt.Errorf("%w: table %q", ErrAlreadyExists, s.Name)
		}
		t, err := newTable(s)
		if err != nil {
			return err
		}
		e.tables[s.Name] = t
	case *sql.CreateIndex:
		t, ok := e.tables[s.Table]
		if !ok {
			return fmt.Errorf("db: no table %q", s.Table)
		}
		// The exclusive catalog lock keeps new statements from resolving
		// tables, but statements already past resolution hold only the
		// table lock; take it to wait them out before backfilling.
		t.mu.Lock()
		err := t.addIndex(s)
		t.mu.Unlock()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("db: DDL expects CREATE TABLE/INDEX, got %T", st)
	}
	// Log the statement before releasing the catalog lock: no commit
	// against the new table can resolve it (resolution shares catMu) until
	// the record is durable, so a commit-group record can never precede
	// the DDL that defines its table. Recovery replays with dur unset, so
	// replayed DDL is never re-logged.
	if e.dur != nil {
		return e.walAppendDDL(src)
	}
	return nil
}

// PinLatest pins the latest committed snapshot and returns its id and the
// current wall-clock time (paper §5.1's PIN command). The snapshot's
// versions are retained until a matching Unpin.
func (e *Engine) PinLatest() (interval.Timestamp, time.Time) {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	ts := e.LastCommit()
	e.pins[ts]++
	return ts, e.clk.Now()
}

// Pin adds a reference to an already-pinned snapshot, failing if it is not
// currently pinned (its data may already be vacuumed).
func (e *Engine) Pin(ts interval.Timestamp) error {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	if e.pins[ts] == 0 && ts != e.LastCommit() {
		return ErrNotPinned
	}
	e.pins[ts]++
	return nil
}

// Unpin releases one reference to a pinned snapshot (paper §5.1's UNPIN).
// Fully releasing a snapshot below the latest commit may free versions only
// it could see, which no sequencer trigger is waiting for, so it starts a
// background pass; one that finds nothing to reclaim takes no table's lock
// exclusively.
func (e *Engine) Unpin(ts interval.Timestamp) {
	if e.unpin(ts) && e.vacEvery != 0 && e.vacKick.CompareAndSwap(false, true) {
		go e.Vacuum()
	}
}

// unpin releases one reference to ts and reports whether that released the
// snapshot below the latest commit. A transaction ending calls it directly:
// its snapshot held versions only while it ran, and the sequencer's next
// trigger reclaims them without a goroutine per commit.
func (e *Engine) unpin(ts interval.Timestamp) bool {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	if n := e.pins[ts]; n > 1 {
		e.pins[ts] = n - 1
		return false
	}
	delete(e.pins, ts)
	return ts < e.LastCommit()
}

// PinnedCount returns the number of distinct pinned snapshots.
func (e *Engine) PinnedCount() int {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	return len(e.pins)
}

// pinSet reads what a pass must keep (paper §5.1): the latest commit and
// the distinct pinned snapshots below it, ascending, in e.vacPins. A
// snapshot pinned after it returns is at or above that commit — PinLatest
// and BeginTx take the latest commit, Pin only a snapshot already pinned —
// so it sees no version that died by then. Caller holds vacMu.
func (e *Engine) pinSet() (interval.Timestamp, []interval.Timestamp) {
	e.pinMu.Lock()
	last := e.LastCommit()
	pins := e.vacPins[:0]
	for ts := range e.pins {
		if ts < last {
			pins = append(pins, ts)
		}
	}
	e.pinMu.Unlock()
	slices.Sort(pins)
	e.vacPins = pins
	return last, pins
}

// maybeAutoVacuum spawns a background vacuum pass when the published
// watermark has advanced vacEvery timestamps past the last trigger. Called
// by the commit sequencer after each group publish; the CAS on the gate
// throttles a burst of groups to one spawned pass, and vacMu serializes
// the passes themselves.
func (e *Engine) maybeAutoVacuum() {
	if e.vacEvery == 0 {
		return
	}
	w := e.lastCommit.Load()
	g := e.vacGate.Load()
	if w-g < e.vacEvery || !e.vacGate.CompareAndSwap(g, w) {
		return
	}
	go e.Vacuum()
}

// Vacuum reclaims the row versions no pinned snapshot can see, returning
// the number removed. It mirrors Postgres's asynchronous vacuum cleaner
// (paper §5.1) with §5.1's retention rule: a version that died by the
// latest commit goes unless its [Created, Deleted) contains a pinned
// snapshot, so a version between two pins goes however old the oldest pin
// is. Passes are started by the commit sequencer every VacuumEvery
// timestamps and by a full Unpin; each is incremental: a store reads its
// death-ordered dead queue (no full Scan), skips what its bounds prove
// held, and reuses a shared buffer instead of a per-call result map. Index
// postings whose keys no longer appear among a row's surviving versions are
// dropped in the same critical section, as one sorted delete batch per
// index (the batch path commits use: flushIndexOpsLocked). Tables are
// vacuumed one at a time under their own locks, so a pass never freezes the
// engine: readers and commits on other tables proceed throughout. The pin
// set is read once up front; commits that stamp later only kill versions
// after its latest commit, which the pass leaves alone.
func (e *Engine) Vacuum() int {
	e.vacMu.Lock()
	defer e.vacMu.Unlock()
	e.vacKick.Store(false)
	last, pins := e.pinSet()
	e.catMu.RLock()
	tabs := e.vacTabs[:0]
	for _, t := range e.tables {
		tabs = append(tabs, t)
	}
	e.vacTabs = tabs
	e.catMu.RUnlock()
	total := 0
	for _, t := range tabs {
		// Shared-lock peek, exact: a table whose dead versions are all held
		// by pins takes no exclusive lock and stalls no reader.
		t.mu.RLock()
		reclaimable := t.store.Reclaimable(last, pins)
		t.mu.RUnlock()
		if !reclaimable {
			continue
		}
		t.mu.Lock()
		buf := t.store.VacuumPinned(last, pins, e.vacBuf[:0])
		for _, r := range buf {
			row := r.Ver.Data.(sql.Row)
			t.payload -= rowCost(row)
			t.queueIndexOps(r.ID, row, true)
		}
		t.flushIndexOpsLocked()
		total += len(buf)
		clear(buf) // release row payload references until the next pass
		e.vacBuf = buf[:0]
		t.mu.Unlock()
	}
	if total > 0 {
		e.statVacuumed.Add(uint64(total))
	}
	return total
}

// BeginTx starts a transaction bound to ctx. Read-only transactions run at
// snapshot snap, which must be pinned (by the pincushion, say) or be the
// latest; pass 0 to run on the latest snapshot, as the TxCache library does
// for a transaction that runs in the present (★). Either way the transaction
// holds a pin of its own on its snapshot until it ends. Read/write
// transactions always run on the latest snapshot (pass 0).
//
// Every statement of the transaction observes ctx's cancellation and
// returns the wrapped context error; Commit on a cancelled context aborts
// instead. Abort itself never blocks on the context, so a cancelled
// transaction always releases its snapshot pin and pooled scratch
// promptly. A nil ctx is treated as context.Background().
func (e *Engine) BeginTx(ctx context.Context, readOnly bool, snap interval.Timestamp) (*Tx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("db: begin: %w", err)
	}
	e.pinMu.Lock()
	if snap == 0 {
		snap = e.LastCommit()
	} else {
		if readOnly && e.pins[snap] == 0 && snap != e.LastCommit() {
			e.pinMu.Unlock()
			return nil, ErrNotPinned
		}
		if !readOnly {
			e.pinMu.Unlock()
			return nil, errors.New("db: read/write transactions cannot run in the past")
		}
	}
	// The transaction itself holds a pin so vacuum cannot pull versions out
	// from under it even if the pincushion unpins concurrently.
	e.pins[snap]++
	e.pinMu.Unlock()
	// Write-set maps are allocated lazily on first write; the execution
	// scratch comes from the engine-wide pool (returned at Commit/Abort).
	return &Tx{
		e:    e,
		ctx:  ctx,
		ro:   readOnly,
		snap: snap,
		sc:   getScratch(),
	}, nil
}

// Stats is a snapshot of engine counters. The JSON names are those of
// txcache-dbd's status file and /statsz's "db" section.
type Stats struct {
	Queries       uint64             `json:"queries"`
	Commits       uint64             `json:"commits"`
	Conflicts     uint64             `json:"conflicts"`
	Vacuumed      uint64             `json:"vacuumed"` // versions reclaimed since boot
	PoolHits      uint64             `json:"poolHits"`
	PoolMisses    uint64             `json:"poolMisses"`
	PinnedSnaps   int                `json:"pinnedSnapshots"`
	LastCommitTS  interval.Timestamp `json:"lastCommit"`
	TotalVersions int                `json:"versions"`
	// DeadVersions is how many of TotalVersions are dead and not yet
	// reclaimed (mvcc.Store.DeadCount): versions a pinned snapshot could
	// still see at the last vacuum pass, and those that died since.
	DeadVersions int `json:"deadVersions"`
	// IndexEntries and IndexBytes sum every index tree's own account of its
	// leaf level (btree.Stats): distinct keys, and the heap they hold. With
	// TotalVersions they say what the retained versions of the staleness
	// window cost in index memory.
	IndexEntries int `json:"indexEntries"`
	IndexBytes   int `json:"indexBytes"`
	// Rows and RowBytes say what the retained rows cost: rows not yet
	// vacuumed away (mvcc.Store.Len), and the heap they hold — the row
	// directories' pages and spilled chains (mvcc.Store.Bytes) plus every
	// version's packed row with the header that boxes it (Table.payload),
	// before the allocator rounds a row up to its size class.
	Rows     int `json:"rows"`
	RowBytes int `json:"rowBytes"`
	// StreamDropped is how many invalidation messages the bus lapped an open
	// subscriber past (invalidation.Bus.Dropped), closed subscribers included:
	// each lap is one gap the subscribing node crosses.
	StreamDropped uint64 `json:"streamDropped"`
}

// Stats returns current engine counters.
func (e *Engine) Stats() Stats {
	h, m := e.pool.Stats()
	s := Stats{
		Queries:      e.statQueries.Load(),
		Commits:      e.statCommits.Load(),
		Conflicts:    e.statConflict.Load(),
		Vacuumed:     e.statVacuumed.Load(),
		PoolHits:     h,
		PoolMisses:   m,
		PinnedSnaps:  e.PinnedCount(),
		LastCommitTS: e.LastCommit(),
	}
	if e.bus != nil {
		s.StreamDropped = e.bus.Dropped()
	}
	e.catMu.RLock()
	for _, t := range e.tables {
		t.mu.RLock()
		s.TotalVersions += t.store.VersionCount()
		s.DeadVersions += t.store.DeadCount()
		s.Rows += t.store.Len()
		s.RowBytes += t.store.Bytes() + t.payload
		for _, idx := range t.idxList {
			is := idx.tree.Stats()
			s.IndexEntries += is.Entries
			s.IndexBytes += is.Bytes
		}
		t.mu.RUnlock()
	}
	e.catMu.RUnlock()
	return s
}
