package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/sql"
)

// Tx errors.
var (
	// ErrTxDone is returned when using a finished transaction: any Query,
	// Exec, cacheable call, or second Commit after the
	// transaction has committed or aborted.
	ErrTxDone = errors.New("txcache: transaction already finished")
	// ErrReadOnly is returned when a read-only transaction writes.
	ErrReadOnly = errors.New("txcache: read-only transaction cannot write")
	// ErrSerialization is the retryable serialization failure: the
	// first-committer-wins conflict a read/write Commit can return, or a
	// read-only statement at a pinned snapshot swept before it arrived
	// (db.ErrNotPinned). Client.ReadWrite and Client.ReadOnly retry it.
	ErrSerialization = db.ErrSerialization
)

// Tx is a TxCache transaction (paper §2.1). Read/write transactions run
// directly on the database, bypassing the cache; read-only transactions
// read cached data and the library guarantees everything they see is
// consistent with one snapshot within the staleness limit. A Tx is not safe
// for concurrent use.
//
// A Tx carries the context it was begun with: Query, Exec and cacheable
// calls observe its cancellation and return the wrapped context
// error, and Commit on a cancelled context aborts instead of committing.
// Abort never blocks on the context — a cancelled transaction still
// releases its pins and database snapshot promptly.
type Tx struct {
	c       *Client
	ctx     context.Context
	rw      bool
	noCache bool
	done    bool

	staleness time.Duration

	// Lazy timestamp selection state (paper §6.2).
	pinSet []pincushion.Pin // sorted ascending, timestamps distinct
	// star is ★, "can still run in the present"; with dbtx set, dbtx runs at
	// the latest snapshot and no reply has named it yet (takeStar).
	star   bool
	origLo interval.Timestamp

	dbtx   DBTx
	dbSnap interval.Timestamp // snapshot the DB transaction runs at

	frames []*frame // cacheable-call stack (innermost last)
}

// frame accumulates what one in-flight cacheable function depends on (paper
// §6.1, §6.3) in the shape every dependency arrives in: proven is the
// interval over which everything the function saw was checked — by the
// database at the transaction's snapshot, or by a cache node against its
// invalidation stream — and open says that nothing seen had ended there: past
// proven.Hi-1 the result holds until an invalidation matches one of tags.
// Tags are TagIDs, so merging a dependency is an integer map insert; the map
// itself is allocated on the first tag. A frame starts with nothing seen:
// proven everywhere, open.
type frame struct {
	proven interval.Interval
	open   bool
	tags   map[invalidation.TagID]struct{}
}

// absorb merges one observed dependency into the frame: the result is proven
// only where every dependency was, and stays open only while all of them are.
func (f *frame) absorb(iv interval.Interval, tags []invalidation.TagID, open bool) {
	f.proven = f.proven.Intersect(iv)
	f.open = f.open && open
	f.addTags(tags)
}

// addTags merges tags into the frame's dependency set.
func (f *frame) addTags(tags []invalidation.TagID) {
	if len(tags) == 0 {
		return
	}
	if f.tags == nil {
		f.tags = make(map[invalidation.TagID]struct{}, 8)
	}
	for _, t := range tags {
		f.tags[t] = struct{}{}
	}
}

// Begin starts a transaction bound to ctx. Without options it is a
// read-only transaction at the client's default staleness limit, reading
// through the cache; WithStaleness, WithMinTimestamp, WithReadWrite, and
// WithoutCache adjust that.
//
// A read-only transaction takes its pin set from the client's pin-set lease
// (lease.go) — the pinned snapshots no older than its staleness bound by the
// client clock — so beginning it costs the pincushion nothing while the
// lease is current, and ending it never does.
//
// The context governs the whole transaction: every Query, Exec and
// cacheable call observes its cancellation, and a deadline bounds the
// network round trips of remote database and cache nodes. A nil ctx is
// treated as context.Background().
func (c *Client) Begin(ctx context.Context, opts ...TxOption) (*Tx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := txOptions{staleness: defaultStaleness}
	for _, opt := range opts {
		opt(&o)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("txcache: begin: %w", err)
	}
	if o.rw {
		c.stats.RWBegun.Add(1)
		dbtx, err := c.db.Begin(ctx, false, 0)
		if err != nil {
			return nil, err
		}
		return &Tx{c: c, ctx: ctx, rw: true, noCache: o.noCache, dbtx: dbtx}, nil
	}
	c.stats.ROBegun.Add(1)
	tx := &Tx{c: c, ctx: ctx, noCache: o.noCache, staleness: o.staleness, star: true}
	if c.pc != nil {
		if l, now := c.acquireLease(ctx, o.staleness); l != nil {
			// The lease may be up to one term old and fetched with a larger
			// bound, so the staleness limit is applied here, per transaction.
			oldest := now.Add(-o.staleness)
			tx.pinSet = make([]pincushion.Pin, 0, len(l.pins))
			for _, p := range l.pins {
				if !p.Wall.Before(oldest) && (!o.hasMinTS || p.TS >= o.minTS) {
					tx.pinSet = append(tx.pinSet, p)
				}
			}
		}
	}
	switch {
	case len(tx.pinSet) > 0:
		tx.origLo = tx.pinSet[0].TS
	case o.hasMinTS:
		tx.origLo = o.minTS // ★ remains: a fresh pin will satisfy the floor
	default:
		tx.origLo = interval.Infinity // no fresh pins: nothing in cache is acceptable
	}
	return tx, nil
}

// ctxErr reports the transaction's context cancellation, wrapped so
// callers can errors.Is against context.Canceled / DeadlineExceeded.
func (tx *Tx) ctxErr() error {
	if err := tx.ctx.Err(); err != nil {
		return fmt.Errorf("txcache: %w", err)
	}
	return nil
}

// cacheOK reports whether this transaction reads through the cache.
func (tx *Tx) cacheOK() bool { return !tx.rw && !tx.noCache && tx.c.CacheEnabled() }

// Commit finishes the transaction and returns the timestamp it ran at
// (paper §2.2): applications can thread this into the staleness bound of a
// later transaction to enforce causality ("never see time move backwards").
func (tx *Tx) Commit() (interval.Timestamp, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if err := tx.ctxErr(); err != nil {
		// A cancelled transaction must not publish its work; aborting here
		// releases pins and the database snapshot promptly.
		tx.Abort()
		return 0, err
	}
	tx.done = true
	if tx.rw {
		tx.c.stats.Committed.Add(1)
		return tx.dbtx.Commit()
	}
	if tx.dbtx != nil {
		// Read-only database transactions have nothing to make durable.
		if _, err := tx.dbtx.Commit(); err != nil {
			return 0, err
		}
	}
	tx.c.stats.Committed.Add(1)
	switch {
	case tx.dbSnap != 0:
		return tx.dbSnap, nil
	case len(tx.pinSet) > 0:
		return tx.pinSet[len(tx.pinSet)-1].TS, nil
	default:
		return 0, nil // transaction observed nothing
	}
}

// Abort abandons the transaction.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.c.stats.Aborted.Add(1)
	if tx.dbtx != nil {
		tx.dbtx.Abort()
	}
}

// Query runs a "bare" SELECT (outside or inside a cacheable function). In a
// read-only transaction it executes at the lazily-selected snapshot and
// narrows the pin set by the result's validity interval.
func (tx *Tx) Query(src string, args ...sql.Value) (*db.Result, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if err := tx.ctxErr(); err != nil {
		return nil, err
	}
	var wall time.Time // a ★ pin's, read before its Begin: no fresher than it is
	if tx.dbtx == nil {
		wall = tx.c.clk.Now()
	}
	if err := tx.ensureDBTx(); err != nil {
		return nil, tx.swept(err)
	}
	tx.c.stats.DBQueries.Add(1)
	r, err := tx.dbtx.Query(src, args...)
	if err != nil {
		if tx.star { // nothing was read at the snapshot it was to name: begin afresh
			tx.dbtx.Abort()
			tx.dbtx = nil
		}
		return nil, tx.swept(err)
	}
	if tx.star {
		tx.takeStar(wall)
	}
	if !tx.rw {
		// The database says when the result began and, if it has ended,
		// when; while it has not, all the transaction knows is that it held
		// at the snapshot the query ran at.
		iv, open := r.Validity, r.Validity.Unbounded()
		if open {
			iv.Hi = tx.dbSnap + 1
		}
		tx.observe(iv, r.Tags, open)
	}
	return r, nil
}

// swept passes a statement's error through. A read-only one fails with
// ErrSerialization only at a pinned snapshot swept after the lease offered it
// (db.ErrNotPinned): the lease is dropped, so the next Begin asks the
// pincushion afresh instead of being offered the same snapshot again.
func (tx *Tx) swept(err error) error {
	if !tx.rw && errors.Is(err, ErrSerialization) {
		tx.c.stats.SweptRetries.Add(1)
		tx.c.endLease()
	}
	return err
}

// Exec runs INSERT/UPDATE/DELETE; read/write transactions only.
func (tx *Tx) Exec(src string, args ...sql.Value) (int, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if !tx.rw {
		return 0, ErrReadOnly
	}
	if err := tx.ctxErr(); err != nil {
		return 0, err
	}
	return tx.dbtx.Exec(src, args...)
}

// ensureDBTx begins the underlying database transaction on first use,
// forcing timestamp selection for read-only transactions (paper §6.2:
// "the library is finally forced to select a specific timestamp").
func (tx *Tx) ensureDBTx() error {
	if tx.dbtx != nil {
		return nil
	}
	// Policy (paper §6.2): take ★ — run on a brand-new snapshot — only when
	// the newest pinned candidate is older than the freshness threshold;
	// otherwise reuse the newest pin to avoid flooding the database with
	// pinned snapshots.
	if tx.star && len(tx.pinSet) > 0 && tx.c.clk.Now().Sub(tx.pinSet[len(tx.pinSet)-1].Wall) <= tx.c.fresh {
		tx.star = false
	}
	if !tx.star {
		if len(tx.pinSet) == 0 {
			return fmt.Errorf("txcache: internal: no pinned snapshot to run at")
		}
		tx.dbSnap = tx.pinSet[len(tx.pinSet)-1].TS
	}
	// ★ begins at the latest snapshot (dbSnap 0), which the transaction's own
	// session pins from its first statement to its end.
	dbtx, err := tx.c.db.Begin(tx.ctx, true, tx.dbSnap)
	if err != nil {
		return err
	}
	tx.dbtx = dbtx
	return nil
}

// takeStar reifies ★ from the reply that named the snapshot; wall is the
// client clock before the transaction began. The session holds the snapshot
// to the transaction's end; Register, while it does, has the pincushion pin
// it for the transactions that follow.
func (tx *Tx) takeStar(wall time.Time) {
	ts := tx.dbtx.Snapshot()
	tx.c.stats.PinsPlaced.Add(1)
	tx.insertPin(pincushion.Pin{TS: ts, Wall: wall})
	tx.star = false
	tx.dbSnap = ts
	if tx.c.pc != nil {
		tx.c.pc.Register(ts, wall)
		// The current lease cannot contain this pin. Left in place, every
		// transaction in the rest of its term would also find its newest
		// pin too old and place one of its own.
		tx.c.endLease()
	}
}

// insertPin adds a pin to the sorted pin set, deduplicating timestamps.
func (tx *Tx) insertPin(p pincushion.Pin) {
	for i, q := range tx.pinSet {
		if q.TS == p.TS {
			return
		}
		if q.TS > p.TS {
			tx.pinSet = append(tx.pinSet, pincushion.Pin{})
			copy(tx.pinSet[i+1:], tx.pinSet[i:])
			tx.pinSet[i] = p
			return
		}
	}
	tx.pinSet = append(tx.pinSet, p)
}

// observe narrows the transaction's pin set to the timestamps consistent
// with a value it just saw (invariant 1 of §6.2.1), removes ★ once any data
// has been observed, and merges the value's dependency into every open
// cacheable-function frame (§6.3). iv is the bounded interval the value was
// proven on — a database result up to the transaction's snapshot, a cache hit
// up to its node's horizon — so the pin set narrows by exactly what was
// checked; open says the value had not ended there (frame.absorb).
func (tx *Tx) observe(iv interval.Interval, tags []invalidation.TagID, open bool) {
	// In the §8.3 no-consistency comparator the pin set is left alone;
	// frames still accumulate so entries carry honest intervals.
	if !tx.c.noCon {
		kept := tx.pinSet[:0]
		for _, p := range tx.pinSet {
			if iv.Contains(p.TS) {
				kept = append(kept, p)
			}
		}
		tx.pinSet = kept
		tx.star = false
	}
	for _, f := range tx.frames {
		f.absorb(iv, tags, open)
	}
}

// bounds returns the inclusive lookup bounds of the pin set (paper §6.2:
// "the bounds of the pin set, excluding ★"), and whether any exist. In
// no-consistency mode the bounds are the whole freshness window.
//
// Once the transaction has been forced to select a database snapshot
// (ensureDBTx set dbSnap), the bounds collapse to exactly that timestamp:
// every database read is anchored at dbSnap, so accepting a cached value
// not valid at dbSnap would let one transaction mix two snapshots. (This
// closed the long-standing torn-sum race: a cache hit valid only at an
// older pin could evict dbSnap from the pin set, after which further
// database queries — still executing at dbSnap — silently disagreed with
// the accepted hit.)
func (tx *Tx) bounds() (lo, hi interval.Timestamp, ok bool) {
	if tx.c.noCon {
		return tx.origLo, interval.Infinity, tx.origLo != interval.Infinity
	}
	if tx.dbSnap != 0 {
		return tx.dbSnap, tx.dbSnap, true
	}
	if len(tx.pinSet) == 0 {
		return 0, 0, false
	}
	return tx.pinSet[0].TS, tx.pinSet[len(tx.pinSet)-1].TS, true
}
