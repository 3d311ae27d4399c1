package main

import (
	"context"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/sql"
)

// The three decorators sit on the interfaces core.Config accepts, so every
// call the library makes into the database client, a cache node or the
// pincushion crosses one. Each records a span and the counts visible at that
// boundary. With the recorder disabled they add one atomic load per call.
var (
	_ core.DB            = (*tracedDB)(nil)
	_ core.DBTx          = (*tracedTx)(nil)
	_ cacheserver.Node   = (*tracedNode)(nil)
	_ pincushion.Service = (*tracedPins)(nil)
)

// tracedDB wraps the database client. Span counts: begin none; query n1 =
// rows; exec n1 = rows affected; the rest none.
type tracedDB struct {
	inner core.DB
	rec   *recorder
}

func (d *tracedDB) Begin(ctx context.Context, readOnly bool, snap interval.Timestamp) (core.DBTx, error) {
	if !d.rec.enabled.Load() {
		return d.inner.Begin(ctx, readOnly, snap)
	}
	t0 := d.rec.now()
	tx, err := d.inner.Begin(ctx, readOnly, snap)
	d.rec.leaf(spDBBegin, t0, 0, 0)
	if err != nil {
		return nil, err
	}
	return &tracedTx{inner: tx, rec: d.rec}, nil
}

func (d *tracedDB) PinLatest() (interval.Timestamp, time.Time) {
	if !d.rec.enabled.Load() {
		return d.inner.PinLatest()
	}
	t0 := d.rec.now()
	ts, wall := d.inner.PinLatest()
	d.rec.leaf(spDBPinLatest, t0, 0, 0)
	return ts, wall
}

func (d *tracedDB) Unpin(ts interval.Timestamp) {
	if !d.rec.enabled.Load() {
		d.inner.Unpin(ts)
		return
	}
	t0 := d.rec.now()
	d.inner.Unpin(ts)
	d.rec.leaf(spDBUnpin, t0, 0, 0)
}

// tracedTx wraps one database transaction begun while tracing was on.
type tracedTx struct {
	inner core.DBTx
	rec   *recorder
}

func (t *tracedTx) Query(src string, args ...sql.Value) (*db.Result, error) {
	t0 := t.rec.now()
	r, err := t.inner.Query(src, args...)
	rows := 0
	if r != nil {
		rows = len(r.Rows)
	}
	t.rec.leaf(spDBQuery, t0, rows, 0)
	return r, err
}

func (t *tracedTx) Exec(src string, args ...sql.Value) (int, error) {
	t0 := t.rec.now()
	n, err := t.inner.Exec(src, args...)
	t.rec.leaf(spDBExec, t0, n, 0)
	return n, err
}

func (t *tracedTx) Commit() (interval.Timestamp, error) {
	t0 := t.rec.now()
	ts, err := t.inner.Commit()
	t.rec.leaf(spDBCommit, t0, 0, 0)
	return ts, err
}

func (t *tracedTx) Abort() {
	t0 := t.rec.now()
	t.inner.Abort()
	t.rec.leaf(spDBAbort, t0, 0, 0)
}

func (t *tracedTx) Snapshot() interval.Timestamp { return t.inner.Snapshot() }

// tracedNode wraps one cache node connection. Span counts: lookup n1 = 1
// when found, n2 = bytes returned; lookup_batch n1 = keys asked, n2 = keys
// found; put n1 = bytes stored.
type tracedNode struct {
	inner cacheserver.Node
	rec   *recorder
}

func (n *tracedNode) Lookup(ctx context.Context, key string, lo, hi, origLo, origHi interval.Timestamp) cacheserver.LookupResult {
	if !n.rec.enabled.Load() {
		return n.inner.Lookup(ctx, key, lo, hi, origLo, origHi)
	}
	t0 := n.rec.now()
	r := n.inner.Lookup(ctx, key, lo, hi, origLo, origHi)
	found := 0
	if r.Found {
		found = 1
	}
	n.rec.leaf(spCacheLookup, t0, found, len(r.Data))
	return r
}

func (n *tracedNode) LookupBatch(ctx context.Context, reqs []cacheserver.BatchLookup) []cacheserver.LookupResult {
	if !n.rec.enabled.Load() {
		return n.inner.LookupBatch(ctx, reqs)
	}
	t0 := n.rec.now()
	rs := n.inner.LookupBatch(ctx, reqs)
	found := 0
	for _, r := range rs {
		if r.Found {
			found++
		}
	}
	n.rec.leaf(spCacheLookupBatch, t0, len(reqs), found)
	return rs
}

func (n *tracedNode) Put(key string, data []byte, iv interval.Interval, still bool, genSnap interval.Timestamp, tags []invalidation.TagID) {
	if !n.rec.enabled.Load() {
		n.inner.Put(key, data, iv, still, genSnap, tags)
		return
	}
	t0 := n.rec.now()
	n.inner.Put(key, data, iv, still, genSnap, tags)
	n.rec.leaf(spCachePut, t0, len(data), 0)
}

func (n *tracedNode) Stats() cacheserver.Stats { return n.inner.Stats() }
func (n *tracedNode) ResetStats()              { n.inner.ResetStats() }

// tracedPins wraps the pincushion client. Span counts: getpins n1 = pins
// returned; release n1 = pins released.
type tracedPins struct {
	inner pincushion.Service
	rec   *recorder
}

func (p *tracedPins) GetPins(ctx context.Context, staleness time.Duration) []pincushion.Pin {
	if !p.rec.enabled.Load() {
		return p.inner.GetPins(ctx, staleness)
	}
	t0 := p.rec.now()
	pins := p.inner.GetPins(ctx, staleness)
	p.rec.leaf(spPinsGetPins, t0, len(pins), 0)
	return pins
}

func (p *tracedPins) Register(ts interval.Timestamp, wall time.Time) {
	if !p.rec.enabled.Load() {
		p.inner.Register(ts, wall)
		return
	}
	t0 := p.rec.now()
	p.inner.Register(ts, wall)
	p.rec.leaf(spPinsRegister, t0, 0, 0)
}

func (p *tracedPins) Release(tss []interval.Timestamp) {
	if !p.rec.enabled.Load() {
		p.inner.Release(tss)
		return
	}
	t0 := p.rec.now()
	p.inner.Release(tss)
	p.rec.leaf(spPinsRelease, t0, len(tss), 0)
}
