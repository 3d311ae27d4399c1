package core

import (
	"context"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/sql"
)

// TestNoSnapshotMixAfterSelection is the deterministic regression test for
// the torn-sum race the concurrency stress used to catch probabilistically
// (ROADMAP "rare consistency-stress flake"): once a transaction's database
// snapshot is reified (first real query), a cache hit whose validity covers
// an older pin but NOT the database snapshot must be rejected. Before the
// fix, such a hit was accepted (it overlapped the pin-set bounds and
// contained the older pin), evicted the database snapshot from the pin
// set, and left the transaction summing values from two snapshots.
//
// The sequence needs three accounts: one untouched (so the first query's
// wide validity keeps the old pin alive), one with a stale cached version,
// and one read fresh from the database after the stale hit.
func TestNoSnapshotMixAfterSelection(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 3, 100)
	get := getBalanceFn(r)

	// Pin the current snapshot (all accounts at 100).
	ts1, wall1 := r.engine.PinLatest()
	r.pc.Register(ts1, wall1)

	// Commit a transfer at ts2 > ts1: account 1 -> 90, account 2 -> 110.
	// Account 0 is untouched.
	rw, err := r.client.Begin(context.Background(), WithReadWrite())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Exec("UPDATE accounts SET balance = 90 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Exec("UPDATE accounts SET balance = 110 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	ts2, err := rw.Commit()
	if err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	r.pc.Register(ts2, r.clk.Now())

	// Install account 1's OLD balance as a bounded cache version valid
	// exactly [ts1, ts2): the state of the world the ts1 pin still accepts.
	data, err := encodeAs(int64(100))
	if err != nil {
		t.Fatal(err)
	}
	r.nodes[0].Put(cacheKey("getBalance", []sql.Value{int64(1)}), data,
		interval.Interval{Lo: ts1, Hi: ts2}, false, 0, nil)

	// Reader: pins {ts1, ts2}.
	// get(0) misses, anchors the database transaction at the newest pin
	// (ts2); account 0's version validity spans both pins, so ts1 stays in
	// the pin set. get(1) then finds the poisoned [ts1, ts2) version: it
	// contains pin ts1, so the pre-fix library accepted it, evicting ts2
	// (the database snapshot!) from the pin set. get(2) misses and reads
	// the database at ts2 — and the transaction has summed two snapshots.
	tx := beginRO(r.client, WithStaleness(time.Minute))
	v0, err := get(tx, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	if tx.dbSnap != ts2 {
		t.Fatalf("expected db snapshot %v (newest pin), got %v", ts2, tx.dbSnap)
	}
	if len(tx.pinSet) != 2 {
		t.Fatalf("account 0 is untouched; both pins must survive, have %d", len(tx.pinSet))
	}
	v1, err := get(tx, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := get(tx, int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if sum := v0 + v1 + v2; sum != 300 {
		t.Fatalf("torn sum: %d + %d + %d = %d (mixed snapshots %v and %v)", v0, v1, v2, sum, ts1, ts2)
	}
	if v1 != 90 {
		t.Fatalf("account 1 = %d, want 90 (state at the selected snapshot %v)", v1, ts2)
	}

	// The stale version must still be servable by a transaction that never
	// touches the database and holds only the ts1 pin — the rejection above
	// is about snapshot mixing, not staleness.
	tx2 := beginRO(r.client, WithStaleness(time.Minute))
	kept := tx2.pinSet[:0]
	for _, p := range tx2.pinSet {
		if p.TS == ts1 {
			kept = append(kept, p)
		}
	}
	tx2.pinSet = kept
	v, err := get(tx2, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if v != 100 {
		t.Fatalf("pinned-past read = %d, want the ts1-consistent 100", v)
	}
}
