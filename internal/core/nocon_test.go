package core

import (
	"testing"
	"time"

	"txcache/internal/sql"
)

// nocon_test.go covers the §8.3 no-consistency comparator's mechanics and
// the library's miss accounting paths not exercised elsewhere.

func TestNoConsistencyNeverNarrowsPinSet(t *testing.T) {
	r := newRig(t, 1, func(c *Config) { c.NoConsistency = true })
	setupAccounts(t, r, 4, 10)
	get := getBalanceFn(r)

	// Warm two entries at different snapshots.
	tx := beginRO(r.client, WithStaleness(time.Minute))
	if _, err := get(tx, int64(0)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r.exec(t, "UPDATE accounts SET balance = 11 WHERE id = 1")
	r.clk.Advance(10 * time.Second)
	tx = beginRO(r.client, WithStaleness(time.Minute))
	if _, err := get(tx, int64(1)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	// A no-consistency transaction reads both cached values and keeps its
	// full pin set: nothing constrains it.
	tx = beginRO(r.client, WithStaleness(time.Minute))
	sizeBefore := len(tx.pinSet)
	if _, err := get(tx, int64(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := get(tx, int64(1)); err != nil {
		t.Fatal(err)
	}
	if got := len(tx.pinSet); got != sizeBefore {
		t.Fatalf("no-consistency mode narrowed the pin set: %d -> %d", sizeBefore, got)
	}
	if !tx.star {
		t.Fatal("no-consistency mode should keep ★")
	}
	tx.Commit()
	if r.client.Stats().CacheHits.Load() < 2 {
		t.Fatalf("expected both reads to hit: %d", r.client.Stats().CacheHits.Load())
	}
}

func TestMissNoPinsAccounting(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 5)
	get := getBalanceFn(r)

	// First-ever transaction: the pincushion is empty, so the cacheable
	// call cannot even consult the cache (no bounds to send).
	tx := beginRO(r.client, WithStaleness(time.Minute))
	if _, err := get(tx, int64(0)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if got := r.client.Stats().MissNoPins.Load(); got != 1 {
		t.Fatalf("MissNoPins = %d, want 1", got)
	}
}

func TestBeginROSinceFutureTimestamp(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 5)
	get := getBalanceFn(r)

	// A minTS newer than every pin empties the candidate set; ★ remains
	// and the first query pins a fresh snapshot satisfying the floor.
	minTS := r.engine.LastCommit() // == newest possible
	tx := beginRO(r.client, WithStaleness(time.Minute), WithMinTimestamp(minTS))
	v, err := get(tx, int64(0))
	if err != nil || v != 5 {
		t.Fatalf("get = %d, %v", v, err)
	}
	ts, err := tx.Commit()
	if err != nil || ts < minTS {
		t.Fatalf("commit ts %d < floor %d (%v)", ts, minTS, err)
	}
}

func TestCommitWithoutObservationsReturnsZero(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 5)
	// Fresh client state: drop all pins by sweeping with a huge clock jump.
	r.clk.Advance(time.Hour)
	r.pc.Sweep()
	tx := beginRO(r.client, WithStaleness(time.Minute))
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ts != 0 {
		t.Fatalf("observation-free commit ts = %d, want 0", ts)
	}
}

func TestCachedFunctionWithMultipleArgs(t *testing.T) {
	r := newRig(t, 2, nil)
	setupAccounts(t, r, 6, 7)
	pair := MakeCacheable(r.client, "pairSum", func(tx *Tx, args ...sql.Value) (int64, error) {
		var sum int64
		for _, a := range args {
			res, err := tx.Query("SELECT balance FROM accounts WHERE id = ?", a)
			if err != nil || len(res.Rows) == 0 {
				return 0, err
			}
			sum += res.Rows[0][0].(int64)
		}
		return sum, nil
	})
	tx := beginRO(r.client, WithStaleness(time.Minute))
	a, err := pair(tx, int64(0), int64(1))
	if err != nil || a != 14 {
		t.Fatalf("pair(0,1) = %d, %v", a, err)
	}
	// Different argument order is a different key (and different result in
	// general); it must not collide.
	b, err := pair(tx, int64(1), int64(0))
	if err != nil || b != 14 {
		t.Fatalf("pair(1,0) = %d, %v", b, err)
	}
	tx.Commit()
	if puts := r.client.Stats().CachePuts.Load(); puts != 2 {
		t.Fatalf("distinct argument vectors must produce distinct entries: %d puts", puts)
	}
}

func TestStringTxDebugRendering(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 5)
	tx := beginRO(r.client, WithStaleness(time.Minute))
	if s := tx.String(); s == "" {
		t.Fatal("empty debug rendering")
	}
	get := getBalanceFn(r)
	get(tx, int64(0))
	if s := tx.String(); s == "" {
		t.Fatal("empty debug rendering after read")
	}
	tx.Commit()
}
