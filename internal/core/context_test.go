package core

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/wire"
)

// --- Tx misuse: every use of a finished transaction must return ErrTxDone
// (satellite: double Commit, Commit after Abort, Query after finish were
// previously undefined behavior by documentation).

func TestTxMisuseAfterCommit(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 2, 100)
	get := getBalanceFn(r)

	tx, err := r.client.Begin(context.Background(), WithStaleness(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Query("SELECT balance FROM accounts WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if _, err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double Commit = %v, want ErrTxDone", err)
	}
	if _, err := tx.Query("SELECT balance FROM accounts WHERE id = 0"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Query after Commit = %v, want ErrTxDone", err)
	}
	if _, err := tx.Exec("UPDATE accounts SET balance = 1 WHERE id = 0"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Exec after Commit = %v, want ErrTxDone", err)
	}
	if _, err := get(tx, int64(0)); !errors.Is(err, ErrTxDone) {
		t.Fatalf("cacheable call after Commit = %v, want ErrTxDone", err)
	}
	tx.Abort() // must be a harmless no-op after Commit
}

func TestTxMisuseAfterAbort(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 2, 100)

	for _, rw := range []bool{false, true} {
		var tx *Tx
		var err error
		if rw {
			tx, err = r.client.Begin(context.Background(), WithReadWrite())
		} else {
			tx, err = r.client.Begin(context.Background(), WithStaleness(time.Minute))
		}
		if err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		if _, err := tx.Commit(); !errors.Is(err, ErrTxDone) {
			t.Fatalf("rw=%v: Commit after Abort = %v, want ErrTxDone", rw, err)
		}
		if _, err := tx.Query("SELECT balance FROM accounts WHERE id = 0"); !errors.Is(err, ErrTxDone) {
			t.Fatalf("rw=%v: Query after Abort = %v, want ErrTxDone", rw, err)
		}
		tx.Abort() // double Abort is a no-op
	}
}

// --- Cancellation semantics in the library layer.

func TestBeginOnCancelledContext(t *testing.T) {
	r := newRig(t, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.client.Begin(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Begin on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := r.client.Begin(ctx, WithReadWrite()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Begin(rw) on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestCancelAbortsAndReleasesPins: a transaction whose context is
// cancelled mid-flight returns wrapped context errors from every entry
// point, Commit aborts instead of committing, and every pinned snapshot is
// released (observable as an empty engine pin table once the pincushion
// retention window passes).
func TestCancelAbortsAndReleasesPins(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 2, 100)
	get := getBalanceFn(r)

	ctx, cancel := context.WithCancel(context.Background())
	tx, err := r.client.Begin(ctx, WithStaleness(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Query("SELECT balance FROM accounts WHERE id = 0"); err != nil {
		t.Fatal(err) // forces snapshot selection: a pin is now held
	}
	cancel()

	if _, err := tx.Query("SELECT balance FROM accounts WHERE id = 1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query after cancel = %v, want context.Canceled", err)
	}
	if _, err := get(tx, int64(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cacheable call after cancel = %v, want context.Canceled", err)
	}
	if _, err := tx.Commit(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Commit after cancel = %v, want context.Canceled", err)
	}
	if got := r.client.Stats().Aborted.Load(); got != 1 {
		t.Fatalf("Aborted = %d, want 1 (Commit on cancelled ctx aborts)", got)
	}

	// The transaction's session pin went with its abort; once retention
	// passes, a sweep unpins everything on the database.
	r.client.Close()
	r.clk.Advance(5 * time.Minute)
	r.pc.Sweep()
	if n := r.engine.PinnedCount(); n != 0 {
		t.Fatalf("engine still holds %d pinned snapshots after cancel+sweep", n)
	}
}

// --- WithoutCache.

func TestWithoutCacheBypassesCluster(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 2, 100)
	get := getBalanceFn(r)

	tx, err := r.client.Begin(context.Background(), WithStaleness(time.Minute), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := get(tx, int64(0)); err != nil || v != 100 {
		t.Fatalf("read = %d, %v", v, err)
	}
	tx.Commit()
	st := r.client.Stats()
	if st.CachePuts.Load() != 0 || st.Hits() != 0 {
		t.Fatalf("WithoutCache touched the cache: puts=%d hits=%d", st.CachePuts.Load(), st.Hits())
	}
}

// --- ReadWrite retry under injected serialization conflicts.

// conflictDB wraps a DB and makes the next N read/write commits fail with
// ErrSerialization (after actually aborting the underlying transaction).
type conflictDB struct {
	DB
	remaining atomic.Int32
}

func (d *conflictDB) Begin(ctx context.Context, readOnly bool, snap interval.Timestamp) (DBTx, error) {
	tx, err := d.DB.Begin(ctx, readOnly, snap)
	if err != nil || readOnly {
		return tx, err
	}
	return &conflictTx{DBTx: tx, d: d}, nil
}

type conflictTx struct {
	DBTx
	d *conflictDB
}

func (t *conflictTx) Commit() (interval.Timestamp, error) {
	if t.d.remaining.Add(-1) >= 0 {
		t.DBTx.Abort()
		return 0, db.ErrSerialization
	}
	return t.DBTx.Commit()
}

func TestReadWriteRetriesThenSucceeds(t *testing.T) {
	var cdb *conflictDB
	r := newRig(t, 1, func(cfg *Config) {
		cdb = &conflictDB{DB: cfg.DB}
		cfg.DB = cdb
	})
	setupAccounts(t, r, 2, 100)

	cdb.remaining.Store(2) // two injected conflicts, then clean
	runs := 0
	ts, err := r.client.ReadWrite(context.Background(), func(tx *Tx) error {
		runs++
		_, err := tx.Exec("UPDATE accounts SET balance = 7 WHERE id = 0")
		return err
	})
	if err != nil {
		t.Fatalf("ReadWrite = %v after %d runs", err, runs)
	}
	if runs != 3 {
		t.Fatalf("closure ran %d times, want 3 (two conflicts + success)", runs)
	}
	if ts == 0 {
		t.Fatal("ReadWrite returned zero commit timestamp")
	}
	r.settle(t)
	tx, _ := r.client.Begin(context.Background(), WithStaleness(time.Minute), WithMinTimestamp(ts))
	res, err := tx.Query("SELECT balance FROM accounts WHERE id = 0")
	tx.Commit()
	if err != nil || res.Rows[0][0].(int64) != 7 {
		t.Fatalf("post-retry read = %v, %v", res, err)
	}
}

func TestReadWriteRetryBoundExhausted(t *testing.T) {
	var cdb *conflictDB
	r := newRig(t, 1, func(cfg *Config) {
		cdb = &conflictDB{DB: cfg.DB}
		cfg.DB = cdb
	})
	setupAccounts(t, r, 1, 100)

	cdb.remaining.Store(100) // more conflicts than the retry bound
	runs := 0
	_, err := r.client.ReadWrite(context.Background(), func(tx *Tx) error {
		runs++
		_, err := tx.Exec("UPDATE accounts SET balance = 7 WHERE id = 0")
		return err
	})
	if !errors.Is(err, ErrSerialization) {
		t.Fatalf("ReadWrite = %v, want ErrSerialization after retries exhausted", err)
	}
	if runs != 1+maxRetries {
		t.Fatalf("closure ran %d times, want %d (initial + %d retries)", runs, 1+maxRetries, maxRetries)
	}
}

func TestReadOnlyRunnerReleasesOnPanic(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 100)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_, _ = r.client.ReadOnly(context.Background(), func(tx *Tx) error {
			if _, err := tx.Query("SELECT balance FROM accounts WHERE id = 0"); err != nil {
				t.Fatal(err)
			}
			panic("boom")
		})
	}()
	if got := r.client.Stats().Aborted.Load(); got != 1 {
		t.Fatalf("Aborted = %d, want 1 (panic path must abort)", got)
	}
	r.client.Close()
	r.clk.Advance(5 * time.Minute)
	r.pc.Sweep()
	if n := r.engine.PinnedCount(); n != 0 {
		t.Fatalf("engine still holds %d pins after panic abort", n)
	}
}

// --- End-to-end wire cancellation: a context cancelled while the
// multiplexed client awaits a LookupBatch returns within the deadline,
// leaks no pins and no goroutines. (The pending-table reclamation detail is
// asserted in package cacheserver, which can see the table.)

func TestCancelDuringBatchedWireLookup(t *testing.T) {
	r := newRig(t, 0, nil)
	setupAccounts(t, r, 2, 100)

	// A stub cache node that accepts the protocol but never responds —
	// the worst-case slow node.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					if _, err := wire.ReadFrame(conn); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	baseline := runtime.NumGoroutine()
	cn, err := cacheserver.Dial(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r.client.AddNode("slow", cn)

	ctx, cancel := context.WithCancel(context.Background())
	tx, err := r.client.Begin(ctx, WithStaleness(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Query("SELECT balance FROM accounts WHERE id = 0"); err != nil {
		t.Fatal(err) // pin a snapshot, which the transaction holds until it ends
	}
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	probes := []cacheserver.BatchLookup{{Key: "a", Lo: 1, Hi: 1}, {Key: "b", Lo: 1, Hi: 1}}
	for _, res := range cn.LookupBatch(tx.ctx, probes) {
		if res.Found {
			t.Fatal("a mute node found something")
		}
	}
	// Well under the 2s transport timeout: the cancel, not the timer,
	// released us.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("LookupBatch returned after %v, want prompt return on cancel", elapsed)
	}
	tx.Abort()

	if got := cn.ClientStats().Canceled; got == 0 {
		t.Fatal("transport never counted the cancelled request")
	}

	// Close gives the lease back and tears the slow node down. No pins
	// survive it (after the retention sweep)...
	r.client.Close()
	r.clk.Advance(5 * time.Minute)
	r.pc.Sweep()
	if n := r.engine.PinnedCount(); n != 0 {
		t.Fatalf("engine still holds %d pins", n)
	}
	// ...and no goroutines survive the node teardown.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHitRateZeroLookups pins the division semantics: an idle client
// reports 0, not NaN.
func TestHitRateZeroLookups(t *testing.T) {
	var st ClientStats
	if hr := st.HitRate(); hr != 0 {
		t.Fatalf("idle HitRate = %v, want 0", hr)
	}
}
