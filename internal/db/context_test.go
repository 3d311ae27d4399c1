package db

import (
	"context"
	"errors"
	"testing"
)

func TestBeginTxCancelled(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.BeginTx(ctx, true, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("BeginTx on cancelled ctx = %v, want context.Canceled", err)
	}
	if n := e.PinnedCount(); n != 0 {
		t.Fatalf("cancelled begin leaked %d pins", n)
	}
}

func TestTxObservesCancellation(t *testing.T) {
	e := New(Options{})
	if err := e.DDL(`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	tx, err := e.BeginTx(ctx, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t (id, v) VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := tx.Query("SELECT v FROM t WHERE id = 1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query after cancel = %v, want context.Canceled", err)
	}
	if _, err := tx.Exec("INSERT INTO t (id, v) VALUES (2, 2)"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Exec after cancel = %v, want context.Canceled", err)
	}
	// Commit on a cancelled context aborts: nothing publishes, the pin and
	// scratch are released.
	if _, err := tx.Commit(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Commit after cancel = %v, want context.Canceled", err)
	}
	if n := e.PinnedCount(); n != 0 {
		t.Fatalf("aborted tx leaked %d pins", n)
	}

	ro, err := e.BeginTx(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Abort()
	r, err := ro.Query("SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Fatalf("cancelled commit published its write set: %v", r.Rows)
	}
}
