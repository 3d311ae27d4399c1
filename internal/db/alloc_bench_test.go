package db

import (
	"context"
	"testing"
)

// Allocation-budget coverage for the executor's hot path. The point-select
// benchmark is the database half of the "zero-allocation read path": after
// the scratch pooling, hashed tags, cached projection plans, and the
// generation-stamped duplicate filter, a warmed-up indexed point SELECT
// performs a handful of allocations — only the objects that escape to the
// caller (the Result, its row, and the boxed argument).
//
// TestAllocBudgetPointSelect pins a ceiling so a future change cannot
// quietly re-inflate the path; see EXPERIMENTS.md for the history.

func benchEngine(tb testing.TB) *Engine {
	tb.Helper()
	e := New(Options{})
	ddl := []string{
		`CREATE TABLE users (id BIGINT PRIMARY KEY, name TEXT NOT NULL, rating BIGINT)`,
		`CREATE INDEX users_name ON users (name)`,
	}
	for _, d := range ddl {
		if err := e.DDL(d); err != nil {
			tb.Fatal(err)
		}
	}
	tx, err := e.BeginTx(context.Background(), false, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < 128; i++ {
		if _, err := tx.Exec("INSERT INTO users (id, name, rating) VALUES (?, ?, ?)",
			i, "user-"+string(rune('a'+i%26)), i%10); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkQueryPointSelect measures the executor's per-query allocation
// budget on an indexed point select inside one long transaction.
func BenchmarkQueryPointSelect(b *testing.B) {
	e := benchEngine(b)
	tx, err := e.BeginTx(context.Background(), true, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Abort()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Query("SELECT name, rating FROM users WHERE id = ?", int64(i%128)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryPointSelectPerTx includes Begin/Abort, exercising the
// scratch pool's borrow/return cycle.
func BenchmarkQueryPointSelectPerTx(b *testing.B) {
	e := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := e.BeginTx(context.Background(), true, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Query("SELECT name, rating FROM users WHERE id = ?", int64(i%128)); err != nil {
			b.Fatal(err)
		}
		tx.Abort()
	}
}

// pointSelectAllocCeiling is the allocation budget for one warmed-up
// indexed point select: the Result struct, its rows slice, the one output
// row, the tag-ID slice, and the boxed query argument. Anything above this
// is a regression.
const pointSelectAllocCeiling = 6

func TestAllocBudgetPointSelect(t *testing.T) {
	e := benchEngine(t)
	tx, err := e.BeginTx(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	query := func() {
		if _, err := tx.Query("SELECT name, rating FROM users WHERE id = ?", int64(7)); err != nil {
			t.Fatal(err)
		}
	}
	query() // warm scratch and plan cache
	if avg := testing.AllocsPerRun(200, query); avg > pointSelectAllocCeiling {
		t.Fatalf("point select allocates %.1f objects/op, budget is %d", avg, pointSelectAllocCeiling)
	}
}
