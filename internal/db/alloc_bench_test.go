package db

import (
	"context"
	"testing"

	"txcache/internal/sql"
)

// Allocation-budget coverage for the executor's hot path. The point-select
// benchmark is the database half of the "zero-allocation read path": after
// the scratch pooling, hashed tags, cached projection plans, and the
// generation-stamped duplicate filter, a warmed-up indexed point SELECT
// performs a handful of allocations — only the objects that escape to the
// caller (the Result, its row and the values boxed into it, and the boxed
// argument).
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
// row, the tag-ID slice, the boxed query argument — 5, as before rows were
// packed — and one more for what projection now boxes: the 16-byte string
// header of the TEXT column it returns, which used to be shared with the
// stored row (the BIGINT beside it is below 256 and boxes for free; a larger
// one, or a DOUBLE, would be one object each). 6 measured, one of headroom.
const pointSelectAllocCeiling = 7

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

// BenchmarkFilteredScan reads rows the way the RUBiS pages do, on a table
// shaped like its items (two strings, then numbers): a sequential scan whose
// predicate sits on late columns and keeps one row in ten, a category's
// listing through its index (ORDER BY, LIMIT 20 of 200), and one whole row by
// key. It goes through the public API only, so the same file measures the
// commit before rows were packed.
func BenchmarkFilteredScan(b *testing.B) {
	e := New(Options{})
	for _, d := range []string{
		`CREATE TABLE items (id BIGINT PRIMARY KEY, name TEXT NOT NULL, description TEXT, initial_price DOUBLE,
			quantity BIGINT, nb_of_bids BIGINT, max_bid DOUBLE, end_date BIGINT, seller BIGINT, category BIGINT, region BIGINT)`,
		`CREATE INDEX items_category ON items (category)`,
	} {
		if err := e.DDL(d); err != nil {
			b.Fatal(err)
		}
	}
	const rows = 1000
	tx, err := e.BeginTx(context.Background(), false, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < rows; i++ {
		if _, err := tx.Exec(`INSERT INTO items (id, name, description, initial_price, quantity, nb_of_bids, max_bid, end_date, seller, category, region)
			VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			i, "item-"+string(rune('a'+i%26)), "a description of the usual length, which is to say longer than a name and shorter than a page",
			float64(i)+0.5, i%5, i%17, float64(i)+1.5, 1_700_000_000+(i*7919)%100_000, i%300, i%5, i%10); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name, src string
		args      []sql.Value
		want      int
	}{
		{"seq", "SELECT id, max_bid FROM items WHERE region = ? AND nb_of_bids >= ?", []sql.Value{int64(3), int64(0)}, rows / 10},
		{"listing", "SELECT id, name, max_bid, nb_of_bids, end_date FROM items WHERE category = ? ORDER BY end_date LIMIT 20", []sql.Value{int64(2)}, 20},
		{"row", "SELECT * FROM items WHERE id = ?", []sql.Value{int64(777)}, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tx, err := e.BeginTx(context.Background(), true, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer tx.Abort()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := tx.Query(bc.src, bc.args...)
				if err != nil || len(r.Rows) != bc.want {
					b.Fatalf("%d rows, %v; want %d", len(r.Rows), err, bc.want)
				}
			}
		})
	}
}
