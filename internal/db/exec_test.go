package db

import (
	"context"
	"strings"
	"testing"

	"txcache/internal/invalidation"
)

// exec_test.go covers executor corners beyond db_test.go's core paths:
// aliases, cross-binding predicates, NULL semantics, error reporting, and
// planner access-path selection.

func TestJoinWithCrossCondition(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a', 5, 1), (2, 'b', 9, 2)")
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (10, 1, 5.0, 1), (11, 2, 6.0, 1)")

	// items.category = users.region is a cross-binding condition evaluated
	// after the join.
	r := queryAt(t, e, 0, `SELECT i.id FROM items i JOIN users u ON i.seller = u.id WHERE i.category = u.region`)
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(10) {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestJoinReversedOnOrder(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a', 5, 1)")
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (10, 1, 5.0, 1)")
	// ON written inner-first: u.id = i.seller.
	r := queryAt(t, e, 0, `SELECT name FROM items i JOIN users u ON u.id = i.seller WHERE i.id = 10`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "a" {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestSelectStarWithJoin(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a', 5, 1)")
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (10, 1, 5.0, 1)")
	r := queryAt(t, e, 0, `SELECT * FROM items i JOIN users u ON i.seller = u.id`)
	if len(r.Cols) != 4+4 {
		t.Fatalf("star join cols = %v", r.Cols)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestAmbiguousAndUnknownColumns(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a', 5, 1)")
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (10, 1, 5.0, 1)")
	tx, _ := e.BeginTx(context.Background(), true, 0)
	defer tx.Abort()
	if _, err := tx.Query(`SELECT id FROM items i JOIN users u ON i.seller = u.id`); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguous-column error, got %v", err)
	}
	if _, err := tx.Query(`SELECT nonexistent FROM users`); err == nil {
		t.Fatal("want unknown-column error")
	}
	if _, err := tx.Query(`SELECT id FROM nonexistent_table`); err == nil {
		t.Fatal("want unknown-table error")
	}
}

func TestMissingParams(t *testing.T) {
	e := newTestEngine(t)
	tx, _ := e.BeginTx(context.Background(), true, 0)
	defer tx.Abort()
	if _, err := tx.Query("SELECT id FROM users WHERE id = ?"); err == nil ||
		!strings.Contains(err.Error(), "parameters") {
		t.Fatalf("want parameter-count error, got %v", err)
	}
}

func TestNullComparisons(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a', NULL, 1), (2, 'b', 5, 1)")
	// NULL never compares equal or ordered.
	r := queryAt(t, e, 0, "SELECT id FROM users WHERE rating = 5")
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(2) {
		t.Fatalf("rows = %v", r.Rows)
	}
	r = queryAt(t, e, 0, "SELECT id FROM users WHERE rating > 0")
	if len(r.Rows) != 1 {
		t.Fatalf("NULL leaked through >: %v", r.Rows)
	}
	r = queryAt(t, e, 0, "SELECT id FROM users WHERE rating IS NULL")
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(1) {
		t.Fatalf("IS NULL rows = %v", r.Rows)
	}
	r = queryAt(t, e, 0, "SELECT id FROM users WHERE rating IS NOT NULL")
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(2) {
		t.Fatalf("IS NOT NULL rows = %v", r.Rows)
	}
	// Aggregates skip NULLs.
	r = queryAt(t, e, 0, "SELECT COUNT(rating), AVG(rating) FROM users WHERE region = 1")
	if r.Rows[0][0] != int64(1) || r.Rows[0][1] != 5.0 {
		t.Fatalf("aggregate over NULLs = %v", r.Rows[0])
	}
}

func TestIndexRangeScan(t *testing.T) {
	e := newTestEngine(t)
	tx, _ := e.BeginTx(context.Background(), false, 0)
	for i := 1; i <= 50; i++ {
		if _, err := tx.Exec("INSERT INTO items (id, seller, price, category) VALUES (?, ?, ?, ?)",
			int64(i), int64(i%5), float64(i), int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// id is the primary index: a range predicate should use it and carry a
	// wildcard tag.
	r := queryAt(t, e, 0, "SELECT id FROM items WHERE id >= 10 AND id < 20 ORDER BY id")
	if len(r.Rows) != 10 || r.Rows[0][0] != int64(10) || r.Rows[9][0] != int64(19) {
		t.Fatalf("range rows = %v", r.Rows)
	}
	hasWildcard := false
	for _, tag := range r.Tags {
		if tag == tagID("items:?") {
			hasWildcard = true
		}
	}
	if !hasWildcard {
		t.Fatalf("range scan should carry items:? tag, got %v", r.Tags)
	}
}

func TestFloatWidening(t *testing.T) {
	e := newTestEngine(t)
	// Integer literal into a DOUBLE column widens on insert and update.
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (1, 7, 10, 2)")
	r := queryAt(t, e, 0, "SELECT price FROM items WHERE id = 1")
	if r.Rows[0][0] != 10.0 {
		t.Fatalf("price = %#v, want float64(10)", r.Rows[0][0])
	}
	mustExec(t, e, "UPDATE items SET price = 12 WHERE id = 1")
	r = queryAt(t, e, 0, "SELECT price FROM items WHERE id = 1")
	if r.Rows[0][0] != 12.0 {
		t.Fatalf("price after update = %#v", r.Rows[0][0])
	}
}

func TestTypeChecking(t *testing.T) {
	e := newTestEngine(t)
	tx, _ := e.BeginTx(context.Background(), false, 0)
	defer tx.Abort()
	if _, err := tx.Exec("INSERT INTO users (id, name, rating, region) VALUES ('nope', 'a', 1, 1)"); err == nil {
		t.Fatal("string into BIGINT should fail")
	}
	if _, err := tx.Exec("INSERT INTO users (id, name, rating, region) VALUES (1, NULL, 1, 1)"); err == nil {
		t.Fatal("NULL into NOT NULL should fail")
	}
	if _, err := tx.Exec("INSERT INTO users (id, name) VALUES (1, 'a', 'extra')"); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestUpdateSetFromColumn(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (1, 7, 10.0, 2)")
	// SET price = initial copy semantics: copy another column of the row.
	mustExec(t, e, "UPDATE items SET category = seller WHERE id = 1")
	r := queryAt(t, e, 0, "SELECT category FROM items WHERE id = 1")
	if r.Rows[0][0] != int64(7) {
		t.Fatalf("category = %v", r.Rows[0][0])
	}
}

func TestSameColumnComparison(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (1, 2, 1.0, 2), (2, 9, 1.0, 3)")
	// WHERE seller = category within one table.
	r := queryAt(t, e, 0, "SELECT id FROM items WHERE seller = category")
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(1) {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestDeleteThenInsertSameKey(t *testing.T) {
	e := newTestEngine(t)
	t1 := mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a', 1, 1)")
	if err := e.Pin(t1); err != nil {
		t.Fatal(err)
	}
	defer e.Unpin(t1)
	mustExec(t, e, "DELETE FROM users WHERE id = 1")
	t3 := mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a2', 2, 1)")

	// Unique key 1 exists again; old snapshot still sees the original.
	r := queryAt(t, e, t1, "SELECT name FROM users WHERE id = 1")
	if len(r.Rows) != 1 || r.Rows[0][0] != "a" {
		t.Fatalf("old snapshot rows = %v", r.Rows)
	}
	r = queryAt(t, e, t3, "SELECT name FROM users WHERE id = 1")
	if len(r.Rows) != 1 || r.Rows[0][0] != "a2" {
		t.Fatalf("new snapshot rows = %v", r.Rows)
	}
}

func TestTagLimitCollapsesQueryTags(t *testing.T) {
	e := New(Options{})
	e.wcLim = 3
	for _, d := range []string{
		`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`,
	} {
		if err := e.DDL(d); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ := e.BeginTx(context.Background(), false, 0)
	for i := 0; i < 10; i++ {
		tx.Exec("INSERT INTO t (id, v) VALUES (?, ?)", int64(i), int64(i))
	}
	tx.Commit()
	// IN with more keys than the limit collapses to a wildcard.
	r := queryAt(t, e, 0, "SELECT id FROM t WHERE id IN (0, 1, 2, 3, 4, 5)")
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if len(r.Tags) != 1 || !invalidation.IsWildcard(r.Tags[0]) {
		t.Fatalf("tags should collapse to wildcard, got %v", r.Tags)
	}
}

func TestEmptyTableQueries(t *testing.T) {
	e := newTestEngine(t)
	r := queryAt(t, e, 0, "SELECT id FROM users WHERE id = 5")
	if len(r.Rows) != 0 || !r.StillValid() {
		t.Fatalf("empty-table query: rows=%v validity=%v", r.Rows, r.Validity)
	}
	r = queryAt(t, e, 0, "SELECT COUNT(*) FROM users WHERE rating > 3")
	if r.Rows[0][0] != int64(0) {
		t.Fatalf("count on empty = %v", r.Rows)
	}
}

func TestValidityLowerBoundIsCreation(t *testing.T) {
	e := newTestEngine(t)
	t1 := mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a', 1, 1)")
	t2 := mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (2, 'b', 2, 1)")
	// Query touching only user 2: lower bound is t2 (its creation), not t1.
	r := queryAt(t, e, 0, "SELECT name FROM users WHERE id = 2")
	if r.Validity.Lo != t2 {
		t.Fatalf("validity = %v, want Lo=%d", r.Validity, t2)
	}
	// Query touching both: lower bound is max of creations = t2.
	r = queryAt(t, e, 0, "SELECT COUNT(*) FROM users WHERE region = 1")
	if r.Validity.Lo != t2 {
		t.Fatalf("validity = %v, want Lo=%d (t1=%d)", r.Validity, t2, t1)
	}
}

func TestConcurrentReadersDuringCommits(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a', 0, 1)")
	done := make(chan error, 9)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				tx, err := e.BeginTx(context.Background(), true, 0)
				if err != nil {
					done <- err
					return
				}
				if _, err := tx.Query("SELECT rating FROM users WHERE id = 1"); err != nil {
					tx.Abort()
					done <- err
					return
				}
				tx.Abort()
			}
			done <- nil
		}()
	}
	go func() {
		for i := 0; i < 100; i++ {
			tx, err := e.BeginTx(context.Background(), false, 0)
			if err != nil {
				done <- err
				return
			}
			tx.Exec("UPDATE users SET rating = ? WHERE id = 1", int64(i))
			if _, err := tx.Commit(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 9; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
