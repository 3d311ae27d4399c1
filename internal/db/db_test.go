package db

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/sql"
)

// newTestEngine builds an engine with a small users/items schema.
func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Options{})
	ddl := []string{
		`CREATE TABLE users (id BIGINT PRIMARY KEY, name TEXT NOT NULL, rating BIGINT, region BIGINT)`,
		`CREATE INDEX users_name ON users (name)`,
		`CREATE TABLE items (id BIGINT PRIMARY KEY, seller BIGINT, price DOUBLE, category BIGINT)`,
		`CREATE INDEX items_seller ON items (seller)`,
		`CREATE INDEX items_category ON items (category)`,
	}
	for _, d := range ddl {
		if err := e.DDL(d); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func mustExec(t testing.TB, e *Engine, src string, args ...sql.Value) interval.Timestamp {
	t.Helper()
	tx, err := e.BeginTx(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(src, args...); err != nil {
		t.Fatal(err)
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func queryAt(t *testing.T, e *Engine, snap interval.Timestamp, src string, args ...sql.Value) *Result {
	t.Helper()
	if err := e.Pin(snap); err != nil && snap != 0 {
		t.Fatalf("pin %d: %v", snap, err)
	}
	if snap != 0 {
		defer e.Unpin(snap)
	}
	tx, err := e.BeginTx(context.Background(), true, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	r, err := tx.Query(src, args...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBasicInsertSelect(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'alice', 10, 3), (2, 'bob', 5, 3)")

	r := queryAt(t, e, 0, "SELECT id, name FROM users WHERE id = ?", int64(1))
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(1) || r.Rows[0][1] != "alice" {
		t.Fatalf("rows = %v", r.Rows)
	}
	if !r.StillValid() {
		t.Fatalf("fresh query should be still-valid: %v", r.Validity)
	}
	if len(r.Tags) != 1 || r.Tags[0] != tagID("users:id=1") {
		t.Fatalf("tags = %v", r.Tags)
	}
}

func TestSnapshotReadsThePast(t *testing.T) {
	e := newTestEngine(t)
	t1 := mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'alice', 10, 3)")
	if err := e.Pin(t1); err != nil {
		t.Fatal(err)
	}
	defer e.Unpin(t1)
	t2 := mustExec(t, e, "UPDATE users SET rating = 99 WHERE id = 1")

	// At t1 the old rating is visible; at t2 the new one.
	r1 := queryAt(t, e, t1, "SELECT rating FROM users WHERE id = 1")
	if r1.Rows[0][0] != int64(10) {
		t.Fatalf("at t1: %v", r1.Rows)
	}
	if r1.StillValid() {
		t.Fatal("old version must not be still-valid")
	}
	if r1.Validity != (interval.Interval{Lo: t1, Hi: t2}) {
		t.Fatalf("validity = %v, want [%d,%d)", r1.Validity, t1, t2)
	}
	r2 := queryAt(t, e, t2, "SELECT rating FROM users WHERE id = 1")
	if r2.Rows[0][0] != int64(99) || !r2.StillValid() {
		t.Fatalf("at t2: %v valid %v", r2.Rows, r2.Validity)
	}
	if r2.Validity.Lo != t2 {
		t.Fatalf("validity lo = %v, want %d", r2.Validity.Lo, t2)
	}
}

func TestEmptyResultValidityAndPhantoms(t *testing.T) {
	e := newTestEngine(t)
	t1 := mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'alice', 10, 3)")
	if err := e.Pin(t1); err != nil {
		t.Fatal(err)
	}
	defer e.Unpin(t1)

	// A negative lookup is cacheable: still-valid with the key tag.
	r := queryAt(t, e, t1, "SELECT id FROM users WHERE name = 'bob'")
	if len(r.Rows) != 0 || !r.StillValid() {
		t.Fatalf("rows=%v validity=%v", r.Rows, r.Validity)
	}
	found := false
	for _, tag := range r.Tags {
		if tag == tagID("users:name=bob") {
			found = true
		}
	}
	if !found {
		t.Fatalf("negative lookup must carry its key tag, got %v", r.Tags)
	}

	// After bob appears, the same query at the old snapshot must report an
	// upper validity bound (the phantom's creation), via the invalidity mask.
	t2 := mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (2, 'bob', 1, 1)")
	r = queryAt(t, e, t1, "SELECT id FROM users WHERE name = 'bob'")
	if len(r.Rows) != 0 {
		t.Fatalf("rows at t1 = %v", r.Rows)
	}
	if r.StillValid() || r.Validity.Hi != t2 {
		t.Fatalf("phantom must bound validity at %d, got %v", t2, r.Validity)
	}
}

func TestDeletedTupleBoundsValidity(t *testing.T) {
	e := newTestEngine(t)
	t1 := mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (1, 7, 10.0, 2), (2, 7, 20.0, 2)")
	if err := e.Pin(t1); err != nil {
		t.Fatal(err)
	}
	defer e.Unpin(t1)
	t2 := mustExec(t, e, "DELETE FROM items WHERE id = 2")

	r := queryAt(t, e, t1, "SELECT id FROM items WHERE seller = 7")
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// Returned tuple 2 is deleted at t2, so validity ends there.
	if r.Validity != (interval.Interval{Lo: t1, Hi: t2}) {
		t.Fatalf("validity = %v, want [%d,%d)", r.Validity, t1, t2)
	}
}

func TestJoinAndTags(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'alice', 10, 3), (2, 'bob', 5, 4)")
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (10, 1, 5.0, 2), (11, 2, 6.0, 2), (12, 1, 7.0, 3)")

	r := queryAt(t, e, 0, `SELECT i.id, u.name FROM items i JOIN users u ON i.seller = u.id WHERE i.category = 2 ORDER BY i.id`)
	if len(r.Rows) != 2 || r.Rows[0][1] != "alice" || r.Rows[1][1] != "bob" {
		t.Fatalf("rows = %v", r.Rows)
	}
	want := map[string]bool{"items:category=2": true, "users:id=1": true, "users:id=2": true}
	got := map[invalidation.TagID]bool{}
	for _, tag := range r.Tags {
		got[tag] = true
	}
	for k := range want {
		if !got[tagID(k)] {
			t.Fatalf("missing tag %s in %v", k, r.Tags)
		}
	}
}

func TestSeqScanWildcardTag(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'alice', 10, 3)")
	r := queryAt(t, e, 0, "SELECT id FROM users WHERE rating > 5")
	// rating is unindexed: sequential scan, wildcard tag.
	if len(r.Tags) != 1 || r.Tags[0] != tagID("users:?") {
		t.Fatalf("tags = %v", r.Tags)
	}
}

func TestAggregates(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (1, 7, 10.0, 2), (2, 7, 30.0, 2), (3, 8, 99.0, 2)")
	r := queryAt(t, e, 0, "SELECT COUNT(*), MAX(price), MIN(price), SUM(price), AVG(price) FROM items WHERE seller = 7")
	row := r.Rows[0]
	if row[0] != int64(2) || row[1] != 30.0 || row[2] != 10.0 || row[3] != 40.0 || row[4] != 20.0 {
		t.Fatalf("aggregate row = %v", row)
	}
	// COUNT over empty set.
	r = queryAt(t, e, 0, "SELECT COUNT(*), MAX(price) FROM items WHERE seller = 99")
	if r.Rows[0][0] != int64(0) || r.Rows[0][1] != nil {
		t.Fatalf("empty aggregates = %v", r.Rows[0])
	}
}

func TestOrderLimitOffsetDistinct(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (1, 7, 30.0, 2), (2, 7, 10.0, 2), (3, 7, 20.0, 2), (4, 7, 20.0, 3)")
	r := queryAt(t, e, 0, "SELECT id FROM items WHERE seller = 7 ORDER BY price DESC, id ASC LIMIT 2 OFFSET 1")
	if len(r.Rows) != 2 || r.Rows[0][0] != int64(3) || r.Rows[1][0] != int64(4) {
		t.Fatalf("rows = %v", r.Rows)
	}
	r = queryAt(t, e, 0, "SELECT DISTINCT price FROM items WHERE seller = 7 ORDER BY price")
	if len(r.Rows) != 3 {
		t.Fatalf("distinct rows = %v", r.Rows)
	}
}

func TestSerializationConflict(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'alice', 10, 3)")

	tx1, _ := e.BeginTx(context.Background(), false, 0)
	tx2, _ := e.BeginTx(context.Background(), false, 0)
	if _, err := tx1.Exec("UPDATE users SET rating = 11 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec("UPDATE users SET rating = 12 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Commit(); err != nil {
		t.Fatalf("first committer must win: %v", err)
	}
	if _, err := tx2.Commit(); !errors.Is(err, ErrSerialization) {
		t.Fatalf("second committer must get ErrSerialization, got %v", err)
	}
	if e.Stats().Conflicts != 1 {
		t.Fatalf("conflicts = %d", e.Stats().Conflicts)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	e := newTestEngine(t)
	tx, _ := e.BeginTx(context.Background(), true, 0)
	defer tx.Abort()
	if _, err := tx.Exec("INSERT INTO users (id, name, rating, region) VALUES (1, 'x', 1, 1)"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}
}

func TestOwnWritesVisible(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'alice', 10, 3)")

	tx, _ := e.BeginTx(context.Background(), false, 0)
	if _, err := tx.Exec("INSERT INTO users (id, name, rating, region) VALUES (2, 'bob', 5, 3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE users SET rating = 77 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	r, err := tx.Query("SELECT id, rating FROM users WHERE region = 3 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][1] != int64(77) || r.Rows[1][0] != int64(2) {
		t.Fatalf("own writes not visible: %v", r.Rows)
	}
	// Update own insert, then delete it.
	if n, _ := tx.Exec("UPDATE users SET rating = 6 WHERE id = 2"); n != 1 {
		t.Fatal("update of own insert should affect 1 row")
	}
	if n, _ := tx.Exec("DELETE FROM users WHERE id = 2"); n != 1 {
		t.Fatal("delete of own insert should affect 1 row")
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	r = queryAt(t, e, ts, "SELECT COUNT(*) FROM users WHERE region = 3")
	if r.Rows[0][0] != int64(1) {
		t.Fatalf("committed state wrong: %v", r.Rows)
	}
	// Other transactions must not have seen uncommitted writes: rating 77
	// became visible only at ts.
	if r2 := queryAt(t, e, ts, "SELECT rating FROM users WHERE id = 1"); r2.Rows[0][0] != int64(77) {
		t.Fatalf("rating after commit: %v", r2.Rows)
	}
}

func TestUniqueViolation(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'alice', 10, 3)")
	tx, _ := e.BeginTx(context.Background(), false, 0)
	if _, err := tx.Exec("INSERT INTO users (id, name, rating, region) VALUES (1, 'dup', 1, 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrUnique) {
		t.Fatalf("want ErrUnique, got %v", err)
	}
	// An update moving a row onto an existing key also violates.
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (2, 'bob', 1, 1)")
	tx, _ = e.BeginTx(context.Background(), false, 0)
	if _, err := tx.Exec("UPDATE users SET id = 1 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrUnique) {
		t.Fatalf("want ErrUnique on update, got %v", err)
	}

	// A transaction's staged rows are checked against each other, not only
	// against committed rows.
	commit := func(stmts ...string) error {
		t.Helper()
		tx, _ := e.BeginTx(context.Background(), false, 0)
		for _, s := range stmts {
			if _, err := tx.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
		_, err := tx.Commit()
		return err
	}
	if err := commit(
		"INSERT INTO users (id, name, rating, region) VALUES (7, 'a', 1, 1)",
		"INSERT INTO users (id, name, rating, region) VALUES (7, 'b', 1, 1)",
	); !errors.Is(err, ErrUnique) {
		t.Fatalf("two inserts of one key in one transaction: want ErrUnique, got %v", err)
	}
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (5, 'eve', 1, 1)")
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (6, 'fay', 1, 1)")
	if err := commit(
		"UPDATE users SET id = 9 WHERE id = 5",
		"UPDATE users SET id = 9 WHERE id = 6",
	); !errors.Is(err, ErrUnique) {
		t.Fatalf("two updates onto one key in one transaction: want ErrUnique, got %v", err)
	}
	if err := commit(
		"UPDATE users SET id = 9 WHERE id = 5",
		"INSERT INTO users (id, name, rating, region) VALUES (9, 'gus', 1, 1)",
	); !errors.Is(err, ErrUnique) {
		t.Fatalf("an update and an insert onto one key: want ErrUnique, got %v", err)
	}
	for _, id := range []int64{7, 9} {
		if r := queryAt(t, e, 0, "SELECT name FROM users WHERE id = ?", id); len(r.Rows) != 0 {
			t.Fatalf("id %d: a refused commit left rows %v", id, r.Rows)
		}
	}
	// A key freed earlier in the same transaction is free: by a delete of
	// the committed holder, by re-keying it, or by deleting a staged insert.
	if err := commit(
		"DELETE FROM users WHERE id = 5",
		"INSERT INTO users (id, name, rating, region) VALUES (5, 'eve2', 1, 1)",
	); err != nil {
		t.Fatalf("delete then insert of the same key: %v", err)
	}
	if err := commit(
		"UPDATE users SET id = 8 WHERE id = 6",
		"INSERT INTO users (id, name, rating, region) VALUES (6, 'fay2', 1, 1)",
	); err != nil {
		t.Fatalf("re-key then insert of the old key: %v", err)
	}
	if err := commit(
		"INSERT INTO users (id, name, rating, region) VALUES (10, 'x', 1, 1)",
		"DELETE FROM users WHERE id = 10",
		"INSERT INTO users (id, name, rating, region) VALUES (10, 'y', 1, 1)",
	); err != nil {
		t.Fatalf("insert, delete, insert of one key: %v", err)
	}
	for id, want := range map[int64]string{5: "eve2", 6: "fay2", 8: "fay", 10: "y"} {
		r := queryAt(t, e, 0, "SELECT name FROM users WHERE id = ?", id)
		if len(r.Rows) != 1 || r.Rows[0][0] != want {
			t.Fatalf("id %d: rows %v, want one row %q", id, r.Rows, want)
		}
	}
}

func TestInvalidationMessages(t *testing.T) {
	bus := invalidation.NewBus(false)
	e := New(Options{Bus: bus})
	if err := e.DDL(`CREATE TABLE users (id BIGINT PRIMARY KEY, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	if err := e.DDL(`CREATE INDEX users_name ON users (name)`); err != nil {
		t.Fatal(err)
	}
	sub := bus.Subscribe()
	defer sub.Close()

	ts := mustExec(t, e, "INSERT INTO users (id, name) VALUES (1, 'alice')")
	m := <-sub.C
	if m.TS != ts {
		t.Fatalf("message ts = %d, want %d", m.TS, ts)
	}
	got := map[invalidation.TagID]bool{}
	for _, tag := range m.Tags {
		got[tag] = true
	}
	if !got[tagID("users:id=1")] || !got[tagID("users:name=alice")] {
		t.Fatalf("insert tags = %v", m.Tags)
	}

	mustExec(t, e, "UPDATE users SET name = 'bob' WHERE id = 1")
	m = <-sub.C
	got = map[invalidation.TagID]bool{}
	for _, tag := range m.Tags {
		got[tag] = true
	}
	// Update must tag both old and new index keys.
	if !got[tagID("users:name=alice")] || !got[tagID("users:name=bob")] || !got[tagID("users:id=1")] {
		t.Fatalf("update tags = %v", m.Tags)
	}
}

func TestWildcardAggregation(t *testing.T) {
	bus := invalidation.NewBus(false)
	e := New(Options{Bus: bus, WildcardTagLimit: 4})
	if err := e.DDL(`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	sub := bus.Subscribe()
	defer sub.Close()

	tx, _ := e.BeginTx(context.Background(), false, 0)
	for i := 0; i < 10; i++ {
		if _, err := tx.Exec("INSERT INTO t (id, v) VALUES (?, ?)", int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	m := <-sub.C
	if len(m.Tags) != 1 || m.Tags[0] != tagID("t:?") {
		t.Fatalf("bulk commit should aggregate to wildcard, got %v", m.Tags)
	}
}

func TestVacuumPrunesVersions(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'alice', 0, 1)")
	for i := 1; i <= 10; i++ {
		mustExec(t, e, "UPDATE users SET rating = ? WHERE id = 1", int64(i))
	}
	if got := e.Stats().TotalVersions; got != 11 {
		t.Fatalf("versions before vacuum = %d", got)
	}
	n := e.Vacuum()
	if n != 10 {
		t.Fatalf("vacuumed %d versions, want 10", n)
	}
	r := queryAt(t, e, 0, "SELECT rating FROM users WHERE id = 1")
	if r.Rows[0][0] != int64(10) {
		t.Fatalf("latest version must survive: %v", r.Rows)
	}
}

func TestVacuumRespectsPins(t *testing.T) {
	e := newTestEngine(t)
	t0 := mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'alice', 0, 1)")
	if err := e.Pin(t0); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "UPDATE users SET rating = 1 WHERE id = 1")
	mustExec(t, e, "UPDATE users SET rating = 2 WHERE id = 1")

	e.Vacuum()
	// The version visible at the pinned snapshot must survive.
	r := queryAt(t, e, t0, "SELECT rating FROM users WHERE id = 1")
	if r.Rows[0][0] != int64(0) {
		t.Fatalf("pinned snapshot sees %v, want 0", r.Rows[0][0])
	}
	// Unpin starts a pass of its own; passes are serialized, so after this
	// one returns the pinned version has gone in one of them.
	v0 := e.Stats().Vacuumed
	e.Unpin(t0)
	e.Vacuum()
	if e.Stats().Vacuumed == v0 || e.Stats().TotalVersions != 1 {
		t.Fatal("unpinning should free versions for vacuum")
	}
}

// TestIndexShrinksAfterVacuum: an index entry goes when vacuum reclaims the
// last version carrying its key, and the leaf goes with its last entry — and
// a row's slot, its page and its packed payload go the same way — so a table
// emptied where no pin can see it costs what an empty table costs. RowBytes rises
// by the directory and the payload on insert and falls to 0 on delete +
// vacuum.
func TestIndexShrinksAfterVacuum(t *testing.T) {
	e := newTestEngine(t)
	base := e.Stats()
	if base.IndexEntries != 0 || base.IndexBytes <= 0 || base.Rows != 0 || base.RowBytes != 0 {
		t.Fatalf("empty engine: %d index entries, %d index bytes, %d rows, %d row bytes",
			base.IndexEntries, base.IndexBytes, base.Rows, base.RowBytes)
	}
	const rows = 3000
	var last interval.Timestamp
	for i := 0; i < rows; i++ {
		last = mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (?, ?, 1.0, ?)",
			int64(i), int64(i%100), int64(i%7))
	}
	full := e.Stats()
	// rows primary keys, 100 sellers, 7 categories.
	if want := rows + 100 + 7; full.IndexEntries != want || full.IndexBytes <= base.IndexBytes {
		t.Fatalf("loaded: %d index entries (want %d), %d index bytes (empty: %d)",
			full.IndexEntries, want, full.IndexBytes, base.IndexBytes)
	}
	// RowBytes is the row directory plus the payload, and the payload is
	// exact: a row here is four fixed-width columns, 2 + 4×9 bytes packed,
	// behind a 16-byte string header.
	const payload = rows * (2 + 4*9 + 16)
	if dir := full.RowBytes - payload; full.Rows != rows || dir < 40*rows || dir > 64*rows {
		t.Fatalf("loaded: %d rows in %d B, %d of them row directory: want %d rows at 40 to 64 B", full.Rows, full.RowBytes, dir, rows)
	}
	if err := e.Pin(last); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "DELETE FROM items WHERE id >= 0")
	e.Vacuum()
	if got := e.Stats(); got.IndexEntries != full.IndexEntries || got.Rows != rows || got.RowBytes != full.RowBytes {
		t.Fatalf("a pinned snapshot still reads the rows: %d index entries (want %d), %d rows in %d B (want %d in %d)",
			got.IndexEntries, full.IndexEntries, got.Rows, got.RowBytes, rows, full.RowBytes)
	}
	v0 := e.Stats().Vacuumed
	e.Unpin(last) // no pin sees the deleted rows now
	if e.Vacuum(); e.Stats().Vacuumed-v0 != rows {
		t.Fatalf("vacuumed %d versions, want %d", e.Stats().Vacuumed-v0, rows)
	}
	if got := e.Stats(); got.IndexEntries != 0 || got.IndexBytes != base.IndexBytes || got.TotalVersions != 0 || got.Rows != 0 || got.RowBytes != 0 {
		t.Fatalf("after vacuum: %d index entries, %d index bytes (empty: %d), %d versions, %d rows in %d B",
			got.IndexEntries, got.IndexBytes, base.IndexBytes, got.TotalVersions, got.Rows, got.RowBytes)
	}
	// The emptied trees still work.
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (1, 2, 1.0, 3)")
	if r := queryAt(t, e, 0, "SELECT id FROM items WHERE seller = 2"); len(r.Rows) != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestBeginAtUnpinnedSnapshotFails(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a', 0, 1)")
	mustExec(t, e, "UPDATE users SET rating = 1 WHERE id = 1")
	if _, err := e.BeginTx(context.Background(), true, 2); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("want ErrNotPinned, got %v", err)
	}
}

func TestInClause(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (1, 7, 1.0, 2), (2, 8, 2.0, 2), (3, 9, 3.0, 2)")
	r := queryAt(t, e, 0, "SELECT id FROM items WHERE id IN (?, ?, 99) ORDER BY id", int64(1), int64(3))
	if len(r.Rows) != 2 || r.Rows[0][0] != int64(1) || r.Rows[1][0] != int64(3) {
		t.Fatalf("rows = %v", r.Rows)
	}
	// One key tag per probed value.
	got := map[invalidation.TagID]bool{}
	for _, tag := range r.Tags {
		got[tag] = true
	}
	for _, want := range []string{"items:id=1", "items:id=3", "items:id=99"} {
		if !got[tagID(want)] {
			t.Fatalf("missing tag %s in %v", want, r.Tags)
		}
	}
}

func TestValidityDisabled(t *testing.T) {
	e := New(Options{DisableValidityTracking: true})
	if err := e.DDL(`CREATE TABLE t (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO t (id) VALUES (1)")
	r := queryAt(t, e, 0, "SELECT id FROM t WHERE id = 1")
	if !r.Validity.Empty() || r.Tags != nil {
		t.Fatalf("tracking disabled but got %v / %v", r.Validity, r.Tags)
	}
}

// TestValidityOracle is the central property test for §5.2: for a random
// history, any query's reported validity interval must be exactly a range
// of timestamps over which re-running the query returns the same rows.
func TestValidityOracle(t *testing.T) {
	e := newTestEngine(t)

	// Build a history of commits touching a small keyspace, pinning every
	// snapshot so all versions stay vacuum-safe and queryable.
	var snaps []interval.Timestamp
	pin := func(ts interval.Timestamp) {
		if err := e.Pin(ts); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, ts)
	}
	pin(e.LastCommit())
	rnd := func(i, n int) int64 { return int64((i*2654435761 + 12345) % n) }
	for i := 0; i < 120; i++ {
		var ts interval.Timestamp
		switch i % 4 {
		case 0:
			ts = mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (?, ?, ?, ?)",
				int64(i+1000), rnd(i, 5), float64(i), rnd(i, 3))
		case 1:
			ts = mustExec(t, e, "UPDATE items SET price = ?, seller = ? WHERE category = ?",
				float64(i)*2, rnd(i+1, 5), rnd(i, 3))
		case 2:
			ts = mustExec(t, e, "DELETE FROM items WHERE id = ?", int64((i-2)+1000))
		case 3:
			ts = mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (?, ?, ?, ?)",
				int64(i+1000), fmt.Sprintf("u%d", i%7), rnd(i, 4), rnd(i, 4))
		}
		pin(ts)
	}
	defer func() {
		for _, s := range snaps {
			e.Unpin(s)
		}
	}()

	queries := []struct {
		src  string
		args []sql.Value
	}{
		{"SELECT id, price FROM items WHERE seller = ? ORDER BY id", []sql.Value{int64(2)}},
		{"SELECT COUNT(*) FROM items WHERE category = ?", []sql.Value{int64(1)}},
		{"SELECT id FROM items WHERE id = ?", []sql.Value{int64(1004)}},
		{"SELECT name FROM users WHERE name = ?", []sql.Value{"u3"}},
		{"SELECT MAX(price) FROM items WHERE seller = ?", []sql.Value{int64(0)}},
	}

	fingerprint := func(r *Result) string { return fmt.Sprintf("%v", r.Rows) }

	for qi, q := range queries {
		for _, snap := range snaps {
			r := queryAt(t, e, snap, q.src, q.args...)
			if r.Validity.Empty() {
				t.Fatalf("query %d at %d: empty validity", qi, snap)
			}
			if !r.Validity.Contains(snap) {
				t.Fatalf("query %d at %d: validity %v does not contain snapshot", qi, snap, r.Validity)
			}
			want := fingerprint(r)
			// Re-running at any pinned snapshot inside the interval must
			// give identical rows.
			for _, other := range snaps {
				if !r.Validity.Contains(other) {
					continue
				}
				r2 := queryAt(t, e, other, q.src, q.args...)
				if fingerprint(r2) != want {
					t.Fatalf("query %d: validity %v claims ts %d equivalent to %d, but rows differ:\n  %v\n  %v",
						qi, r.Validity, snap, other, want, fingerprint(r2))
				}
			}
			// Maximality at the upper bound: if bounded and the bound is a
			// pinned snapshot, the result there must differ (the interval
			// may be conservative, so only check exact-boundary cases where
			// the invalidating commit is itself pinned).
		}
	}
}

// TestTagSoundness verifies §5.3: if a still-valid query result later
// changes, the invalidating commit's message must carry at least one tag
// matching the query's dependency tags.
func TestTagSoundness(t *testing.T) {
	bus := invalidation.NewBus(true)
	e := New(Options{Bus: bus})
	for _, d := range []string{
		`CREATE TABLE items (id BIGINT PRIMARY KEY, seller BIGINT, price DOUBLE, category BIGINT)`,
		`CREATE INDEX items_seller ON items (seller)`,
	} {
		if err := e.DDL(d); err != nil {
			t.Fatal(err)
		}
	}
	sub := bus.Subscribe()
	defer sub.Close()

	mustExec(t, e, "INSERT INTO items (id, seller, price, category) VALUES (1, 7, 1.0, 2), (2, 8, 2.0, 2)")
	<-sub.C // drain the setup commit's message

	queries := []struct {
		src  string
		args []sql.Value
	}{
		{"SELECT id FROM items WHERE seller = ?", []sql.Value{int64(7)}},
		{"SELECT id FROM items WHERE seller = ?", []sql.Value{int64(9)}}, // negative
		{"SELECT COUNT(*) FROM items WHERE price > 0.5", nil},            // seqscan
		{"SELECT price FROM items WHERE id = 2", nil},
	}
	type snap struct {
		tags []invalidation.TagID
		rows string
	}
	takeSnap := func() []snap {
		var out []snap
		for _, q := range queries {
			r := queryAt(t, e, 0, q.src, q.args...)
			if !r.StillValid() {
				t.Fatalf("expected still-valid result for %q", q.src)
			}
			out = append(out, snap{r.Tags, fmt.Sprintf("%v", r.Rows)})
		}
		return out
	}
	matches := func(tags []invalidation.TagID, m invalidation.Message) bool {
		for _, mt := range m.Tags {
			for _, qt := range tags {
				if invalidation.Affects(mt, qt) {
					return true
				}
			}
		}
		return false
	}

	writes := []struct {
		src  string
		args []sql.Value
	}{
		{"UPDATE items SET price = 9.0 WHERE id = 2", nil},
		{"INSERT INTO items (id, seller, price, category) VALUES (3, 9, 3.0, 1)", nil},
		{"UPDATE items SET seller = 9 WHERE id = 1", nil},
		{"DELETE FROM items WHERE id = 3", nil},
		{"INSERT INTO items (id, seller, price, category) VALUES (4, 7, 0.1, 1)", nil},
	}
	for wi, w := range writes {
		before := takeSnap()
		mustExec(t, e, w.src, w.args...)
		msg := <-sub.C
		after := takeSnap()
		for qi := range queries {
			if before[qi].rows != after[qi].rows && !matches(before[qi].tags, msg) {
				t.Fatalf("write %d (%s) changed query %d (%s) from %s to %s but message tags %v match none of query tags %v",
					wi, w.src, qi, queries[qi].src, before[qi].rows, after[qi].rows, msg.Tags, before[qi].tags)
			}
		}
	}
}

func TestStatsCounters(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO users (id, name, rating, region) VALUES (1, 'a', 0, 1)")
	queryAt(t, e, 0, "SELECT id FROM users WHERE id = 1")
	s := e.Stats()
	if s.Commits != 1 || s.Queries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestStatsStreamDropped: what the invalidation bus lapped a subscriber past
// shows in the engine's counters, exactly, and stays there after the
// subscriber has gone.
func TestStatsStreamDropped(t *testing.T) {
	const ring = 16 << 10 // the messages the bus holds for a subscriber
	start := func(t *testing.T) (*Engine, *invalidation.Bus) {
		bus := invalidation.NewBus(false)
		e := New(Options{Bus: bus})
		if err := e.DDL(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
			t.Fatal(err)
		}
		for k := range int64(4) {
			mustExec(t, e, "INSERT INTO kv (k, v) VALUES (?, 0)", k)
		}
		return e, bus
	}
	// drain reads sub up to the engine's last commit and returns how many
	// messages that took.
	drain := func(t *testing.T, e *Engine, sub *invalidation.Subscription) (n uint64) {
		t.Helper()
		for m := range sub.C {
			n++
			if m.TS == e.LastCommit() {
				return n
			}
		}
		t.Fatal("subscription closed")
		return 0
	}

	// A subscriber that reads misses nothing, however many commits go by.
	t.Run("ValidFlow", func(t *testing.T) {
		e, bus := start(t)
		sub := bus.Subscribe()
		defer sub.Close()
		for i := 1; i <= 2*ring; i++ {
			mustExec(t, e, "UPDATE kv SET v = ? WHERE k = 1", int64(i))
			if i%1024 == 0 && drain(t, e, sub) != 1024 {
				t.Fatal("a reading subscriber missed a message")
			}
		}
		if got := e.Stats().StreamDropped; got != 0 {
			t.Fatalf("StreamDropped = %d with a subscriber that read everything", got)
		}
	})

	// A subscriber that never reads is lapped once the writer is a ring ahead
	// of it, and resumes at the newest message: it is handed that message,
	// what came after it, and the one its pump held if it held one — five in
	// all, either way — and the ring's worth between is counted, exactly.
	// Closing it changes nothing.
	t.Run("RejectionFlow", func(t *testing.T) {
		e, bus := start(t)
		sub := bus.Subscribe()
		const commits = ring + 5
		for i := 1; i <= commits; i++ {
			mustExec(t, e, "UPDATE kv SET v = ? WHERE k = 1", int64(i))
		}
		if got := drain(t, e, sub); got != 5 {
			t.Fatalf("a lapped subscriber was handed %d of %d messages, want 5", got, commits)
		}
		if got := e.Stats().StreamDropped; got != ring {
			t.Fatalf("StreamDropped = %d after %d commits, 5 of them delivered; want %d", got, commits, ring)
		}
		sub.Close()
		mustExec(t, e, "UPDATE kv SET v = 0 WHERE k = 1")
		if got := e.Stats().StreamDropped; got != ring {
			t.Fatalf("StreamDropped = %d after the subscriber closed, want %d", got, ring)
		}
	})

	// Committers race a reading subscriber and one that reads only at the
	// end: every message published reaches each of them or is counted as
	// dropped, exactly once.
	t.Run("ConcurrentFlow", func(t *testing.T) {
		e, bus := start(t)
		from := e.LastCommit()
		live, late := bus.Subscribe(), bus.Subscribe()
		defer live.Close()
		defer late.Close()
		read := make(chan uint64, 1)
		go func() {
			var n uint64
			for m := range live.C {
				n++
				if m.TS == from+4*ring/2 {
					break
				}
			}
			read <- n
		}()
		var wg sync.WaitGroup
		for k := range int64(4) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= ring/2; i++ {
					tx, err := e.BeginTx(context.Background(), false, 0)
					if err == nil {
						_, err = tx.Exec("UPDATE kv SET v = ? WHERE k = ?", int64(i), k)
					}
					if err == nil {
						_, err = tx.Commit()
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		delivered := <-read + drain(t, e, late)
		if got := e.Stats().StreamDropped; delivered+got != 2*4*ring/2 {
			t.Fatalf("%d messages delivered and %d dropped of 2 × %d published", delivered, got, 4*ring/2)
		}
	})
}

// TestEagerVisibilityAblation verifies the §5.2 design choice: evaluating
// the predicate before the visibility check yields validity intervals at
// least as wide as the stock visibility-first ordering, and strictly wider
// when an unrelated row version dies near the snapshot.
func TestEagerVisibilityAblation(t *testing.T) {
	build := func(eager bool) (*Engine, interval.Timestamp) {
		e := New(Options{EagerVisibilityCheck: eager})
		for _, d := range []string{
			`CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, v BIGINT)`,
			`CREATE INDEX t_grp ON t (grp)`,
		} {
			if err := e.DDL(d); err != nil {
				t.Fatal(err)
			}
		}
		// Group 1 is what we query; group 2 churns.
		mustExec(t, e, "INSERT INTO t (id, grp, v) VALUES (1, 1, 10), (2, 2, 20)")
		snap := mustExec(t, e, "UPDATE t SET v = 21 WHERE id = 2") // churn in group 2
		if err := e.Pin(snap); err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, "UPDATE t SET v = 22 WHERE id = 2") // more churn after snap
		return e, snap
	}

	// Query group 1 with a sequential scan (unindexed column v), so the
	// scan walks group 2's dead versions too.
	q := "SELECT id FROM t WHERE v = 10"

	ePred, snap := build(false)
	rPred := queryAt(t, ePred, snap, q)
	eEager, snap2 := build(true)
	rEager := queryAt(t, eEager, snap2, q)

	if rPred.Validity.Empty() || rEager.Validity.Empty() {
		t.Fatalf("validities: pred=%v eager=%v", rPred.Validity, rEager.Validity)
	}
	// Predicate-first must be a superset interval.
	if rEager.Validity.Lo < rPred.Validity.Lo || rEager.Validity.Hi > rPred.Validity.Hi {
		t.Fatalf("eager validity %v escapes predicate-first validity %v", rEager.Validity, rPred.Validity)
	}
	// And strictly narrower here: group 2's churn bounds it.
	if rEager.Validity == rPred.Validity {
		t.Fatalf("expected eager ordering to narrow the interval (pred=%v eager=%v)",
			rPred.Validity, rEager.Validity)
	}
	if !rPred.StillValid() {
		t.Fatalf("predicate-first result should be still-valid, got %v", rPred.Validity)
	}
}

// tagID is the ID of a tag written the way Tag.String prints it: an ID is a
// hash and has no way back to its name, so assertions hash the name they
// expect.
func tagID(s string) invalidation.TagID {
	table, key, _ := strings.Cut(s, ":")
	return invalidation.Intern(invalidation.Tag{Table: table, Key: key, Wildcard: key == "?"})
}
