package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/sql"
)

// TestStatusShowsWhatVacuumHolds reads the status file the way an operator
// does: a pinned snapshot holds the versions updates killed, and they show
// as db.deadVersions until it is unpinned and the vacuum ticker runs a pass.
func TestStatusShowsWhatVacuumHolds(t *testing.T) {
	const rows = 10
	engine := db.New(db.Options{})
	if err := engine.DDL(`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	exec := func(src string, args ...sql.Value) {
		t.Helper()
		tx, err := engine.BeginTx(context.Background(), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(src, args...); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < rows; i++ {
		exec("INSERT INTO t (id, v) VALUES (?, 0)", i)
	}
	path := filepath.Join(t.TempDir(), "status.json")
	srv := &dbnet.Server{Engine: engine}
	read := func() map[string]float64 {
		t.Helper()
		if err := writeStatus(path, status{ServerStats: srv.Stats()}); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var fields struct{ DB map[string]any }
		if err := json.Unmarshal(blob, &fields); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, name := range []string{"versions", "deadVersions", "pinnedSnapshots", "vacuumed"} {
			v, ok := fields.DB[name].(float64)
			if !ok {
				t.Fatalf("status file has no %q: %s", name, blob)
			}
			out[name] = v
		}
		return out
	}

	snap, _ := engine.PinLatest()
	exec("UPDATE t SET v = 1 WHERE id >= 0")
	engine.Vacuum() // what the ticker runs
	held := read()
	if held["deadVersions"] != rows || held["versions"] != 2*rows || held["pinnedSnapshots"] != 1 {
		t.Fatalf("snapshot %d pinned across an update of %d rows: %v", snap, rows, held)
	}

	engine.Unpin(snap)
	engine.Vacuum()
	freed := read()
	if freed["deadVersions"] != 0 || freed["versions"] != rows || freed["pinnedSnapshots"] != 0 || freed["vacuumed"] != rows {
		t.Fatalf("after unpin and a pass: %v", freed)
	}
}
