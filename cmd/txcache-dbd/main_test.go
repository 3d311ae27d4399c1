package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/debugz"
	"txcache/internal/pincushion"
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

// TestStatusShowsPincushion reads the hosted pincushion off both of the
// daemon's surfaces, the status file and the debug listener's /statsz: a
// snapshot registered over the pincushion's port shows as a tracked pin, and
// as the engine's one pinned snapshot once its registrant has let go; the
// pincushion's stop removes it.
func TestStatusShowsPincushion(t *testing.T) {
	engine := db.New(db.Options{})
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pc, stopPC := pincushion.Start(pl, engine, 10*time.Second)
	srv := &dbnet.Server{Engine: engine}
	snap := func() status {
		return status{PincushionAddr: pl.Addr().String(), ServerStats: srv.Stats(), Pincushion: pc.Stats()}
	}

	cl, err := pincushion.Dial(pl.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ts, wall := engine.PinLatest()
	cl.Register(ts, wall)
	engine.Unpin(ts)

	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := probe.Addr().String()
	probe.Close()
	if err := debugz.Start(debugAddr, func() any { return snap() }); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + debugAddr + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "status.json")
	if err := writeStatus(path, snap()); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for surface, blob := range map[string][]byte{"status file": file, "/statsz": page} {
		var got struct {
			PincushionAddr string `json:"pincushionAddr"`
			DB             struct {
				PinnedSnapshots int `json:"pinnedSnapshots"`
			} `json:"db"`
			Pincushion pincushion.Stats `json:"pincushion"`
		}
		if err := json.Unmarshal(blob, &got); err != nil {
			t.Fatalf("%s: %v: %s", surface, err, blob)
		}
		if got.PincushionAddr != pl.Addr().String() || got.Pincushion.Pins != 1 ||
			got.Pincushion.InClass(pincushion.PinIdle) != 1 || got.DB.PinnedSnapshots != 1 {
			t.Fatalf("%s after one Register: %s; want pincushionAddr %s, one idle pin tracked and one snapshot pinned", surface, blob, pl.Addr())
		}
	}

	stopPC()
	if n := engine.PinnedCount(); n != 0 {
		t.Fatalf("%d snapshots pinned after the pincushion stopped, want 0", n)
	}
}
