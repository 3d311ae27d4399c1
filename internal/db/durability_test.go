package db

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"txcache/internal/sql"
	"txcache/internal/wal"
	"txcache/internal/wire"
)

// Engine-level durability coverage: commit → kill (drop the engine without
// Close) → reopen → verify. The wal package's own tests cover framing; here
// the property under test is end-to-end — payload encode, group records,
// checkpoint snapshots, and replay reproduce the exact database state.

func durOpts(dir string) *DurabilityOptions {
	// SyncNone keeps the tests fast; same-process reopen reads the page
	// cache, so "crash" (dropping the engine un-Closed) still exercises
	// the replay path exactly. Crash tests with real kill -9 live in the
	// repo root's crash harness.
	return &DurabilityOptions{Dir: dir, Sync: wal.SyncNone, CheckpointBytes: -1}
}

func openDurable(t *testing.T, dir string) (*Engine, RecoveryInfo) {
	t.Helper()
	e, info, err := Open(Options{VacuumEvery: -1, Durability: durOpts(dir)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return e, info
}

func mustDDL(t testing.TB, e *Engine, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if err := e.DDL(s); err != nil {
			t.Fatalf("DDL %q: %v", s, err)
		}
	}
}

// mustExec and mustDDL: mustExec is shared with db_test.go.

// queryInts runs a single-int-column SELECT and returns the values.
func queryInts(t *testing.T, e *Engine, src string, args ...sql.Value) []int64 {
	t.Helper()
	tx, err := e.BeginTx(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	res, err := tx.Query(src, args...)
	if err != nil {
		t.Fatalf("Query %q: %v", src, err)
	}
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].(int64))
	}
	return out
}

const durSchema = `CREATE TABLE items (id BIGINT PRIMARY KEY, name TEXT NOT NULL, qty BIGINT)`

func TestDurableCommitSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	e, info := openDurable(t, dir)
	if info.RecoveredTS != 1 || info.CleanBoot {
		t.Fatalf("fresh dir recovery = %+v", info)
	}
	mustDDL(t, e, durSchema)
	for i := int64(1); i <= 10; i++ {
		mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", i, fmt.Sprintf("item-%d", i), i*10)
	}
	mustExec(t, e, "UPDATE items SET qty = ? WHERE id = ?", int64(777), int64(3))
	mustExec(t, e, "DELETE FROM items WHERE id = ?", int64(7))
	last := e.LastCommit()
	// "Crash": drop the engine without Close.

	e2, info2 := openDurable(t, dir)
	if info2.RecoveredTS != last {
		t.Fatalf("RecoveredTS = %d, want %d", info2.RecoveredTS, last)
	}
	if info2.CleanBoot {
		t.Fatal("un-Closed engine reported a clean boot")
	}
	if info2.DDLReplayed != 1 || info2.CommitsReplayed != 12 {
		t.Fatalf("replayed %d DDL / %d commits, want 1 / 12", info2.DDLReplayed, info2.CommitsReplayed)
	}
	if got := queryInts(t, e2, "SELECT qty FROM items WHERE id = ?", int64(3)); len(got) != 1 || got[0] != 777 {
		t.Fatalf("updated row after recovery: %v", got)
	}
	if got := queryInts(t, e2, "SELECT qty FROM items WHERE id = ?", int64(7)); len(got) != 0 {
		t.Fatalf("deleted row resurrected: %v", got)
	}
	if got := queryInts(t, e2, "SELECT id FROM items"); len(got) != 9 {
		t.Fatalf("recovered %d rows, want 9", len(got))
	}
	if e2.LastCommit() != last {
		t.Fatalf("LastCommit after recovery = %d, want %d", e2.LastCommit(), last)
	}

	// Post-recovery commits must keep working: the id allocator is past
	// every recovered id, and unique constraints still hold.
	mustExec(t, e2, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(100), "post", int64(1))
	tx, _ := e2.BeginTx(context.Background(), false, 0)
	if _, err := tx.Exec("INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(3), "dup", int64(0)); err == nil {
		if _, err := tx.Commit(); err == nil {
			t.Fatal("duplicate primary key accepted after recovery")
		}
	}
	tx.Abort()
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	mustDDL(t, e, durSchema)
	for i := int64(1); i <= 50; i++ {
		mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", i, "x", i)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ckptTS := e.LastCommit()
	for i := int64(51); i <= 60; i++ {
		mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", i, "y", i)
	}
	last := e.LastCommit()

	e2, info := openDurable(t, dir)
	if info.CheckpointTS != ckptTS {
		t.Fatalf("CheckpointTS = %d, want %d", info.CheckpointTS, ckptTS)
	}
	if info.RecoveredTS != last {
		t.Fatalf("RecoveredTS = %d, want %d", info.RecoveredTS, last)
	}
	// Only the ten post-checkpoint commits replay; the 51 earlier ones
	// (DDL + 50 inserts) come from the snapshot and their segments are gone.
	if info.CommitsReplayed != 10 || info.DDLReplayed != 0 {
		t.Fatalf("replayed %d commits / %d DDL, want 10 / 0", info.CommitsReplayed, info.DDLReplayed)
	}
	if got := queryInts(t, e2, "SELECT id FROM items"); len(got) != 60 {
		t.Fatalf("recovered %d rows, want 60", len(got))
	}
	// The index must answer point lookups for checkpointed rows too.
	if got := queryInts(t, e2, "SELECT qty FROM items WHERE id = ?", int64(42)); len(got) != 1 || got[0] != 42 {
		t.Fatalf("indexed lookup after checkpoint restore: %v", got)
	}
}

// TestCheckpointWalksRowsInIDOrder: a table section lists its rows by
// ascending id, across as many lock holds as the table takes and past the
// holes vacuum left, so the same state always writes the same file — and
// one version per row, the one the snapshot timestamp sees.
func TestCheckpointWalksRowsInIDOrder(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	mustDDL(t, e, durSchema)
	const rows = 6000 // three batches' worth
	for lo := int64(1); lo <= rows; lo += 500 {
		tx, err := e.BeginTx(context.Background(), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < lo+500; i++ {
			if _, err := tx.Exec("INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", i, "a row of some length", i); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, "DELETE FROM items WHERE id > 1000 AND id <= 3000")
	e.Vacuum()
	mustExec(t, e, "UPDATE items SET qty = 0 WHERE id > 5000")

	snapshot := func() []byte {
		t.Helper()
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		payload, err := wal.ReadFileChecked(filepath.Join(dir, ckptName(e.LastCommit())))
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	first := snapshot()
	if second := snapshot(); !bytes.Equal(first, second) {
		t.Fatal("two checkpoints of one state differ")
	}
	_, secs, err := splitSnapshot(first)
	if err != nil || len(secs) != 1 {
		t.Fatalf("splitSnapshot: %d sections, %v", len(secs), err)
	}
	if len(secs[0]) < 2*ckptBatchBytes {
		t.Fatalf("the section is %d B: the walk never resumed", len(secs[0]))
	}
	d := wire.NewDecoder(secs[0])
	d.Str()
	for c := d.U32(); c > 0; c-- {
		d.Str()
		d.U16() // type, flags
	}
	if nIdx := d.U32(); nIdx != 0 {
		t.Fatalf("%d secondary indexes", nIdx)
	}
	if next := d.U64(); next != rows+1 {
		t.Fatalf("allocator = %d, want %d", next, rows+1)
	}
	var prev uint64
	n := 0
	for d.Err() == nil && d.Len() > 0 {
		id := d.U64()
		d.U64()
		row := sql.DecodeRow(d)
		if d.Err() != nil {
			break
		}
		if id <= prev || row.At(0).Value() != int64(id) || (id > 5000) != (row.At(2).Value() == int64(0)) {
			t.Fatalf("row %d after row %d: %q", id, prev, row)
		}
		prev = id
		n++
	}
	if d.Err() != nil || n != rows-2000 {
		t.Fatalf("section holds %d rows (%v), want %d", n, d.Err(), rows-2000)
	}
	e2, _ := openDurable(t, dir)
	if got := queryInts(t, e2, "SELECT id FROM items"); len(got) != rows-2000 {
		t.Fatalf("recovered %d rows, want %d", len(got), rows-2000)
	}
}

func TestCleanShutdownMarker(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	mustDDL(t, e, durSchema)
	mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(1), "a", int64(1))
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	e2, info := openDurable(t, dir)
	if !info.CleanBoot {
		t.Fatalf("Close + reopen: CleanBoot false (%+v)", info)
	}
	if info.CommitsReplayed != 0 {
		t.Fatalf("clean boot replayed %d commits", info.CommitsReplayed)
	}
	if got := queryInts(t, e2, "SELECT qty FROM items WHERE id = ?", int64(1)); len(got) != 1 {
		t.Fatalf("row lost across clean shutdown: %v", got)
	}
	// The marker is consumed: a crash after this boot must not masquerade
	// as clean.
	mustExec(t, e2, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(2), "b", int64(2))
	_, info3 := openDurable(t, dir)
	if info3.CleanBoot {
		t.Fatal("crash after clean boot still reported CleanBoot")
	}
}

// TestEngineTornTail is the engine-level torn-tail test: truncate the last
// segment at every byte offset inside its final record and verify recovery
// lands on a consistent prefix — all commits at or below RecoveredTS
// present in full, nothing above it visible.
func TestEngineTornTail(t *testing.T) {
	base := t.TempDir()
	e, _ := openDurable(t, base)
	mustDDL(t, e, durSchema)
	for i := int64(1); i <= 5; i++ {
		mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", i, fmt.Sprintf("n%d", i), i)
	}

	segs, err := filepath.Glob(filepath.Join(base, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Find the final record's start: walk frames from the top.
	frames := walFrameOffsets(t, full)
	if len(frames) < 3 {
		t.Fatalf("expected several frames, got %d", len(frames))
	}
	finalStart := frames[len(frames)-1]

	for cut := finalStart; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		e2, info := openDurable(t, dir)
		wantCommits := len(frames) - 1 - 1 // frames minus DDL minus the torn final insert
		if cut == finalStart {
			if info.TornTail {
				t.Fatalf("cut=%d: boundary truncation misread as torn", cut)
			}
		} else if !info.TornTail {
			t.Fatalf("cut=%d: torn tail not detected", cut)
		}
		if info.CommitsReplayed != wantCommits {
			t.Fatalf("cut=%d: replayed %d commits, want %d", cut, info.CommitsReplayed, wantCommits)
		}
		got := queryInts(t, e2, "SELECT id FROM items")
		if len(got) != wantCommits {
			t.Fatalf("cut=%d: %d rows visible, want %d", cut, len(got), wantCommits)
		}
		// The engine must accept new commits on the recovered prefix.
		ts := mustExec(t, e2, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(99), "post", int64(9))
		if ts != info.RecoveredTS+1 {
			t.Fatalf("cut=%d: post-recovery commit stamped %d, want %d", cut, ts, info.RecoveredTS+1)
		}
	}
}

// walFrameOffsets parses the CRC-framed segment image and returns each
// record's byte offset (mirrors the wal framing; test-only).
func walFrameOffsets(t *testing.T, b []byte) []int {
	t.Helper()
	var offs []int
	off := 0
	for off+8 <= len(b) {
		n := int(uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24)
		if off+8+n > len(b) {
			break
		}
		offs = append(offs, off)
		off += 8 + n
	}
	if off != len(b) {
		t.Fatalf("segment has trailing garbage at %d/%d", off, len(b))
	}
	return offs
}

// TestMidLogGapRefusesToOpen: corruption strictly inside the log (not the
// tail) must fail recovery rather than silently skip committed data.
func TestMidLogGapRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	mustDDL(t, e, durSchema)
	mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(1), "a", int64(1))
	// A second segment makes the first segment's tail a mid-log position.
	if err := e.dur.w.Rotate(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(2), "b", int64(2))

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}
	b, _ := os.ReadFile(segs[0])
	b[len(b)-1] ^= 0xFF
	os.WriteFile(segs[0], b, 0o644)

	_, _, err := Open(Options{VacuumEvery: -1, Durability: durOpts(dir)})
	if err == nil {
		t.Fatal("mid-log gap recovered silently")
	}
	if !strings.Contains(err.Error(), "replay") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// BenchmarkCommitDurable measures the durability tax: single-row insert
// commits with and without the fdatasync, sequentially (worst case: every
// commit pays a full sync) and in parallel (group commit amortizes the
// sync across the publish group). Compare against the "none" rows for the
// WAL-encoding-only overhead; see EXPERIMENTS.md.
func BenchmarkCommitDurable(b *testing.B) {
	for _, row := range []struct {
		name string
		mode wal.SyncMode
	}{{"none", wal.SyncNone}, {"fdatasync", wal.SyncFdatasync}} {
		mode := row.mode
		setup := func(b *testing.B) *Engine {
			e, _, err := Open(Options{VacuumEvery: -1, Durability: &DurabilityOptions{
				Dir: b.TempDir(), Sync: mode, CheckpointBytes: -1,
			}})
			if err != nil {
				b.Fatal(err)
			}
			if err := e.DDL(durSchema); err != nil {
				b.Fatal(err)
			}
			return e
		}
		b.Run(row.name, func(b *testing.B) {
			e := setup(b)
			var id int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id++
				tx, _ := e.BeginTx(context.Background(), false, 0)
				if _, err := tx.Exec("INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", id, "bench", id); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ds := e.DurabilityStats()
			if ds.Groups > 0 {
				b.ReportMetric(float64(ds.GroupedCommits)/float64(ds.Groups), "commits/group")
			}
		})
		b.Run(row.name+"-par", func(b *testing.B) {
			e := setup(b)
			var id atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := id.Add(1)
					tx, _ := e.BeginTx(context.Background(), false, 0)
					if _, err := tx.Exec("INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", n, "bench", n); err != nil {
						b.Fatal(err)
					}
					if _, err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			ds := e.DurabilityStats()
			if ds.Groups > 0 {
				b.ReportMetric(float64(ds.GroupedCommits)/float64(ds.Groups), "commits/group")
			}
		})
	}
}

// TestWriteAfterCloseFails: Close quiesces the write path; later writes get
// ErrClosed instead of racing the WAL writer teardown, and reads keep
// working.
func TestWriteAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	mustDDL(t, e, durSchema)
	mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(1), "a", int64(1))
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tx, err := e.BeginTx(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(2), "b", int64(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after Close = %v, want ErrClosed", err)
	}
	if err := e.DDL("CREATE TABLE late (id BIGINT PRIMARY KEY)"); !errors.Is(err, ErrClosed) {
		t.Fatalf("DDL after Close = %v, want ErrClosed", err)
	}
	if got := queryInts(t, e, "SELECT qty FROM items WHERE id = ?", int64(1)); len(got) != 1 {
		t.Fatalf("read after Close: %v", got)
	}
}

func TestDurabilityStatsAndGroupAccounting(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	mustDDL(t, e, durSchema)
	for i := int64(1); i <= 8; i++ {
		mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", i, "s", i)
	}
	ds := e.DurabilityStats()
	if !ds.Enabled {
		t.Fatal("durable engine reports Enabled=false")
	}
	if ds.GroupedCommits != 8 || ds.Groups == 0 || ds.Groups > 8 {
		t.Fatalf("group accounting: %d commits in %d groups", ds.GroupedCommits, ds.Groups)
	}
	if ds.WAL.Records != 9 { // 1 DDL + 8 groups (sequential committer: group size 1)
		t.Fatalf("WAL records = %d, want 9", ds.WAL.Records)
	}
	if New(Options{}).DurabilityStats().Enabled {
		t.Fatal("in-memory engine reports Enabled=true")
	}
}
