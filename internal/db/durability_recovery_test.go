package db

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"txcache/internal/mvcc"
	"txcache/internal/sql"
	"txcache/internal/wal"
)

// Coverage for the parallel recovery path and the streaming checkpoint
// encoder: replay equivalence (serial vs parallel recovery must reproduce
// byte-identical state), commit latency under a concurrent checkpoint,
// corrupt-record handling, checkpoint-error accounting, and the durable
// commit allocation budget.

// engineFingerprint renders the engine's full logical state — schemas,
// version chains (intervals and data), index contents, row counts, id
// allocators — deterministically, so two recovery paths can be compared
// byte for byte.
func engineFingerprint(e *Engine) string {
	var sb strings.Builder
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tab := e.tables[n]
		fmt.Fprintf(&sb, "table %s rows=%d nextID=%d primary=%s\n", n, tab.rowCount, tab.store.NextID(), tab.primary)
		for _, c := range tab.cols {
			fmt.Fprintf(&sb, " col %s %d primary=%v notnull=%v\n", c.Name, c.Type, c.Primary, c.NotNull)
		}
		type rowEnt struct {
			id uint64
			s  string
		}
		var rows []rowEnt
		tab.store.Scan(func(id mvcc.RowID, chain []mvcc.Version) bool {
			var cb strings.Builder
			for _, v := range chain {
				fmt.Fprintf(&cb, "[%d,%d)%v", v.Created, v.Deleted, v.Data)
			}
			rows = append(rows, rowEnt{uint64(id), cb.String()})
			return true
		})
		sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
		for _, r := range rows {
			fmt.Fprintf(&sb, " row %d %s\n", r.id, r.s)
		}
		for _, idx := range tab.idxList {
			fmt.Fprintf(&sb, " index %s on %s unique=%v len=%d\n", idx.name, idx.column, idx.unique, idx.tree.Len())
			idx.tree.AscendRange(nil, nil, func(key []byte, posts []uint64) bool {
				fmt.Fprintf(&sb, "  %x %v\n", key, posts)
				return true
			})
		}
	}
	return sb.String()
}

// reopenWithWorkers recovers the engine from dir with the given replay
// parallelism and tears the WAL writer down directly (Engine.Close would
// run a final checkpoint and change what the next recovery reads).
func reopenWithWorkers(t *testing.T, dir string, workers int) *Engine {
	t.Helper()
	e, _, err := open(Options{VacuumEvery: -1, Durability: &DurabilityOptions{
		Dir: dir, Sync: wal.SyncNone, CheckpointBytes: -1,
	}}, workers)
	if err != nil {
		t.Fatalf("open(workers=%d): %v", workers, err)
	}
	if err := e.dur.w.Close(); err != nil {
		t.Fatalf("close WAL writer: %v", err)
	}
	return e
}

// TestReplayEquivalence drives a randomized multi-table workload (inserts,
// updates, deletes, mid-stream DDL, a mid-stream checkpoint), "crashes",
// and verifies that serial recovery (workers=1) and parallel recovery
// (workers=8) reproduce byte-identical engine state.
func TestReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	rng := rand.New(rand.NewSource(42))

	tables := []string{"eq_a", "eq_b", "eq_c", "eq_d"}
	for _, tn := range tables {
		mustDDL(t, e, fmt.Sprintf(
			"CREATE TABLE %s (id BIGINT PRIMARY KEY, v BIGINT, s TEXT)", tn))
	}
	live := map[string][]int64{} // committed, not-deleted primary keys
	nextPK := map[string]int64{}

	workload := func(txCount int) {
		for i := 0; i < txCount; i++ {
			tx, err := e.BeginTx(context.Background(), false, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Each transaction touches 1–3 tables so commit records carry
			// multi-table sections (the unit the parallel replayer splits).
			for _, tn := range tables[:1+rng.Intn(3)] {
				for op := 0; op < 1+rng.Intn(4); op++ {
					switch k := rng.Intn(10); {
					case k < 5 || len(live[tn]) == 0: // insert
						pk := nextPK[tn]
						nextPK[tn]++
						if _, err := tx.Exec(fmt.Sprintf(
							"INSERT INTO %s (id, v, s) VALUES (?, ?, ?)", tn),
							pk, rng.Int63n(1000), fmt.Sprintf("s-%d", pk)); err != nil {
							t.Fatal(err)
						}
						live[tn] = append(live[tn], pk)
					case k < 8: // update
						pk := live[tn][rng.Intn(len(live[tn]))]
						if _, err := tx.Exec(fmt.Sprintf(
							"UPDATE %s SET v = ? WHERE id = ?", tn),
							rng.Int63n(1000), pk); err != nil {
							t.Fatal(err)
						}
					default: // delete
						j := rng.Intn(len(live[tn]))
						pk := live[tn][j]
						if _, err := tx.Exec(fmt.Sprintf(
							"DELETE FROM %s WHERE id = ?", tn), pk); err != nil {
							t.Fatal(err)
						}
						live[tn] = append(live[tn][:j], live[tn][j+1:]...)
					}
				}
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}

	workload(60)
	if err := e.Checkpoint(); err != nil { // recovery = snapshot + log tail
		t.Fatal(err)
	}
	workload(60)
	// Mid-log DDL: replay must barrier the worker pool around these.
	mustDDL(t, e,
		"CREATE INDEX eq_b_v ON eq_b (v)",
		"CREATE TABLE eq_late (id BIGINT PRIMARY KEY, v BIGINT, s TEXT)")
	tables = append(tables, "eq_late")
	workload(60)
	if err := e.dur.w.Close(); err != nil { // crash: no final checkpoint
		t.Fatal(err)
	}

	serial := reopenWithWorkers(t, dir, 1)
	serialFP := engineFingerprint(serial)
	parallel := reopenWithWorkers(t, dir, 8)
	parallelFP := engineFingerprint(parallel)
	if serialFP != parallelFP {
		t.Fatalf("serial and parallel recovery disagree:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialFP, parallelFP)
	}
	if got := len(queryInts(t, parallel, "SELECT id FROM eq_a")); got != len(live["eq_a"]) {
		t.Fatalf("eq_a live rows after parallel recovery = %d, want %d", got, len(live["eq_a"]))
	}
}

// TestRecoversParentFormat opens a data directory written by the commit
// before the value encoding moved into sql.AppendValue and the readers onto
// wire.Decoder (testdata/parent-format: a checkpoint at ts 5 holding every
// value kind, then a log segment with two inserts, an update, a delete, a
// CREATE TABLE record and an insert into the new table; no clean shutdown)
// and compares every row. On-disk compatibility is this test, not a claim:
// snapVersion is still 2 and the WAL bytes are still the parent's.
func TestRecoversParentFormat(t *testing.T) {
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		ents, err := os.ReadDir(filepath.Join("testdata", "parent-format"))
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents { // recovery writes to the directory it opens
			b, err := os.ReadFile(filepath.Join("testdata", "parent-format", ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ent.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		e := reopenWithWorkers(t, dir, workers)
		info := e.DurabilityStats().Recovery
		want := RecoveryInfo{CheckpointTS: 5, RecoveredTS: 10, Records: 6, CommitsReplayed: 5, DDLReplayed: 1}
		if info != want {
			t.Fatalf("workers=%d: recovery = %+v, want %+v", workers, info, want)
		}
		tx, err := e.BeginTx(context.Background(), true, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			query string
			rows  [][]sql.Value
		}{
			{"SELECT id, name, score, ok, n FROM kinds ORDER BY id", [][]sql.Value{
				{int64(1), "in the checkpoint", 1.5, true, int64(10)},
				{int64(2), "updated", -2.25, false, int64(21)},
				{int64(4), nil, nil, nil, nil},
				{int64(5), "logged \x00 bytes \xff", 3.25, false, int64(-50)},
				{int64(6), nil, nil, true, nil},
			}},
			// Through the secondary index the checkpoint carried.
			{"SELECT id FROM kinds WHERE n = 21", [][]sql.Value{{int64(2)}}},
			{"SELECT id FROM kinds WHERE n = 20", nil},
			{"SELECT id, v FROM late", [][]sql.Value{{int64(1), "after the DDL record"}}},
		} {
			res, err := tx.Query(c.query)
			if err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, c.query, err)
			}
			if len(res.Rows) != len(c.rows) || (len(c.rows) > 0 && !reflect.DeepEqual(res.Rows, c.rows)) {
				t.Fatalf("workers=%d: %s = %#v, want %#v", workers, c.query, res.Rows, c.rows)
			}
		}
		tx.Abort()
	}
}

// TestRecoverRejectsEmptyWALRecord pins the empty-payload fix: a framed
// record with a zero-length payload must fail replay with a decode error,
// not crash indexing payload[0].
func TestRecoverRejectsEmptyWALRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.OpenWriter(dir, wal.SyncNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte{}, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Options{VacuumEvery: -1, Durability: durOpts(dir)})
	if err == nil || !strings.Contains(err.Error(), "empty WAL record") {
		t.Fatalf("Open on empty-payload record = %v, want empty-record error", err)
	}
}

// TestRecoveryChecksRows: recovery slices packed rows out of a snapshot
// section and a log record without boxing a value (valid flow), and refuses
// — with an error that names the table and the row, at db.Open, never with a
// panic in the index rebuild or at the first query — a CRC-valid row that is
// not a row of its table (rejection flow).
func TestRecoveryChecksRows(t *testing.T) {
	row := func(id mvcc.RowID) sql.Row { return rowOf(int64(id), "a name", 0.5, true, int64(300+id)) }
	ids := func(n int) []mvcc.RowID {
		out := make([]mvcc.RowID, n)
		for i := range out {
			out[i] = mvcc.RowID(i + 1)
		}
		return out
	}
	inserts := func(n int) []byte {
		var ops []byte
		for _, id := range ids(n) {
			ops = walOp(ops, walOpInsert, id, row(id))
		}
		return ops
	}

	t.Run("ValidFlow", func(t *testing.T) {
		const n = 512
		tab, err := decodeTableSection(kindsSection(ids(n), row))
		if err != nil {
			t.Fatal(err)
		}
		tab.rebuildDerived()
		if tab.rowCount != n || tab.payload != n*rowCost(row(1)) {
			t.Fatalf("restored %d rows, %d payload bytes; want %d and %d", tab.rowCount, tab.payload, n, n*rowCost(row(1)))
		}
		e := New(Options{VacuumEvery: -1})
		mustDDL(t, e, fuzzSchema)
		rp := newWALReplayer(e, 0, 1)
		if _, commits, _, err := rp.replayRecord(kindsRecord(inserts(n), n)); err != nil || commits != 1 {
			t.Fatalf("replayRecord = %d commits, %v", commits, err)
		}
		e.rebuildDerivedAll(1)
		if v, ok := e.tables["kinds"].store.Latest(7); !ok || v.Data.(sql.Row) != row(7) || e.tables["kinds"].rowCount != n {
			t.Fatalf("row 7 after replay: %v, %v; %d rows", v, ok, e.tables["kinds"].rowCount)
		}

		// What a row costs to restore: its bytes and the header that boxes
		// them. A row here has five columns, an integer above 255, a float and
		// a string among them: boxed values would be four objects more.
		perRow := func(restore func(n int)) float64 {
			small := testing.AllocsPerRun(20, func() { restore(n) })
			large := testing.AllocsPerRun(20, func() { restore(2 * n) })
			return (large - small) / n
		}
		sec1, sec2 := kindsSection(ids(n), row), kindsSection(ids(2*n), row)
		if got := perRow(func(k int) {
			sec := sec1
			if k > n {
				sec = sec2
			}
			if _, err := decodeTableSection(sec); err != nil {
				t.Fatal(err)
			}
		}); got > 2.1 {
			t.Fatalf("decodeTableSection allocates %.2f objects a row, want 2 (the row, its box) and a share of a directory page", got)
		}
		ops1, ops2 := inserts(n), inserts(2*n)
		if got := perRow(func(k int) {
			ops := ops1
			if k > n {
				ops = ops2
			}
			fresh, err := newTable(&sql.CreateTable{Name: "kinds", Cols: e.tables["kinds"].cols})
			if err != nil {
				t.Fatal(err)
			}
			if err := applyTableOps(fresh, ops, k, 9); err != nil {
				t.Fatal(err)
			}
		}); got > 2.1 {
			t.Fatalf("applyTableOps allocates %.2f objects an op, want 2 and a share of a directory page", got)
		}
	})

	t.Run("RejectionFlow", func(t *testing.T) {
		for _, m := range misshapenRows {
			want := []string{`row 7 of "kinds"`, m.want}
			refused := func(from string, err error) {
				t.Helper()
				for _, w := range want {
					if err == nil || !strings.Contains(err.Error(), w) {
						t.Errorf("%s, %s: %v; want an error naming %q", m.name, from, err, w)
					}
				}
			}
			_, err := decodeTableSection(kindsSection([]mvcc.RowID{7}, func(mvcc.RowID) sql.Row { return m.row }))
			refused("in a snapshot section", err)

			// In the log, behind a good row, of a data directory db.Open reads.
			dir := t.TempDir()
			e, _ := openDurable(t, dir)
			mustDDL(t, e, fuzzSchema)
			ops := walOp(walOp(nil, walOpInsert, 1, row(1)), walOpInsert, 7, m.row)
			if err := e.dur.w.Append(kindsRecord(ops, 2), 9); err != nil {
				t.Fatal(err)
			}
			if err := e.dur.w.Close(); err != nil { // a crash: the log tail stays
				t.Fatal(err)
			}
			_, _, err = Open(Options{VacuumEvery: -1, Durability: durOpts(dir)})
			refused("in a log record at Open", err)

			// As an update's replacement row.
			e2 := New(Options{VacuumEvery: -1})
			mustDDL(t, e2, fuzzSchema)
			rp := newWALReplayer(e2, 0, 1)
			_, _, _, err = rp.replayRecord(kindsRecord(walOp(walOp(nil, walOpInsert, 7, row(7)), walOpUpdate, 7, m.row), 2))
			refused("as a logged update", err)
			if err := rp.close(); err != nil {
				t.Fatal(err)
			}
		}

		// NOT NULL is the table's to check too.
		e := New(Options{VacuumEvery: -1})
		mustDDL(t, e, durSchema)
		err := applyTableOps(e.tables["items"], walOp(nil, walOpInsert, 3, rowOf(int64(3), nil, int64(1))), 1, 9)
		if err == nil || !strings.Contains(err.Error(), `row 3 of "items": column name (TEXT) cannot hold NULL`) {
			t.Fatalf("a NULL in a NOT NULL column: %v", err)
		}
	})
}

// TestCheckpointErrorSurfacesInStats verifies a failing checkpoint pass is
// visible in DurabilityStats rather than only on stderr.
func TestCheckpointErrorSurfacesInStats(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	mustDDL(t, e, durSchema)
	mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(1), "a", int64(1))
	e.dur.dir = filepath.Join(dir, "missing") // snapshot create must fail
	if err := e.Checkpoint(); err == nil {
		t.Fatal("Checkpoint into a missing directory succeeded")
	}
	ds := e.DurabilityStats()
	if ds.CheckpointErrors != 1 || ds.LastCheckpointError == "" {
		t.Fatalf("stats after failed checkpoint: errors=%d lastError=%q",
			ds.CheckpointErrors, ds.LastCheckpointError)
	}
	e.dur.dir = dir
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCommitLatency forces checkpoints of a multi-megabyte table
// while a writer commits continuously, and asserts no single commit stalls
// for the duration of a full-table encode. Before the streaming encoder,
// the checkpoint held the table lock across the entire serialization; now
// the lock is released every ckptBatchBytes, so a concurrent commit waits
// at most one batch.
func TestCheckpointCommitLatency(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	defer e.Close()
	mustDDL(t, e, durSchema)
	pad := strings.Repeat("x", 100)
	tx, err := e.BeginTx(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 60000; i++ {
		if _, err := tx.Exec("INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", i, pad, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var worst time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			mustExec(t, e, "UPDATE items SET qty = ? WHERE id = ?", i, i%60000)
			if d := time.Since(start); d > worst {
				worst = d
			}
			i++
		}
	}()
	for i := 0; i < 3; i++ {
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// ~6 MiB of row data is ~100 lock-release points; a commit should
	// never see more than a few batches' worth of stall. The bound is
	// generous for CI noise but far below the full-encode time the old
	// single-slice path imposed.
	if limit := 100 * time.Millisecond; worst > limit {
		t.Fatalf("worst commit latency under checkpoint = %v, want < %v", worst, limit)
	}
	t.Logf("worst commit latency under 3 forced checkpoints: %v", worst)
}

// durableCommitAllocCeiling is the allocation budget for one warmed-up
// single-row durable UPDATE commit (SyncNone): the replacement row, the
// boxed statement arguments, and the commit-path escapes (4 measured, 5
// before rows were packed; one of headroom). The WAL payload encode — now an
// append of the row's own bytes — group-record assembly, and the write-set
// containers are all pooled and contribute zero — see EXPERIMENTS.md "Fast
// durability".
const durableCommitAllocCeiling = 5

func TestAllocBudgetDurableCommit(t *testing.T) {
	if raceAllocSlack > 0 {
		// Under the race detector sync.Pool drops a quarter of its Puts, and
		// this path leans on five pools: 12-13 objects/op against a ceiling
		// of 6, on every run. `make alloc-regression` enforces the ceiling
		// without the detector.
		t.Skip("pooled path: the budget binds only without -race")
	}
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	defer e.Close()
	mustDDL(t, e, durSchema)
	for i := int64(0); i < 64; i++ {
		mustExec(t, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", i, "n", i)
	}
	commit := func() {
		mustExec(t, e, "UPDATE items SET qty = ? WHERE id = ?", int64(1), int64(7))
	}
	for i := 0; i < 8; i++ {
		commit() // warm scratch pool, plan cache, WAL buffers
	}
	if avg := testing.AllocsPerRun(200, commit); avg > durableCommitAllocCeiling {
		t.Fatalf("durable commit allocates %.1f objects/op, budget is %d", avg, durableCommitAllocCeiling)
	}
}

// BenchmarkRecovery measures cold-start recovery over a generated log,
// serial (workers=1) against parallel. The log size defaults to 24 MiB;
// set RECOVERY_LOG_MB to benchmark bigger logs (EXPERIMENTS.md's recovery
// figures are at 100).
func BenchmarkRecovery(b *testing.B) {
	logMB := 24
	if s := os.Getenv("RECOVERY_LOG_MB"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			logMB = v
		}
	}
	dir := b.TempDir()
	logBytes := buildRecoveryLog(b, dir, int64(logMB)<<20)

	workers := []int{1, runtime.GOMAXPROCS(0)}
	if workers[1] == 1 {
		// Single-CPU host: still exercise the pool (contention removal is
		// what the speedup measures there; see EXPERIMENTS.md).
		workers[1] = 4
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.SetBytes(logBytes)
			for i := 0; i < b.N; i++ {
				e, _, err := open(Options{VacuumEvery: -1, Durability: &DurabilityOptions{
					Dir: dir, Sync: wal.SyncNone, CheckpointBytes: -1,
				}}, w)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.dur.w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// buildRecoveryLog populates dir with a multi-table WAL of at least
// targetBytes (no checkpoint, so recovery replays everything) and returns
// the log's size.
func buildRecoveryLog(b *testing.B, dir string, targetBytes int64) int64 {
	b.Helper()
	e, _, err := Open(Options{VacuumEvery: -1, Durability: &DurabilityOptions{
		Dir: dir, Sync: wal.SyncNone, CheckpointBytes: -1,
	}})
	if err != nil {
		b.Fatal(err)
	}
	tables := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	for _, tn := range tables {
		if err := e.DDL(fmt.Sprintf(
			"CREATE TABLE %s (id BIGINT PRIMARY KEY, v BIGINT, s TEXT)", tn)); err != nil {
			b.Fatal(err)
		}
	}
	pad := strings.Repeat("p", 64)
	pk := int64(0)
	for e.dur.w.Stats().Bytes < uint64(targetBytes) {
		tx, err := e.BeginTx(context.Background(), false, 0)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 16; j++ {
			tn := tables[int(pk)%len(tables)]
			if _, err := tx.Exec(fmt.Sprintf(
				"INSERT INTO %s (id, v, s) VALUES (?, ?, ?)", tn), pk, pk*3, pad); err != nil {
				b.Fatal(err)
			}
			if prev := pk - int64(len(tables)); prev >= 0 {
				if _, err := tx.Exec(fmt.Sprintf(
					"UPDATE %s SET v = ? WHERE id = ?", tn), pk, prev); err != nil {
					b.Fatal(err)
				}
			}
			pk++
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	size := int64(e.dur.w.Stats().Bytes)
	if err := e.dur.w.Close(); err != nil {
		b.Fatal(err)
	}
	return size
}
