package db

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"txcache/internal/interval"
	"txcache/internal/mvcc"
	"txcache/internal/sql"
	"txcache/internal/wal"
	"txcache/internal/wire"
)

// The two decoders recovery runs over bytes it found on disk. A CRC frames
// every record and every snapshot, but a CRC is not a proof: malformed
// input must come back as an error, never as a panic or an allocation
// sized by a count the bytes cannot back.

// fuzzSchema is the table the seed records (and testdata/parent-format's
// log) write into, so a well-formed record applies instead of stopping at
// "unknown table".
const fuzzSchema = `CREATE TABLE kinds (id BIGINT PRIMARY KEY, name TEXT, score DOUBLE, ok BOOLEAN, n BIGINT)`

// seedCorpus returns the snapshot sections and the log records of two data
// directories: the one TestRecoversParentFormat reads, and one written here
// the same way (a checkpoint, then a log tail with every op kind and a DDL
// record) with two tables and a unique index in its checkpoint.
func seedCorpus(f *testing.F) (sections, records [][]byte) {
	f.Helper()
	fresh := f.TempDir()
	e, _, err := Open(Options{VacuumEvery: -1, Durability: durOpts(fresh)})
	if err != nil {
		f.Fatal(err)
	}
	mustDDL(f, e, fuzzSchema, `CREATE UNIQUE INDEX kinds_name ON kinds (name)`, durSchema)
	mustExec(f, e, "INSERT INTO kinds (id, name, score, ok, n) VALUES (?, ?, ?, ?, ?)", int64(1), "a", 1.5, true, nil)
	mustExec(f, e, "INSERT INTO items (id, name, qty) VALUES (?, ?, ?)", int64(1), "item", int64(3))
	if err := e.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	mustExec(f, e, "INSERT INTO kinds (id, name, score, ok, n) VALUES (?, ?, ?, ?, ?)", int64(2), "b", nil, false, int64(-1))
	mustExec(f, e, "UPDATE kinds SET n = ? WHERE id = ?", int64(7), int64(1))
	mustExec(f, e, "DELETE FROM items WHERE id = ?", int64(1))
	mustDDL(f, e, `CREATE INDEX items_qty ON items (qty)`)
	if err := e.dur.w.Close(); err != nil { // a crash: the log tail stays
		f.Fatal(err)
	}

	for _, dir := range []string{filepath.Join("testdata", "parent-format"), fresh} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, ent := range ents {
			if _, ok := parseCkptName(ent.Name()); !ok {
				continue
			}
			payload, err := wal.ReadFileChecked(filepath.Join(dir, ent.Name()))
			if err != nil {
				f.Fatal(err)
			}
			_, secs, err := splitSnapshot(payload)
			if err != nil {
				f.Fatal(err)
			}
			sections = append(sections, secs...)
		}
		r, err := wal.OpenReader(dir)
		if err != nil {
			f.Fatal(err)
		}
		for r.Next() {
			records = append(records, bytes.Clone(r.Record().Payload))
		}
		r.Close()
	}
	if len(sections) != 3 || len(records) != 10 {
		f.Fatalf("seed corpus: %d snapshot sections and %d log records, want 3 and 10", len(sections), len(records))
	}
	return sections, records
}

// datumOf unboxes a value the test wrote itself.
func datumOf(v sql.Value) sql.Datum {
	d, err := sql.DatumOf(v)
	if err != nil {
		panic(err)
	}
	return d
}

// rowOf packs vals as a stored row, unchecked against any table.
func rowOf(vals ...sql.Value) sql.Row {
	cols := make([]sql.Datum, len(vals))
	for i, v := range vals {
		cols[i] = datumOf(v)
	}
	return sql.Row(sql.AppendRow(nil, cols))
}

// hostileIDs are row ids no run of this program hands out in this order:
// descending, then far apart, then the top of the id space. A snapshot
// written before ids were walked in order holds them shuffled, and a
// CRC-valid file can hold anything; the row directory must cost by the rows
// either way.
var hostileIDs = []mvcc.RowID{900, 899, 3, 2, 1, 1 << 60, 1 << 40, 1<<64 - 2}

// kindsSection returns a snapshot section of fuzzSchema's table with row(id)
// under each of ids, created at timestamp 2.
func kindsSection(ids []mvcc.RowID, row func(mvcc.RowID) sql.Row) []byte {
	sec := wire.AppendStr(nil, "kinds")
	sec = binary.LittleEndian.AppendUint32(sec, 5)
	for i, c := range []struct {
		name string
		typ  sql.ColType
	}{{"id", sql.TInt}, {"name", sql.TString}, {"score", sql.TFloat}, {"ok", sql.TBool}, {"n", sql.TInt}} {
		sec = append(wire.AppendStr(sec, c.name), byte(c.typ))
		if i == 0 {
			sec = append(sec, 1) // PRIMARY KEY
		} else {
			sec = append(sec, 0)
		}
	}
	sec = binary.LittleEndian.AppendUint32(sec, 0) // no secondary index
	sec = binary.LittleEndian.AppendUint64(sec, 1<<64-1)
	for _, id := range ids {
		sec = binary.LittleEndian.AppendUint64(sec, uint64(id))
		sec = binary.LittleEndian.AppendUint64(sec, 2)
		sec = append(sec, row(id)...)
	}
	return sec
}

// kindsRecord returns a commit-group record holding one commit, at timestamp
// 9, of nOps ops (walOp's output, back to back) against fuzzSchema's table.
func kindsRecord(ops []byte, nOps int) []byte {
	body, fix := walSectionStart(nil, "kinds")
	body = walSectionEnd(append(body, ops...), fix, nOps)
	rec := binary.LittleEndian.AppendUint32([]byte{recCommitGroup}, 1)
	rec = binary.LittleEndian.AppendUint64(rec, 9)
	return append(binary.LittleEndian.AppendUint32(rec, uint32(len(body))), body...)
}

// hostileIDSeeds returns a snapshot section of fuzzSchema's table and a
// commit-group record against it that carry hostileIDs: the section one row
// per id, the record an insert per id and then an update and a delete of
// the far ones.
func hostileIDSeeds() (section, record []byte) {
	row := func(id mvcc.RowID) sql.Row {
		return rowOf(int64(id>>1), "far", 0.5, true, nil)
	}
	var ops []byte
	for _, id := range hostileIDs {
		ops = walOp(ops, walOpInsert, id, row(id))
	}
	ops = walOp(ops, walOpUpdate, 1<<60, row(7))
	ops = walOp(ops, walOpDelete, 1<<40, "")
	return kindsSection(hostileIDs, row), kindsRecord(ops, len(hostileIDs)+2)
}

// misshapenRows are rows sql.DecodeRow accepts and fuzzSchema's table must
// not: the executor indexes a stored row by the schema's column positions
// and trusts what it finds there, so recovery is the last place to look.
var misshapenRows = []struct {
	name string
	row  sql.Row
	want string // in the error, beside the table and the row id
}{
	{"no columns", rowOf(), "has 0 columns"},
	{"short row", rowOf(int64(1), "a", 0.5, true), "has 4 columns"},
	{"long row", rowOf(int64(1), "a", 0.5, true, nil, nil), "has 6 columns"},
	{"string in an integer column", rowOf("one", "a", 0.5, true, nil), "column id (BIGINT) cannot hold one"},
	{"integer in a DOUBLE column", rowOf(int64(1), "a", int64(2), true, nil), "column score (DOUBLE) cannot hold 2"},
	{"integer in a BOOLEAN column", rowOf(int64(1), "a", 0.5, int64(1), nil), "column ok (BOOLEAN) cannot hold 1"},
}

// TestRestoreHostileIDs: both decoders restore hostileIDs' rows, and the
// stores they restore into cost a page or so a row, not what the largest id
// would index.
func TestRestoreHostileIDs(t *testing.T) {
	sec, rec := hostileIDSeeds()
	check := func(from string, tab *Table, versions int) {
		t.Helper()
		if got := tab.store.Len(); got != len(hostileIDs) || tab.store.VersionCount() != versions {
			t.Fatalf("%s: %d rows, %d versions, want %d and %d", from, got, tab.store.VersionCount(), len(hostileIDs), versions)
		}
		prev := mvcc.RowID(0)
		tab.store.Scan(func(id mvcc.RowID, chain []mvcc.Version) bool {
			if id <= prev || chain[0].Data.(sql.Row).At(1).Value() != "far" {
				t.Fatalf("%s: row %d after row %d, %v", from, id, prev, chain)
			}
			prev = id
			return true
		})
		if got := tab.store.Bytes(); got > 1<<20 {
			t.Fatalf("%s: row directory holds %d B for %d rows", from, got, len(hostileIDs))
		}
	}

	tab, err := decodeTableSection(sec)
	if err != nil {
		t.Fatal(err)
	}
	check("snapshot section", tab, len(hostileIDs))
	twice := binary.LittleEndian.AppendUint64(bytes.Clone(sec), 1<<60)
	twice = append(binary.LittleEndian.AppendUint64(twice, 3), rowOf(int64(1), "far", 0.5, true, nil)...)
	if _, err := decodeTableSection(twice); err == nil || !strings.Contains(err.Error(), "duplicated") {
		t.Fatalf("a section naming row 1<<60 twice: %v, want it refused as duplicated", err)
	}

	e := New(Options{VacuumEvery: -1})
	mustDDL(t, e, fuzzSchema)
	rp := newWALReplayer(e, 0, 1)
	ts, commits, _, err := rp.replayRecord(rec)
	if err != nil || ts != 9 || commits != 1 {
		t.Fatalf("replayRecord = ts %d, %d commits, %v", ts, commits, err)
	}
	if err := rp.close(); err != nil {
		t.Fatal(err)
	}
	check("log record", e.tables["kinds"], len(hostileIDs)+1)
	if v, ok := e.tables["kinds"].store.Latest(1 << 40); !ok || v.Deleted != interval.Timestamp(9) {
		t.Fatalf("row 1<<40 after its logged delete: %v, %v", v, ok)
	}
}

// addMangled seeds f with each input whole, cut short, and with a byte
// flipped in the middle.
func addMangled(f *testing.F, inputs [][]byte) {
	for _, in := range inputs {
		f.Add(in)
		f.Add(in[:len(in)/2])
		flipped := bytes.Clone(in)
		flipped[len(in)/2] ^= 0xFF
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
}

// scanEveryColumn is what the fuzz targets do with a table recovery accepted:
// rebuild its indexes and row count as the end of recovery does, then run a
// full scan whose predicate reads every column of every version. A row
// recovery let through that the executor cannot walk shows here as a panic.
func scanEveryColumn(t *testing.T, tab *Table) {
	t.Helper()
	tab.rebuildDerived()
	conds := make([]localCond, len(tab.cols))
	for i := range conds {
		conds[i] = localCond{colPos: i, valCol: (i + 1) % len(tab.cols), op: sql.OpLe}
	}
	versions := 0
	tab.store.Scan(func(_ mvcc.RowID, chain []mvcc.Version) bool {
		for _, v := range chain {
			for i := range conds { // one at a time: a conjunction stops at its first false
				evalLocal(conds[i:i+1], v.Data.(sql.Row))
			}
			versions++
		}
		return true
	})
	if versions != tab.store.VersionCount() {
		t.Fatalf("scanned %d versions of %d", versions, tab.store.VersionCount())
	}
}

// FuzzSnapshotSection feeds arbitrary bytes to the checkpoint's per-table
// decoder, and reads every row of a table it returns.
func FuzzSnapshotSection(f *testing.F) {
	sections, _ := seedCorpus(f)
	hostile, _ := hostileIDSeeds()
	seeds := append(sections, hostile)
	for _, m := range misshapenRows {
		seeds = append(seeds, kindsSection([]mvcc.RowID{1}, func(mvcc.RowID) sql.Row { return m.row }))
	}
	addMangled(f, seeds)
	f.Fuzz(func(t *testing.T, sec []byte) {
		tab, err := decodeTableSection(sec)
		if (tab == nil) == (err == nil) {
			t.Fatalf("decodeTableSection = %v, %v: want a table or an error", tab, err)
		}
		if tab != nil {
			scanEveryColumn(t, tab)
		}
	})
}

// FuzzReplayRecord feeds arbitrary bytes to log replay as one record's
// payload, against an engine that has the seed records' table, and reads
// every row the record left there.
func FuzzReplayRecord(f *testing.F) {
	_, records := seedCorpus(f)
	_, hostile := hostileIDSeeds()
	seeds := append(records, hostile)
	for _, m := range misshapenRows {
		seeds = append(seeds, kindsRecord(walOp(nil, walOpInsert, 1, m.row), 1))
	}
	addMangled(f, seeds)
	f.Fuzz(func(t *testing.T, payload []byte) {
		e := New(Options{VacuumEvery: -1})
		if err := e.DDL(fuzzSchema); err != nil {
			t.Fatal(err)
		}
		rp := newWALReplayer(e, 0, 1)
		_, _, _, _ = rp.replayRecord(payload) // an error or not: no panic
		if err := rp.close(); err != nil {
			t.Fatal(err)
		}
		for _, tab := range e.tables { // a DDL record may have added one
			scanEveryColumn(t, tab)
		}
	})
}
