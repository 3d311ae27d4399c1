package db

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"txcache/internal/wal"
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

// FuzzSnapshotSection feeds arbitrary bytes to the checkpoint's per-table
// decoder.
func FuzzSnapshotSection(f *testing.F) {
	sections, _ := seedCorpus(f)
	addMangled(f, sections)
	f.Fuzz(func(t *testing.T, sec []byte) {
		tab, err := decodeTableSection(sec)
		if (tab == nil) == (err == nil) {
			t.Fatalf("decodeTableSection = %v, %v: want a table or an error", tab, err)
		}
	})
}

// FuzzReplayRecord feeds arbitrary bytes to log replay as one record's
// payload, against an engine that has the seed records' table.
func FuzzReplayRecord(f *testing.F) {
	_, records := seedCorpus(f)
	addMangled(f, records)
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
	})
}
