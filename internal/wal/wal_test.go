package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func readAll(t *testing.T, dir string) ([][]byte, *Reader) {
	t.Helper()
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	var out [][]byte
	for r.Next() {
		out = append(out, append([]byte(nil), r.Record().Payload...))
	}
	return out, r
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, SyncNone, nil)
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i*7)))
		want = append(want, p)
		if err := w.Append(p, uint64(i+1)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if i == 9 {
			if err := w.Rotate(); err != nil {
				t.Fatalf("Rotate: %v", err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, r := readAll(t, dir)
	defer r.Close()
	if r.Err() != nil {
		t.Fatalf("reader err: %v", r.Err())
	}
	if _, _, torn := r.Torn(); torn {
		t.Fatal("unexpected torn tail")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestEmptyAndMissingDir(t *testing.T) {
	got, r := readAll(t, filepath.Join(t.TempDir(), "nonexistent"))
	defer r.Close()
	if len(got) != 0 || r.Err() != nil {
		t.Fatalf("missing dir: got %d records, err %v", len(got), r.Err())
	}
}

func TestTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, SyncNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1 holds ts 1..5, segment 2 holds ts 6..10, segment 3 live.
	for ts := uint64(1); ts <= 10; ts++ {
		if err := w.Append([]byte{byte(ts)}, ts); err != nil {
			t.Fatal(err)
		}
		if ts == 5 || ts == 10 {
			if err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, err := w.TruncateThrough(4); err != nil || n != 0 {
		t.Fatalf("TruncateThrough(4) = %d, %v; want 0, nil", n, err)
	}
	if n, err := w.TruncateThrough(7); err != nil || n != 1 {
		t.Fatalf("TruncateThrough(7) = %d, %v; want 1, nil", n, err)
	}
	if n, err := w.TruncateThrough(10); err != nil || n != 1 {
		t.Fatalf("TruncateThrough(10) = %d, %v; want 1, nil", n, err)
	}
	w.Close()
	got, r := readAll(t, dir)
	defer r.Close()
	if len(got) != 0 {
		t.Fatalf("after full truncation: %d records left", len(got))
	}
}

// TestReopenNeverAppendsToOldSegment: a writer reopened on an existing dir
// starts a fresh segment and replay sees both generations in order.
func TestReopenNeverAppendsToOldSegment(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWriter(dir, SyncNone, nil)
	w.Append([]byte("gen1"), 1)
	w.Close()
	w2, err := OpenWriter(dir, SyncNone, map[uint64]uint64{1: 1})
	if err != nil {
		t.Fatal(err)
	}
	w2.Append([]byte("gen2"), 2)
	w2.Close()
	got, r := readAll(t, dir)
	defer r.Close()
	if len(got) != 2 || string(got[0]) != "gen1" || string(got[1]) != "gen2" {
		t.Fatalf("got %q", got)
	}
}

// TestTornTailEveryOffset is the table-driven torn-tail test the issue
// asks for: the log's final record is truncated at every possible byte
// offset, and recovery must stop cleanly at the last whole record — never
// error, never surface a partial payload.
func TestTornTailEveryOffset(t *testing.T) {
	base := t.TempDir()
	w, err := OpenWriter(base, SyncNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole := [][]byte{[]byte("first-record"), []byte("second-record-xyz")}
	for _, p := range whole {
		if err := w.Append(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	final := []byte("final-record-0123456789")
	if err := w.Append(final, 2); err != nil {
		t.Fatal(err)
	}
	w.Close()
	seg := filepath.Join(base, segName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	finalStart := len(full) - headerSize - len(final)

	for cut := finalStart; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, r := readAll(t, dir)
		if r.Err() != nil {
			t.Fatalf("cut=%d: reader error %v", cut, r.Err())
		}
		if len(got) != len(whole) {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), len(whole))
		}
		seq, off, torn := r.Torn()
		if cut == finalStart {
			// Truncation at the exact record boundary is a clean end.
			if torn {
				t.Fatalf("cut=%d: boundary truncation misread as torn", cut)
			}
		} else if !torn || seq != 1 || off != int64(finalStart) {
			t.Fatalf("cut=%d: Torn() = (%d, %d, %v), want (1, %d, true)", cut, seq, off, torn, finalStart)
		}
		// Truncating the torn tail and appending must yield a clean log.
		if err := r.TruncateTorn(); err != nil {
			t.Fatalf("cut=%d: TruncateTorn: %v", cut, err)
		}
		r.Close()
		w2, err := OpenWriter(dir, SyncNone, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.Append([]byte("post-recovery"), 3); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		got2, r2 := readAll(t, dir)
		if r2.Err() != nil {
			t.Fatalf("cut=%d: reread error %v", cut, r2.Err())
		}
		if _, _, torn := r2.Torn(); torn {
			t.Fatalf("cut=%d: torn tail survived truncation", cut)
		}
		if len(got2) != len(whole)+1 || string(got2[len(got2)-1]) != "post-recovery" {
			t.Fatalf("cut=%d: reread got %d records", cut, len(got2))
		}
		r2.Close()
	}
}

// TestCorruptFlippedByte: a flipped byte in a record body must stop replay
// at the previous record (tail segment) — and a gap in a non-final segment
// must surface ErrCorrupt so nothing past it is applied.
func TestCorruptFlippedByte(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWriter(dir, SyncNone, nil)
	w.Append([]byte("aaaa"), 1)
	w.Append([]byte("bbbb"), 2)
	w.Close()
	seg := filepath.Join(dir, segName(1))
	b, _ := os.ReadFile(seg)
	b[len(b)-1] ^= 0xFF
	os.WriteFile(seg, b, 0o644)

	got, r := readAll(t, dir)
	if len(got) != 1 || string(got[0]) != "aaaa" {
		t.Fatalf("got %q", got)
	}
	if r.Err() != nil {
		t.Fatalf("tail corruption must not error, got %v", r.Err())
	}
	r.Close()

	// Now add a later segment: the same corruption becomes a mid-log gap.
	w2, _ := OpenWriter(dir, SyncNone, nil)
	w2.Append([]byte("cccc"), 3)
	w2.Close()
	got, r = readAll(t, dir)
	defer r.Close()
	if len(got) != 1 {
		t.Fatalf("mid-log gap: applied %d records, want 1", len(got))
	}
	if r.Err() == nil {
		t.Fatal("mid-log gap must surface an error")
	}
}

// TestFileWriterStreamedRoundTrip: the chunked writer must produce a file
// byte-identical in semantics to WriteFileAtomic — ReadFileChecked accepts
// it, the payload round-trips, and an aborted writer leaves nothing behind.
func TestFileWriterStreamedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	fw, err := CreateFileAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 300; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 1+i%97)
		want = append(want, chunk...)
		if _, err := fw.Write(chunk); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if fw.Count() != int64(len(want)) {
		t.Fatalf("Count = %d, want %d", fw.Count(), len(want))
	}
	if err := fw.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	got, err := ReadFileChecked(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("streamed roundtrip: err=%v, %d bytes vs %d", err, len(got), len(want))
	}

	// Abort must leave no temp litter and no target file.
	dir := t.TempDir()
	fw2, err := CreateFileAtomic(filepath.Join(dir, "never"))
	if err != nil {
		t.Fatal(err)
	}
	fw2.Write([]byte("doomed"))
	fw2.Abort()
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("abort left %d files behind", len(ents))
	}
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	payload := bytes.Repeat([]byte("snapshot"), 100)
	if err := WriteFileAtomic(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFileChecked(path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip: %v", err)
	}
	// Corrupt one byte: must fail the check.
	b, _ := os.ReadFile(path)
	b[headerSize+3] ^= 1
	os.WriteFile(path, b, 0o644)
	if _, err := ReadFileChecked(path); err == nil {
		t.Fatal("corrupted checkpoint passed its checksum")
	}
}

func TestParseSegName(t *testing.T) {
	for seq := uint64(1); seq < 100; seq += 17 {
		got, ok := parseSegName(segName(seq))
		if !ok || got != seq {
			t.Fatalf("parseSegName(%q) = %d, %v", segName(seq), got, ok)
		}
	}
	for _, bad := range []string{"wal-.seg", "wal-00000000000000x1.seg", "foo", "wal-0000000000000001.log"} {
		if _, ok := parseSegName(bad); ok {
			t.Fatalf("parseSegName(%q) accepted", bad)
		}
	}
}

// FuzzWALDecode feeds arbitrary bytes through the record framing: the
// reader must never panic, never return a record whose CRC does not match,
// and must classify everything else as a clean end or torn tail.
func FuzzWALDecode(f *testing.F) {
	// Seed with a valid log, a truncated one, and garbage.
	dir := f.TempDir()
	w, _ := OpenWriter(dir, SyncNone, nil)
	w.Append([]byte("seed-record-one"), 1)
	w.Append([]byte("seed-record-two"), 2)
	w.Close()
	valid, _ := os.ReadFile(filepath.Join(dir, segName(1)))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	huge := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(huge[0:4], 0xFFFFFFFF)
	f.Add(huge)
	// A validly framed record with an EMPTY payload: downstream decoders
	// (the db layer's record-type dispatch) must treat it as a decode
	// error, never index into the zero-length payload.
	dir2 := f.TempDir()
	w2, _ := OpenWriter(dir2, SyncNone, nil)
	w2.Append([]byte{}, 1)
	w2.Close()
	empty, _ := os.ReadFile(filepath.Join(dir2, segName(1)))
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Skip()
		}
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatalf("OpenReader: %v", err)
		}
		defer r.Close()
		n := 0
		for r.Next() {
			if len(r.Record().Payload) > MaxRecordSize {
				t.Fatalf("oversized record surfaced")
			}
			n++
			if n > len(data) {
				t.Fatalf("more records than input bytes")
			}
		}
		// The single-segment case can never be a mid-log gap.
		if r.Err() != nil {
			t.Fatalf("single-segment log returned error %v", r.Err())
		}
	})
}

// countingFile counts the writes a segment receives.
type countingFile struct {
	*os.File
	writes int
}

func (c *countingFile) Write(p []byte) (int, error) {
	c.writes++
	return c.File.Write(p)
}

// TestOneWritePerRecord: Append hands header and payload to the file in one
// write — one syscall ahead of the sync — from a buffer it reuses, whatever
// the sizes of the records before it, and the records read back intact. A
// SyncFdatasync writer counts one sync per record, a SyncNone writer none.
func TestOneWritePerRecord(t *testing.T) {
	for _, c := range []struct {
		name      string
		mode      SyncMode
		syncEvery uint64
	}{{"fdatasync", SyncFdatasync, 1}, {"none", SyncNone, 0}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWriter(dir, c.mode, nil)
			if err != nil {
				t.Fatalf("OpenWriter: %v", err)
			}
			cf := &countingFile{File: w.f.(*os.File)}
			w.f = cf
			var want [][]byte
			for i, n := range []int{0, 1, 7, 4096, frameKeep + 1, 300, 0, 65536, 12} {
				p := bytes.Repeat([]byte{byte('a' + i)}, n)
				want = append(want, p)
				if err := w.Append(p, uint64(i+1)); err != nil {
					t.Fatalf("Append of %d bytes: %v", n, err)
				}
				if cf.writes != i+1 {
					t.Fatalf("record %d (%d bytes) took %d writes, want 1", i, n, cf.writes-i)
				}
				if cap(w.frame) > frameKeep {
					t.Fatalf("writer kept a %d-byte buffer after a %d-byte record", cap(w.frame), n)
				}
			}
			if st := w.Stats(); st.Records != uint64(len(want)) || st.Syncs != c.syncEvery*uint64(len(want)) {
				t.Fatalf("stats %+v, want %d records and %d syncs each", st, len(want), c.syncEvery)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			got, r := readAll(t, dir)
			defer r.Close()
			if _, _, torn := r.Torn(); torn || r.Err() != nil || len(got) != len(want) {
				t.Fatalf("read back %d of %d records (torn=%v, err=%v)", len(got), len(want), torn, r.Err())
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d mismatch", i)
				}
			}
		})
	}
}
