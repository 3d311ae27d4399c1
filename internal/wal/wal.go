// Package wal implements the write-ahead log the database engine's commit
// sequencer appends to: CRC-framed records in sequentially numbered segment
// files, with group-commit fsync (the head committer of a publish group
// syncs once per group, not once per transaction) and prefix truncation
// driven by checkpoints.
//
// The package deals only in opaque record payloads; the db layer owns the
// payload encoding (commit groups, DDL). What wal guarantees:
//
//   - Append durability: after Append returns, the record survives kill -9
//     (one fdatasync per append, which the engine makes one per commit
//     group).
//   - Prefix semantics on read: a Reader yields records in append order
//     and stops at the first frame that fails its length or CRC check — a
//     torn tail from a mid-append crash truncates the log, it never
//     corrupts it, and no record past a gap is ever surfaced.
//   - Rotation: Rotate seals the current segment and starts the next; a
//     sealed segment records the maximum timestamp it contains so
//     TruncateThrough can delete exactly the segments a checkpoint covers.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// SyncMode selects how appends are made durable.
type SyncMode int

const (
	// SyncFdatasync issues one fdatasync(2) per append (per commit group).
	// The zero value, hence the default: data plus the file size reach the
	// platter, file metadata (timestamps) may not.
	SyncFdatasync SyncMode = iota
	// SyncNone performs no explicit sync: appends are durable only on a
	// clean close. Tests use it to skip the flush cost.
	SyncNone
)

// Record framing: a fixed header then the payload.
//
//	u32 little-endian payload length
//	u32 little-endian CRC-32C of the payload
//	payload bytes
//
// A record is valid iff the full header fits, the length fits in the
// remaining file, and the CRC matches. Anything else is a torn tail.
const headerSize = 8

// MaxRecordSize bounds a single record (64 MiB): a length field beyond it
// is treated as corruption rather than an attempt to allocate the claimed
// size.
const MaxRecordSize = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that failed framing validation mid-log (not
// at the tail of the final segment, where truncation is the answer).
var ErrCorrupt = errors.New("wal: corrupt record")

const segPrefix = "wal-"
const segSuffix = ".seg"

func segName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+16+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(segPrefix) : len(segPrefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// listSegments returns the segment sequence numbers in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Stats are cumulative writer counters, exported through the daemon's
// stats endpoints.
type Stats struct {
	Records  uint64 `json:"records"`  // records appended
	Bytes    uint64 `json:"bytes"`    // payload+header bytes appended
	Syncs    uint64 `json:"syncs"`    // explicit sync calls issued
	Rotates  uint64 `json:"rotates"`  // segments sealed
	Segments int    `json:"segments"` // segments currently on disk
}

// sealedSeg is a rotated-out segment: its sequence number and the largest
// timestamp recorded into it, so checkpoints can truncate precisely.
type sealedSeg struct {
	seq   uint64
	maxTS uint64
}

// Writer appends records to the log. Appends must be externally
// serialized per the engine's publish path (the commit sequencer's
// syncing flag already guarantees one head committer at a time); the
// Writer's own mutex additionally serializes appends against Rotate and
// TruncateThrough so checkpoints can run concurrently with commits.
type Writer struct {
	dir  string
	mode SyncMode

	mu     sync.Mutex
	f      segmentFile
	seq    uint64 // current (unsealed) segment
	sealed []sealedSeg
	lastTS uint64 // largest timestamp appended to the current segment
	frame  []byte // header + payload of the record being appended, reused

	statRecords uint64
	statBytes   uint64
	statSyncs   uint64
	statRotates uint64
}

// segmentFile is what the writer needs of its open segment: *os.File, or a
// test's wrapper around one.
type segmentFile interface {
	io.Writer
	Sync() error
	Close() error
	Fd() uintptr
}

// frameKeep bounds the frame buffer a writer holds on to between appends;
// one oversized record must not pin its size for the life of the log.
const frameKeep = 1 << 20

// OpenWriter opens dir for appending. It never appends to an existing
// segment: recovery may have truncated a torn tail, and reusing a file a
// crashed process may still have buffered writes against is not worth the
// saved inode — a fresh segment with the next sequence number is started
// instead. sealedMax carries the per-segment max timestamps the caller
// recovered by scanning (Reader.SegmentMax); segments absent from it are
// treated as unbounded (never truncated until a checkpoint passes
// everything).
func OpenWriter(dir string, mode SyncMode, sealedMax map[uint64]uint64) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, mode: mode}
	next := uint64(1)
	for _, s := range seqs {
		max, ok := sealedMax[s]
		if !ok {
			max = ^uint64(0)
		}
		w.sealed = append(w.sealed, sealedSeg{seq: s, maxTS: max})
		if s >= next {
			next = s + 1
		}
	}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment creates segment seq and makes its directory entry durable.
func (w *Writer) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	w.f = f
	w.seq = seq
	w.lastTS = 0
	return nil
}

// Append writes one record and, unless the mode is SyncNone, makes it
// durable before returning. ts is the largest timestamp the payload
// covers (the last commit of the group; 0 for untimestamped records) and
// feeds segment truncation bookkeeping.
func (w *Writer) Append(payload []byte, ts uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("wal: writer is closed")
	}
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	// Header and payload go out in one write: one syscall before the sync.
	frame := binary.LittleEndian.AppendUint32(w.frame[:0], uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	if cap(frame) <= frameKeep {
		w.frame = frame
	} else {
		w.frame = nil
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	if ts > w.lastTS {
		w.lastTS = ts
	}
	w.statRecords++
	w.statBytes += uint64(headerSize + len(payload))
	return w.syncLocked()
}

// syncLocked makes appended bytes durable per the writer's mode.
func (w *Writer) syncLocked() error {
	if w.mode == SyncNone {
		return nil
	}
	w.statSyncs++
	return fdatasync(w.f)
}

// Rotate seals the current segment and starts the next one. Records
// appended after Rotate returns land in the new segment.
func (w *Writer) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("wal: writer is closed")
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, sealedSeg{seq: w.seq, maxTS: w.lastTS})
	w.statRotates++
	return w.openSegment(w.seq + 1)
}

// TruncateThrough deletes sealed segments whose every record carries a
// timestamp <= ts (i.e. segments a checkpoint at ts fully covers),
// returning how many were removed. The live segment is never deleted.
func (w *Writer) TruncateThrough(ts uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.sealed[:0]
	removed := 0
	for _, s := range w.sealed {
		if s.maxTS <= ts {
			if err := os.Remove(filepath.Join(w.dir, segName(s.seq))); err != nil && !os.IsNotExist(err) {
				// Keep the entry; a later checkpoint retries.
				kept = append(kept, s)
				continue
			}
			removed++
			continue
		}
		kept = append(kept, s)
	}
	w.sealed = kept
	if removed > 0 {
		if err := syncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Stats returns a snapshot of the writer's counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Records:  w.statRecords,
		Bytes:    w.statBytes,
		Syncs:    w.statSyncs,
		Rotates:  w.statRotates,
		Segments: len(w.sealed) + 1,
	}
}

// Close syncs and closes the live segment.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ---------------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------------

// Record is one decoded log record.
type Record struct {
	Seq     uint64 // segment the record was read from
	Payload []byte // aliases the reader's buffer until the next Next call
}

// Reader iterates the records of a log directory in append order. It
// implements the torn-tail contract: iteration stops at the first invalid
// frame; Err reports ErrCorrupt only when the bad frame was not at the
// tail of the final segment (a mid-log gap, which recovery must refuse to
// read past), and nil for a clean end or a truncatable tail.
type Reader struct {
	dir  string
	seqs []uint64
	cur  int
	f    *os.File
	off  int64 // offset of the next unread frame in the current segment
	size int64
	buf  []byte
	hdr  [headerSize]byte

	rec     Record
	err     error
	tornSeq uint64 // segment with a torn tail (0 = none)
	tornOff int64  // offset of the first bad frame in tornSeq
	segMax  map[uint64]uint64
}

// OpenReader opens dir for replay. A missing directory reads as an empty
// log.
func OpenReader(dir string) (*Reader, error) {
	seqs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			seqs = nil
		} else {
			return nil, err
		}
	}
	return &Reader{dir: dir, seqs: seqs, segMax: make(map[uint64]uint64)}, nil
}

// Next advances to the next record, returning false at the end of the
// readable prefix. After false, Err distinguishes a clean end from a
// mid-log gap.
func (r *Reader) Next() bool {
	for {
		if r.err != nil {
			return false
		}
		if r.f == nil {
			if r.cur >= len(r.seqs) {
				return false
			}
			f, err := os.Open(filepath.Join(r.dir, segName(r.seqs[r.cur])))
			if err != nil {
				r.err = err
				return false
			}
			st, err := f.Stat()
			if err != nil {
				f.Close()
				r.err = err
				return false
			}
			r.f, r.off, r.size = f, 0, st.Size()
			// Seed the segment's max-timestamp entry so SegmentMax covers
			// segments whose records carry no timestamps (or none at all):
			// absent entries read as unbounded to OpenWriter and would
			// never be truncated.
			if _, ok := r.segMax[r.seqs[r.cur]]; !ok {
				r.segMax[r.seqs[r.cur]] = 0
			}
		}
		if rec, ok := r.readFrame(); ok {
			r.rec = rec
			return true
		}
		if r.err != nil || r.tornSeq != 0 {
			return false
		}
		// Clean end of this segment: move on.
		r.f.Close()
		r.f = nil
		r.cur++
	}
}

// readFrame reads one frame at r.off. ok=false with r.err==nil and
// tornSeq==0 means clean end-of-segment; tornSeq!=0 flags a bad frame.
func (r *Reader) readFrame() (Record, bool) {
	seq := r.seqs[r.cur]
	if r.off == r.size {
		return Record{}, false
	}
	bad := func() (Record, bool) {
		r.tornSeq, r.tornOff = seq, r.off
		if r.cur != len(r.seqs)-1 {
			// A gap strictly inside the log: nothing after it may apply.
			r.err = fmt.Errorf("%w: segment %d offset %d is not the log tail", ErrCorrupt, seq, r.off)
		}
		return Record{}, false
	}
	if r.size-r.off < headerSize {
		return bad()
	}
	if _, err := r.f.ReadAt(r.hdr[:], r.off); err != nil {
		r.err = err
		return Record{}, false
	}
	n := int64(binary.LittleEndian.Uint32(r.hdr[0:4]))
	crc := binary.LittleEndian.Uint32(r.hdr[4:8])
	if n > MaxRecordSize || r.size-r.off-headerSize < n {
		return bad()
	}
	if int64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	if _, err := io.ReadFull(io.NewSectionReader(r.f, r.off+headerSize, n), buf); err != nil {
		r.err = err
		return Record{}, false
	}
	if crc32.Checksum(buf, castagnoli) != crc {
		return bad()
	}
	r.off += headerSize + n
	return Record{Seq: seq, Payload: buf}, true
}

// Record returns the current record after a true Next.
func (r *Reader) Record() Record { return r.rec }

// NoteTS records ts as seen in the current record, maintaining the
// per-segment maximum the caller hands back to OpenWriter for truncation
// bookkeeping. The reader cannot do this itself: payloads are opaque.
func (r *Reader) NoteTS(ts uint64) {
	if ts > r.segMax[r.rec.Seq] {
		r.segMax[r.rec.Seq] = ts
	}
}

// SegmentMax returns the per-segment maximum timestamps accumulated via
// NoteTS during replay.
func (r *Reader) SegmentMax() map[uint64]uint64 { return r.segMax }

// Err returns the terminal error: nil after a clean end or a truncatable
// torn tail, ErrCorrupt (wrapped) for a mid-log gap, or an I/O error.
func (r *Reader) Err() error { return r.err }

// Torn reports whether iteration stopped at an invalid tail frame of the
// final segment, and where.
func (r *Reader) Torn() (seq uint64, off int64, torn bool) {
	return r.tornSeq, r.tornOff, r.tornSeq != 0 && r.err == nil
}

// Close closes the reader.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// TruncateTorn physically truncates the torn tail the reader stopped at,
// so the gap cannot shadow records a future writer appends after it. Call
// after replay, before opening a Writer on the same directory.
func (r *Reader) TruncateTorn() error {
	seq, off, torn := r.Torn()
	if !torn {
		return nil
	}
	path := filepath.Join(r.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ---------------------------------------------------------------------------
// Atomic snapshot files (checkpoints, markers).
// ---------------------------------------------------------------------------

// WriteFileAtomic durably writes payload (CRC-framed like a log record) to
// path via a temp file + fsync + rename + directory fsync, so a crash at
// any point leaves either the old file or the new one, never a torn mix.
func WriteFileAtomic(path string, payload []byte) error {
	fw, err := CreateFileAtomic(path)
	if err != nil {
		return err
	}
	if _, err := fw.Write(payload); err != nil {
		fw.Abort()
		return err
	}
	return fw.Commit()
}

// FileWriter streams an atomically-installed, CRC-framed file: bytes are
// written to a temp file behind a buffer while a running CRC accumulates,
// and Commit patches the frame header (length + checksum), fsyncs, renames
// into place, and fsyncs the directory. The caller never materializes the
// whole payload: a multi-gigabyte checkpoint streams through a fixed-size
// buffer. A crash at any point leaves either the old file or the new one.
// The result is readable by ReadFileChecked.
type FileWriter struct {
	path string
	tmp  *os.File
	bw   *bufio.Writer
	crc  uint32
	n    int64
	err  error
}

// CreateFileAtomic opens a streaming writer that will atomically replace
// path on Commit.
func CreateFileAtomic(path string) (*FileWriter, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	w := &FileWriter{path: path, tmp: tmp, bw: bufio.NewWriterSize(tmp, 1<<16)}
	var hdr [headerSize]byte // placeholder, patched by Commit
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.Abort()
		return nil, err
	}
	return w, nil
}

// Write appends p to the streamed payload.
func (w *FileWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.bw.Write(p)
	w.crc = crc32.Update(w.crc, castagnoli, p[:n])
	w.n += int64(n)
	if err != nil {
		w.err = err
	}
	return n, err
}

// Count returns the number of payload bytes written so far.
func (w *FileWriter) Count() int64 { return w.n }

// Commit seals the frame and atomically installs the file at its path.
// The writer is unusable afterwards.
func (w *FileWriter) Commit() error {
	if w.err != nil {
		w.Abort()
		return w.err
	}
	if w.n > int64(^uint32(0)) {
		w.Abort()
		return fmt.Errorf("wal: %s: %d-byte payload exceeds frame limit", w.path, w.n)
	}
	name := w.tmp.Name()
	err := w.bw.Flush()
	if err == nil {
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(w.n))
		binary.LittleEndian.PutUint32(hdr[4:8], w.crc)
		_, err = w.tmp.WriteAt(hdr[:], 0)
	}
	if err == nil {
		err = w.tmp.Sync()
	}
	if cerr := w.tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, w.path)
	}
	if err != nil {
		os.Remove(name)
		w.err = err
		w.tmp = nil
		return err
	}
	w.tmp = nil
	return syncDir(filepath.Dir(w.path))
}

// Abort discards the temp file. Safe to call after a failed Commit.
func (w *FileWriter) Abort() {
	if w.tmp != nil {
		name := w.tmp.Name()
		w.tmp.Close()
		os.Remove(name)
		w.tmp = nil
	}
	if w.err == nil {
		w.err = errors.New("wal: file writer aborted")
	}
}

// ReadFileChecked reads a file written by WriteFileAtomic, validating its
// frame; a failed check returns ErrCorrupt.
func ReadFileChecked(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: %s: short header", ErrCorrupt, path)
	}
	n := int64(binary.LittleEndian.Uint32(b[0:4]))
	crc := binary.LittleEndian.Uint32(b[4:8])
	if n != int64(len(b)-headerSize) {
		return nil, fmt.Errorf("%w: %s: length mismatch", ErrCorrupt, path)
	}
	payload := b[headerSize:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, path)
	}
	return payload, nil
}
