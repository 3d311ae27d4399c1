package db

// Durability: the write-ahead log threaded through the commit sequencer's
// publish path, periodic checkpoints, and crash recovery.
//
// The layering exploits a structural gift of the pipelined commit path:
// the sequencer already drains applied commits in contiguous,
// timestamp-ordered groups, and exactly one head committer publishes each
// group. That group is the WAL unit — one CRC-framed record per publish
// group, one fsync per record (group commit), issued by the head committer
// *before* the visibility watermark advances. Durability therefore
// strictly precedes visibility: anything a reader, the invalidation bus,
// or a cache node ever observed is on disk, and a crash can only lose a
// suffix of unacknowledged commits. Non-head committers block on the
// watermark as before, so a burst of N commits still pays one sync.
//
// Checkpoints bound replay: rotate the log, pin the published watermark,
// serialize every table at that snapshot (schema, row versions visible at
// the pin, id allocators) into an atomically-written snapshot file, then
// delete the log segments the snapshot covers. Recovery loads the newest
// valid snapshot, replays the remaining log (skipping commits at or below
// the snapshot), stops at the first torn or corrupt record — never
// applying anything past a gap — truncates the torn tail, and rebuilds
// index trees by bulk load. See DESIGN.md "Durability & recovery".

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"txcache/internal/interval"
	"txcache/internal/mvcc"
	"txcache/internal/sql"
	"txcache/internal/wal"
	"txcache/internal/wire"
)

// DurabilityOptions configures the engine's write-ahead logging. Zero
// values select the defaults noted per field.
type DurabilityOptions struct {
	// Dir is the data directory holding log segments, checkpoint
	// snapshots, and the clean-shutdown marker. Required.
	Dir string
	// Sync is how each commit group's log append is made durable. Every
	// deployment runs the zero value, wal.SyncFdatasync: one fdatasync per
	// group. Tests set wal.SyncNone to skip the flush.
	Sync wal.SyncMode
	// CheckpointBytes triggers an automatic checkpoint once that many log
	// bytes have been appended since the last one. 0 selects the default
	// (16 MiB); negative disables automatic checkpoints (callers then run
	// Checkpoint themselves, as tests do).
	CheckpointBytes int64
}

const defaultCheckpointBytes = 16 << 20

// ckptBatchBytes bounds how many snapshot bytes the checkpoint encoder
// stages per table-lock acquisition. Between batches the lock is released,
// so a commit to the table being checkpointed waits at most one batch's
// encode time (tens of microseconds), not the full table scan. The pinned
// snapshot timestamp makes the release sound: every version visible at
// ckptTS stays reachable (vacuum respects the pin), and visibility at a
// fixed timestamp is insensitive to commits that land between batches.
const ckptBatchBytes = 64 << 10

// WAL record types (first payload byte).
const (
	recCommitGroup byte = 1
	recDDL         byte = 2
)

// Commit-payload op kinds, matching the transaction write ops.
const (
	walOpInsert byte = 'I'
	walOpUpdate byte = 'U'
	walOpDelete byte = 'D'
)

// Snapshot / marker file naming.
//
// Snapshot format v2 (framed by wal.ReadFileChecked's length+CRC header):
//
//	u8 version | u64 snapshot ts | u32 nTables
//	nTables back-to-back table sections (schema, indexes, next-id, rows;
//	  rows run to the end of the section — no row count)
//	footer: nTables × u64 section byte lengths
//
// The section lengths live in a *footer* rather than per-section headers so
// the encoder can stream each section straight into the checkpoint file —
// patching a length back into already-written bytes would invalidate the
// file writer's running CRC. The footer is what lets recovery slice the
// payload into independent sections and decode them concurrently.
const (
	ckptPrefix  = "ckpt-"
	ckptSuffix  = ".snap"
	cleanMarker = "clean"
	snapVersion = 2
)

func ckptName(ts interval.Timestamp) string {
	return fmt.Sprintf("%s%016d%s", ckptPrefix, uint64(ts), ckptSuffix)
}

func parseCkptName(name string) (interval.Timestamp, bool) {
	if len(name) != len(ckptPrefix)+16+len(ckptSuffix) ||
		!strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	var ts uint64
	for _, c := range name[len(ckptPrefix) : len(ckptPrefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		ts = ts*10 + uint64(c-'0')
	}
	return interval.Timestamp(ts), true
}

// RecoveryInfo reports what boot-time recovery did.
type RecoveryInfo struct {
	CheckpointTS    interval.Timestamp `json:"checkpointTS"`    // snapshot the engine restored from (0: none)
	RecoveredTS     interval.Timestamp `json:"recoveredTS"`     // consistent timestamp the engine recovered to
	Records         int                `json:"records"`         // log records read
	CommitsReplayed int                `json:"commitsReplayed"` // commits applied from the log
	DDLReplayed     int                `json:"ddlReplayed"`     // DDL records applied from the log
	TornTail        bool               `json:"tornTail"`        // the final record was torn and truncated
	CleanBoot       bool               `json:"cleanBoot"`       // a clean-shutdown marker matched the recovered state
}

// DurabilityStats snapshots WAL and checkpoint counters for the daemon's
// stats surfaces.
type DurabilityStats struct {
	Enabled        bool      `json:"enabled"`
	WAL            wal.Stats `json:"wal"`
	Groups         uint64    `json:"groups"`         // group records appended
	GroupedCommits uint64    `json:"groupedCommits"` // commits covered by them (avg group size = GroupedCommits/Groups)
	Checkpoints    uint64    `json:"checkpoints"`
	// CheckpointErrors counts failed checkpoint passes and
	// LastCheckpointError holds the most recent failure, so a dying
	// auto-checkpoint loop (disk full, permissions) is visible on /statsz
	// and in the daemon's status file instead of only on stderr.
	CheckpointErrors    uint64       `json:"checkpointErrors"`
	LastCheckpointError string       `json:"lastCheckpointError,omitempty"`
	Recovery            RecoveryInfo `json:"recovery"`
}

// durState is the engine's durability runtime.
type durState struct {
	dir       string
	w         *wal.Writer
	ckptBytes int64 // auto-checkpoint threshold; 0 = manual only

	ckptMu    sync.Mutex // serializes checkpoints
	sinceCkpt atomic.Int64
	ckptGate  atomic.Bool // one spawned auto pass at a time
	closed    atomic.Bool

	// gate quiesces the write path for Close: every durable Commit (and
	// DDL) holds it shared across its WAL append; Close stores closed and
	// then takes it exclusively, which waits out in-flight appends and
	// turns every later write into ErrClosed — the writer is never closed
	// under a commit still counting on it.
	gate sync.RWMutex

	recovery RecoveryInfo

	statGroups       atomic.Uint64
	statGroupCommits atomic.Uint64
	statCheckpoints  atomic.Uint64
	statCkptErrs     atomic.Uint64

	ckptErrMu   sync.Mutex // guards lastCkptErr
	lastCkptErr string

	// Checkpoint-encoder scratch, reused across passes (serialized by
	// ckptMu): the staging buffer for one lock-hold batch.
	ckptBuf []byte
}

// noteCkptErr records a failed checkpoint pass for the stats surfaces.
func (d *durState) noteCkptErr(err error) {
	d.statCkptErrs.Add(1)
	d.ckptErrMu.Lock()
	d.lastCkptErr = err.Error()
	d.ckptErrMu.Unlock()
}

// DurabilityStats returns the durability counters; Enabled is false for a
// pure in-memory engine.
func (e *Engine) DurabilityStats() DurabilityStats {
	if e.dur == nil {
		return DurabilityStats{}
	}
	e.dur.ckptErrMu.Lock()
	lastErr := e.dur.lastCkptErr
	e.dur.ckptErrMu.Unlock()
	return DurabilityStats{
		Enabled:             true,
		WAL:                 e.dur.w.Stats(),
		Groups:              e.dur.statGroups.Load(),
		GroupedCommits:      e.dur.statGroupCommits.Load(),
		Checkpoints:         e.dur.statCheckpoints.Load(),
		CheckpointErrors:    e.dur.statCkptErrs.Load(),
		LastCheckpointError: lastErr,
		Recovery:            e.dur.recovery,
	}
}

// ---------------------------------------------------------------------------
// Payload encoding. Little-endian and append-based; wire.Decoder reads it
// back. A row is a sql.Row, which is already its own encoding (DESIGN.md
// "Row format"): the log and the snapshot carry its bytes as they are.
// ---------------------------------------------------------------------------

// walSectionStart opens a per-table section in the transaction's commit
// payload (called from Tx.Commit's apply loop), reserving the byte-length
// and op-count slots; walSectionEnd patches both. The byte length is what
// lets recovery slice a commit into per-table op streams in O(1) and hand
// them to replay workers without decoding ops on the dispatch path.
func walSectionStart(b []byte, table string) ([]byte, int) {
	b = wire.AppendStr(b, table)
	fix := len(b)
	return append(b, 0, 0, 0, 0, 0, 0, 0, 0), fix // u32 byte length of the ops, u32 op count
}

func walSectionEnd(b []byte, fix int, n int) []byte {
	binary.LittleEndian.PutUint32(b[fix:fix+4], uint32(len(b)-(fix+8)))
	binary.LittleEndian.PutUint32(b[fix+4:fix+8], uint32(n))
	return b
}

// walOp appends one op of a section: its kind, the row id and, unless it is
// a delete (whose row is empty), the row.
func walOp(b []byte, op byte, id mvcc.RowID, row sql.Row) []byte {
	b = binary.LittleEndian.AppendUint64(append(b, op), uint64(id))
	return append(b, row...)
}

// walAppendGroup appends one commit-group record (assembled by the head
// committer) and makes it durable. rec covers commits up to watermark w,
// n of them. A sync failure is a durability violation the engine cannot
// recover from mid-flight — it panics, like every WAL-ahead database
// (continuing would acknowledge commits the disk never saw).
func (e *Engine) walAppendGroup(rec []byte, w uint64, n int) {
	d := e.dur
	if err := d.w.Append(rec, w); err != nil {
		panic(fmt.Sprintf("db: WAL append failed, cannot guarantee durability: %v", err))
	}
	d.statGroups.Add(1)
	d.statGroupCommits.Add(uint64(n))
	if d.ckptBytes > 0 && d.sinceCkpt.Add(int64(len(rec))) >= d.ckptBytes &&
		d.ckptGate.CompareAndSwap(false, true) {
		go func() {
			defer d.ckptGate.Store(false)
			if err := e.Checkpoint(); err != nil && !d.closed.Load() {
				// Auto-checkpoints are advisory; the log keeps growing and
				// the next threshold crossing retries.
				fmt.Fprintf(os.Stderr, "db: auto-checkpoint: %v\n", err)
			}
		}()
	}
}

// walAppendDDL logs one DDL statement. Called with catMu held exclusively,
// after the statement applied; commits against the new table cannot start
// (name resolution needs catMu) until this record is durable.
func (e *Engine) walAppendDDL(src string) error {
	rec := wire.AppendStr([]byte{recDDL}, src)
	if err := e.dur.w.Append(rec, uint64(e.LastCommit())); err != nil {
		return fmt.Errorf("db: WAL append of DDL failed: %w", err)
	}
	e.dur.sinceCkpt.Add(int64(len(rec)))
	return nil
}

// ---------------------------------------------------------------------------
// Checkpoints.
// ---------------------------------------------------------------------------

// Checkpoint writes a consistent snapshot of the engine and truncates the
// log prefix it covers. Safe to run concurrently with commits: the
// snapshot timestamp is pinned (so vacuum cannot reclaim versions visible
// to it mid-scan) and tables are serialized one at a time under shared
// locks. No-op on a non-durable engine.
func (e *Engine) Checkpoint() error {
	if e.dur == nil {
		return nil
	}
	e.dur.ckptMu.Lock()
	defer e.dur.ckptMu.Unlock()
	if e.dur.closed.Load() {
		// Close runs its own final pass (checkpointLocked) and then closes
		// the writer; a pass slipping in after that would rotate a closed
		// log.
		return ErrClosed
	}
	return e.checkpointLocked()
}

// checkpointLocked is the checkpoint body; caller holds ckptMu. A failed
// pass is recorded in the checkpoint-error counters before returning.
func (e *Engine) checkpointLocked() error {
	err := e.checkpointPass()
	if err != nil {
		e.dur.noteCkptErr(err)
	}
	return err
}

func (e *Engine) checkpointPass() error {
	// Rotate first: every record of the sealed segments carries a
	// timestamp at or below any watermark pinned after this point, so
	// truncation below can delete them the moment the snapshot is durable.
	if err := e.dur.w.Rotate(); err != nil {
		return fmt.Errorf("db: checkpoint rotate: %w", err)
	}
	e.dur.sinceCkpt.Store(0)
	ckptTS, _ := e.PinLatest()
	defer e.Unpin(ckptTS)
	path := filepath.Join(e.dur.dir, ckptName(ckptTS))
	if err := e.writeSnapshot(path, ckptTS); err != nil {
		return fmt.Errorf("db: checkpoint write: %w", err)
	}
	// The snapshot is durable: drop covered segments and older snapshots.
	if _, err := e.dur.w.TruncateThrough(uint64(ckptTS)); err != nil {
		return fmt.Errorf("db: checkpoint truncate: %w", err)
	}
	ents, err := os.ReadDir(e.dur.dir)
	if err == nil {
		for _, ent := range ents {
			if ts, ok := parseCkptName(ent.Name()); ok && ts < ckptTS {
				os.Remove(filepath.Join(e.dur.dir, ent.Name()))
			}
		}
	}
	e.dur.statCheckpoints.Add(1)
	return nil
}

// writeSnapshot streams a consistent snapshot of the engine at ts to path:
// schema, id allocators, and for every row the version visible at ts (with
// its original creation timestamp; versions deleted after ts are recorded
// as unbounded — the deleting commit is above ts, so replay re-bounds
// them). Memory stays bounded by one staging batch (~ckptBatchBytes) no
// matter how large the database is, and no table lock is held for longer
// than one batch's encode.
func (e *Engine) writeSnapshot(path string, ts interval.Timestamp) error {
	e.catMu.RLock()
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	tabs := make([]*Table, 0, len(names))
	for _, name := range names {
		tabs = append(tabs, e.tables[name])
	}
	e.catMu.RUnlock()

	fw, err := wal.CreateFileAtomic(path)
	if err != nil {
		return err
	}
	defer fw.Abort() // no-op once Commit succeeds

	b := e.dur.ckptBuf[:0]
	b = append(b, snapVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(ts))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tabs)))
	if _, err := fw.Write(b); err != nil {
		return err
	}
	secLens := make([]uint64, 0, len(tabs))
	for _, t := range tabs {
		n, err := e.writeTableSection(fw, t, ts)
		if err != nil {
			return err
		}
		secLens = append(secLens, uint64(n))
	}
	b = e.dur.ckptBuf[:0]
	for _, n := range secLens {
		b = binary.LittleEndian.AppendUint64(b, n)
	}
	e.dur.ckptBuf = b
	if _, err := fw.Write(b); err != nil {
		return err
	}
	return fw.Commit()
}

// writeTableSection streams one table's snapshot section, returning its
// byte length. The table lock is taken per batch: schema plus the first
// ~ckptBatchBytes of rows under the first hold, then released and
// re-acquired per batch while the staged bytes are flushed to the file.
// The row set is the ids below the allocator value read under the first
// hold, walked in ascending order from a cursor that outlives the unlocked
// writes (see mvcc.Store.ScanFrom); each row's visible-at-ts version is
// resolved under whichever hold reaches it, which is sound because ts is
// pinned and ids are never reused.
func (e *Engine) writeTableSection(fw *wal.FileWriter, t *Table, ts interval.Timestamp) (int64, error) {
	start := fw.Count()
	b := e.dur.ckptBuf[:0]
	t.mu.RLock()
	b = wire.AppendStr(b, t.name)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.cols)))
	for _, c := range t.cols {
		b = wire.AppendStr(b, c.Name)
		b = append(b, byte(c.Type))
		var flags byte
		if c.Primary {
			flags |= 1
		}
		if c.NotNull {
			flags |= 2
		}
		b = append(b, flags)
	}
	// Secondary indexes; the primary-key index is implied by the
	// schema and re-attached by newTable on restore.
	fixIdx := len(b)
	b = append(b, 0, 0, 0, 0) // u32 index count, patched below
	nIdx := 0
	for _, idx := range t.idxList {
		if t.primary != "" && idx.column == t.primary {
			continue
		}
		b = wire.AppendStr(b, idx.name)
		b = wire.AppendStr(b, idx.column)
		if idx.unique {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		nIdx++
	}
	binary.LittleEndian.PutUint32(b[fixIdx:fixIdx+4], uint32(nIdx))
	end := t.store.NextID()
	b = binary.LittleEndian.AppendUint64(b, uint64(end))
	for next, more := mvcc.RowID(0), true; more; {
		more = false
		t.store.ScanFrom(next, func(id mvcc.RowID, _ []mvcc.Version) bool {
			if id >= end {
				return false
			}
			if v, ok := t.store.VisibleAt(id, ts); ok {
				b = binary.LittleEndian.AppendUint64(b, uint64(id))
				b = binary.LittleEndian.AppendUint64(b, uint64(v.Created))
				b = append(b, v.Data.(sql.Row)...)
			}
			next = id + 1
			more = len(b) >= ckptBatchBytes
			return !more
		})
		t.mu.RUnlock()
		_, err := fw.Write(b)
		b = b[:0]
		if err != nil {
			e.dur.ckptBuf = b
			return 0, err
		}
		if more {
			t.mu.RLock()
		}
	}
	e.dur.ckptBuf = b
	return fw.Count() - start, nil
}

// restoreSnapshot rebuilds catalog and row stores from a snapshot payload,
// decoding table sections across workers goroutines when workers > 1.
// Recovery-only: runs before the engine serves traffic.
func (e *Engine) restoreSnapshot(payload []byte, workers int) (interval.Timestamp, error) {
	ts, secs, err := splitSnapshot(payload)
	if err != nil {
		return 0, fmt.Errorf("db: snapshot decode: %w", err)
	}
	tables := make([]*Table, len(secs))
	errs := make([]error, len(secs))
	forEachParallel(len(secs), workers, func(i int) {
		tables[i], errs[i] = decodeTableSection(secs[i])
	})
	for i, t := range tables {
		if errs[i] != nil {
			return 0, errs[i]
		}
		e.tables[t.name] = t
	}
	return ts, nil
}

// splitSnapshot slices a snapshot payload into its timestamp and per-table
// sections via the length footer: what lies between the header and the
// footer is the sections back to back.
func splitSnapshot(payload []byte) (interval.Timestamp, [][]byte, error) {
	d := wire.NewDecoder(payload)
	if v := d.U8(); v != snapVersion {
		return 0, nil, fmt.Errorf("version %d unsupported", v)
	}
	ts := interval.Timestamp(d.U64())
	nTables := int(d.U32())
	// Take refuses a length that is negative or past the end, so a table
	// count or a section length the payload cannot back fails here.
	sd := wire.NewDecoder(d.Take(d.Len() - nTables*8))
	if d.Err() != nil {
		return 0, nil, d.Err()
	}
	secs := make([][]byte, nTables)
	for i := range secs {
		secs[i] = sd.Take(int(d.U64()))
	}
	if sd.Err() != nil {
		return 0, nil, sd.Err()
	}
	if sd.Len() != 0 {
		return 0, nil, fmt.Errorf("%d trailing bytes", sd.Len())
	}
	return ts, secs, nil
}

// forEachParallel calls fn(0..n-1), spread over up to workers goroutines
// (inline when that is one), and returns when every call has.
func forEachParallel(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// decodeTableSection rebuilds one table from its snapshot section. Rows
// run to the end of the section.
func decodeTableSection(sec []byte) (*Table, error) {
	d := wire.NewDecoder(sec)
	ct := &sql.CreateTable{Name: d.Str()}
	nCols := int(d.U32())
	for c := 0; c < nCols && d.Err() == nil; c++ {
		col := sql.ColDef{Name: d.Str(), Type: sql.ColType(d.U8())}
		flags := d.U8()
		col.Primary = flags&1 != 0
		col.NotNull = flags&2 != 0
		ct.Cols = append(ct.Cols, col)
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("db: snapshot decode: %w", d.Err())
	}
	t, err := newTable(ct)
	if err != nil {
		return nil, fmt.Errorf("db: snapshot table %q: %w", ct.Name, err)
	}
	nIdx := int(d.U32())
	for x := 0; x < nIdx && d.Err() == nil; x++ {
		ci := &sql.CreateIndex{Name: d.Str(), Table: ct.Name, Column: d.Str(), Unique: d.U8() == 1}
		if d.Err() != nil {
			break
		}
		if err := t.addIndex(ci); err != nil {
			return nil, fmt.Errorf("db: snapshot index %q: %w", ci.Name, err)
		}
	}
	t.store.EnsureNextID(mvcc.RowID(d.U64()))
	for d.Err() == nil && d.Len() > 0 {
		id := mvcc.RowID(d.U64())
		created := interval.Timestamp(d.U64())
		row := sql.DecodeRow(d)
		if d.Err() != nil {
			break
		}
		if err := t.checkStored(id, row); err != nil {
			return nil, err
		}
		if !t.store.RestoreInsert(id, row, created) {
			return nil, fmt.Errorf("db: snapshot row %d of %q duplicated", id, ct.Name)
		}
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("db: snapshot decode: %w", d.Err())
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Boot-time recovery.
// ---------------------------------------------------------------------------

// Open creates an engine like New and, when opts.Durability is set,
// recovers it from the data directory (newest valid checkpoint plus log
// replay to the last whole commit group) and opens the log for appending.
// The returned RecoveryInfo describes what recovery found; it is also
// retained for DurabilityStats. Recovery runs GOMAXPROCS wide: snapshot
// table sections decode concurrently, logged commits are partitioned by
// table across a worker pool, and the post-replay derived-state rebuild
// (index trees + row counts) runs one table per worker.
func Open(opts Options) (*Engine, RecoveryInfo, error) {
	return open(opts, runtime.GOMAXPROCS(0))
}

// open is Open with the recovery parallelism given. One worker is the serial
// path, the reference TestReplayEquivalence holds the parallel one to.
func open(opts Options, workers int) (*Engine, RecoveryInfo, error) {
	dopts := opts.Durability
	opts.Durability = nil
	e := New(opts)
	if dopts == nil {
		return e, RecoveryInfo{}, nil
	}
	if dopts.Dir == "" {
		return nil, RecoveryInfo{}, errors.New("db: DurabilityOptions.Dir is required")
	}
	if err := os.MkdirAll(dopts.Dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, err
	}
	info, segMax, err := e.recover(dopts.Dir, workers)
	if err != nil {
		return nil, info, err
	}
	ckptBytes := dopts.CheckpointBytes
	switch {
	case ckptBytes == 0:
		ckptBytes = defaultCheckpointBytes
	case ckptBytes < 0:
		ckptBytes = 0
	}
	w, err := wal.OpenWriter(dopts.Dir, dopts.Sync, segMax)
	if err != nil {
		return nil, info, fmt.Errorf("db: open WAL: %w", err)
	}
	e.dur = &durState{dir: dopts.Dir, w: w, ckptBytes: ckptBytes, recovery: info}
	return e, info, nil
}

// recover restores the engine's state from dir: newest valid checkpoint,
// then log replay, both parallelized across workers goroutines (snapshot
// sections decode concurrently; logged commits are partitioned by table).
// Returns the per-segment max timestamps observed, for the writer's
// truncation bookkeeping.
func (e *Engine) recover(dir string, workers int) (RecoveryInfo, map[uint64]uint64, error) {
	var info RecoveryInfo

	// Clean-shutdown marker: consumed (best-effort removed) every boot; a
	// stale marker left by a later crash is harmless because CleanBoot is
	// only reported when the marker matches the state we actually
	// recover. (See Close for the write side.)
	var markerTS interval.Timestamp
	markerSeen := false
	if b, err := wal.ReadFileChecked(filepath.Join(dir, cleanMarker)); err == nil && len(b) == 8 {
		markerTS = interval.Timestamp(wire.NewDecoder(b).U64())
		markerSeen = true
	}
	os.Remove(filepath.Join(dir, cleanMarker))

	// Newest valid checkpoint wins; an invalid one (torn by a crash that
	// beat the atomic-rename discipline, or bit-rotted) falls back to the
	// next older, and ultimately to full-log replay.
	ents, err := os.ReadDir(dir)
	if err != nil {
		return info, nil, err
	}
	var ckpts []interval.Timestamp
	for _, ent := range ents {
		if ts, ok := parseCkptName(ent.Name()); ok {
			ckpts = append(ckpts, ts)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	for _, ts := range ckpts {
		payload, err := wal.ReadFileChecked(filepath.Join(dir, ckptName(ts)))
		if err != nil {
			continue
		}
		restored, err := e.restoreSnapshot(payload, workers)
		if err != nil {
			// A decodable-but-inconsistent snapshot may have half-applied:
			// rebuild from scratch before trying an older one.
			e.tables = make(map[string]*Table)
			continue
		}
		info.CheckpointTS = restored
		break
	}

	// Replay the log to the last whole record, skipping commits the
	// checkpoint already covers. The dispatcher decodes record framing and
	// hands per-table op streams to the replayer's worker pool.
	r, err := wal.OpenReader(dir)
	if err != nil {
		return info, nil, err
	}
	defer r.Close()
	rp := newWALReplayer(e, info.CheckpointTS, workers)
	recovered := info.CheckpointTS
	replayErr := func() error {
		for r.Next() {
			rec := r.Record()
			maxTS, commits, ddl, err := rp.replayRecord(rec.Payload)
			if err != nil {
				return fmt.Errorf("db: replay (segment %d): %w", rec.Seq, err)
			}
			r.NoteTS(uint64(maxTS))
			if maxTS > recovered {
				recovered = maxTS
			}
			info.Records++
			info.CommitsReplayed += commits
			info.DDLReplayed += ddl
		}
		return nil
	}()
	if err := rp.close(); replayErr == nil && err != nil {
		replayErr = fmt.Errorf("db: replay: %w", err)
	}
	if replayErr != nil {
		return info, nil, replayErr
	}
	if err := r.Err(); err != nil {
		return info, nil, fmt.Errorf("db: replay: %w", err)
	}
	if _, _, torn := r.Torn(); torn {
		info.TornTail = true
		if err := r.TruncateTorn(); err != nil {
			return info, nil, fmt.Errorf("db: truncate torn tail: %w", err)
		}
	}

	// Seed the timestamp domain at the recovered watermark and rebuild
	// derived state (index trees, live-row counts) by bulk load.
	if recovered < 1 {
		recovered = 1 // timestamp 1 is "the empty database"
	}
	e.seq.init(uint64(recovered))
	e.lastCommit.Store(uint64(recovered))
	e.vacGate.Store(uint64(recovered))
	e.rebuildDerivedAll(workers)
	info.RecoveredTS = recovered
	info.CleanBoot = markerSeen && markerTS == recovered && !info.TornTail
	return info, r.SegmentMax(), nil
}

// walReplayer applies log records during recovery. With workers > 1 it
// partitions commit sections across a worker pool with table→worker
// affinity: all ops for a given table land on the same worker in record
// order, so each table sees its op stream in commit-timestamp order, and
// cross-table interleaving — which the final state is insensitive to —
// is the only thing that runs out of order. Different tables own disjoint
// version stores, so workers never contend. With workers <= 1 everything
// applies inline on the dispatcher, byte-for-byte the serial path (the
// replay-equivalence test compares the two).
type walReplayer struct {
	e      *Engine
	ckptTS interval.Timestamp

	chans  []chan replayTask // nil: serial mode
	wg     sync.WaitGroup
	acks   chan struct{}
	assign map[*Table]int // table → worker affinity
	nextW  int

	bad   atomic.Bool // fast-path "a worker failed" flag
	errMu sync.Mutex
	err   error // first worker failure
}

// replayTask is one per-table unit of replay work; a task with t == nil is
// a barrier marker acknowledged on acks.
type replayTask struct {
	t    *Table
	ts   interval.Timestamp
	ops  []byte // aliases a dispatcher-owned copy of the record
	nOps int
}

func newWALReplayer(e *Engine, ckptTS interval.Timestamp, workers int) *walReplayer {
	rp := &walReplayer{e: e, ckptTS: ckptTS, assign: make(map[*Table]int)}
	if workers > 1 {
		rp.acks = make(chan struct{}, workers)
		for i := 0; i < workers; i++ {
			ch := make(chan replayTask, 128)
			rp.chans = append(rp.chans, ch)
			rp.wg.Add(1)
			go rp.runWorker(ch)
		}
	}
	return rp
}

func (rp *walReplayer) runWorker(ch chan replayTask) {
	defer rp.wg.Done()
	for task := range ch {
		if task.t == nil {
			rp.acks <- struct{}{}
			continue
		}
		if rp.bad.Load() {
			continue // drain without applying after the first failure
		}
		if err := applyTableOps(task.t, task.ops, task.nOps, task.ts); err != nil {
			rp.fail(fmt.Errorf("commit %d: %w", task.ts, err))
		}
	}
}

func (rp *walReplayer) fail(err error) {
	rp.errMu.Lock()
	if rp.err == nil {
		rp.err = err
	}
	rp.errMu.Unlock()
	rp.bad.Store(true)
}

func (rp *walReplayer) takeErr() error {
	if !rp.bad.Load() {
		return nil
	}
	rp.errMu.Lock()
	defer rp.errMu.Unlock()
	return rp.err
}

// barrier blocks until every queued task has been applied. DDL records
// drain the pool this way so a statement like CREATE INDEX (whose backfill
// scans the store) observes every op logged before it.
func (rp *walReplayer) barrier() error {
	for _, ch := range rp.chans {
		ch <- replayTask{}
	}
	for range rp.chans {
		<-rp.acks
	}
	return rp.takeErr()
}

// close shuts the pool down and returns the first worker failure, if any.
func (rp *walReplayer) close() error {
	for _, ch := range rp.chans {
		close(ch)
	}
	rp.wg.Wait()
	return rp.takeErr()
}

// replayRecord decodes one log record and applies (or dispatches) it,
// returning the largest commit timestamp it covers and how many commits /
// DDL statements were applied. Commits at or below the checkpoint are
// decoded but skipped (the snapshot already reflects them).
func (rp *walReplayer) replayRecord(payload []byte) (maxTS interval.Timestamp, commits, ddl int, err error) {
	d := wire.NewDecoder(payload)
	switch typ := d.U8(); typ {
	case recDDL:
		src := d.Str()
		if d.Err() != nil {
			return 0, 0, 0, d.Err()
		}
		if err := rp.barrier(); err != nil {
			return 0, 0, 0, err
		}
		if err := rp.e.replayDDL(src); err != nil {
			return 0, 0, 0, err
		}
		return 0, 0, 1, nil
	case recCommitGroup:
		var stable []byte // one copy per record in parallel mode; tasks alias it
		n := int(d.U32())
		for i := 0; i < n; i++ {
			ts := interval.Timestamp(d.U64())
			body := d.Blob()
			if d.Err() != nil {
				break
			}
			if ts > maxTS {
				maxTS = ts
			}
			if ts <= rp.ckptTS {
				continue
			}
			if rp.chans != nil {
				// The reader's record buffer is reused by the next Next();
				// queued tasks must outlive it.
				if stable == nil {
					stable = append([]byte(nil), payload...)
				}
				end := len(payload) - d.Len()
				body = stable[end-len(body) : end]
			}
			if err := rp.dispatchCommit(body, ts); err != nil {
				return maxTS, commits, ddl, err
			}
			commits++
		}
		return maxTS, commits, ddl, d.Err()
	default:
		if d.Err() != nil {
			// A zero-length payload is framed like any record but has no
			// type byte; refuse it like any other corruption.
			return 0, 0, 0, errors.New("db: empty WAL record payload")
		}
		return 0, 0, 0, fmt.Errorf("db: unknown WAL record type %d", typ)
	}
}

// dispatchCommit splits one commit body into per-table sections (O(1) per
// section via the logged byte length) and applies each inline (serial) or
// queues it on the table's worker (parallel).
func (rp *walReplayer) dispatchCommit(body []byte, ts interval.Timestamp) error {
	d := wire.NewDecoder(body)
	for d.Len() > 0 {
		tname := d.Str()
		blen := int(d.U32())
		nOps := int(d.U32())
		ops := d.Take(blen)
		if d.Err() != nil {
			return fmt.Errorf("commit %d: %w", ts, d.Err())
		}
		t, ok := rp.e.tables[tname]
		if !ok {
			return fmt.Errorf("commit %d: db: log references unknown table %q", ts, tname)
		}
		if rp.chans == nil {
			if err := applyTableOps(t, ops, nOps, ts); err != nil {
				return fmt.Errorf("commit %d: %w", ts, err)
			}
			continue
		}
		if rp.bad.Load() {
			return rp.takeErr()
		}
		w, ok := rp.assign[t]
		if !ok {
			w = rp.nextW % len(rp.chans)
			rp.nextW++
			rp.assign[t] = w
		}
		rp.chans[w] <- replayTask{t: t, ts: ts, ops: ops, nOps: nOps}
	}
	return nil
}

// replayDDL re-executes a logged DDL statement. ErrAlreadyExists is
// tolerated: a statement can legitimately appear both in the restored
// checkpoint's catalog and in a kept log segment (the checkpoint scan runs
// after rotation, so a DDL landing between them is captured twice).
func (e *Engine) replayDDL(src string) error {
	err := e.DDL(src)
	if err == nil || errors.Is(err, ErrAlreadyExists) {
		return nil
	}
	return err
}

// applyTableOps re-applies one table section of a logged commit at its
// original timestamp. Boot-time only, and it takes no lock: the store is
// mutated directly, and what keeps that race-free under parallel replay is
// the walReplayer's table→worker affinity alone — one worker owns a table's
// store for the whole replay, and DDL waits out a barrier. Index trees are
// rebuilt afterwards in one bulk pass.
func applyTableOps(t *Table, ops []byte, nOps int, ts interval.Timestamp) error {
	d := wire.NewDecoder(ops)
	for i := 0; i < nOps; i++ {
		op := d.U8()
		id := mvcc.RowID(d.U64())
		var row sql.Row
		if op != walOpDelete {
			row = sql.DecodeRow(d)
		}
		if d.Err() != nil {
			return d.Err()
		}
		if op != walOpDelete {
			if err := t.checkStored(id, row); err != nil {
				return err
			}
		}
		switch op {
		case walOpInsert:
			if !t.store.RestoreInsert(id, row, ts) {
				return fmt.Errorf("db: replayed insert of existing row %d in %q", id, t.name)
			}
		case walOpUpdate, walOpDelete:
			latest, ok := t.store.Latest(id)
			if !ok || latest.Deleted != interval.Infinity {
				return fmt.Errorf("db: replayed %c of missing row %d in %q", op, id, t.name)
			}
			if op == walOpUpdate {
				t.store.Update(id, row, ts)
			} else {
				t.store.Delete(id, ts)
			}
		default:
			return fmt.Errorf("db: unknown WAL op %q", op)
		}
	}
	return nil
}

// rebuildDerivedAll regenerates every table's derived state (index trees,
// live-row counts), one table per worker.
func (e *Engine) rebuildDerivedAll(workers int) {
	tabs := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		tabs = append(tabs, t)
	}
	forEachParallel(len(tabs), workers, func(i int) { tabs[i].rebuildDerived() })
}

// ---------------------------------------------------------------------------
// Shutdown.
// ---------------------------------------------------------------------------

// Close flushes durability state: a final checkpoint (so the next boot
// restores the snapshot and replays nothing) and a clean-shutdown marker,
// then closes the log. The caller must have stopped serving commits; a
// commit racing Close fails its log append. No-op on a non-durable engine,
// and idempotent.
func (e *Engine) Close() error {
	if e.dur == nil || !e.dur.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Quiesce the write path: wait out every in-flight durable commit and
	// DDL (they hold gate shared across their WAL appends); writes arriving
	// later observe closed and fail with ErrClosed instead of racing the
	// writer teardown below.
	e.dur.gate.Lock()
	e.dur.gate.Unlock() // empty critical section is the barrier
	e.dur.ckptMu.Lock()
	ckptErr := e.checkpointLocked()
	e.dur.ckptMu.Unlock()
	if ckptErr == nil {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(e.LastCommit()))
		ckptErr = wal.WriteFileAtomic(filepath.Join(e.dur.dir, cleanMarker), b[:])
	}
	if err := e.dur.w.Close(); ckptErr == nil {
		ckptErr = err
	}
	return ckptErr
}
