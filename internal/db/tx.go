package db

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/mvcc"
	"txcache/internal/sql"
)

// syntheticBit marks row IDs of rows inserted by the current transaction,
// which exist only in its private write set until commit.
const syntheticBit = uint64(1) << 63

type writeOp byte

const (
	opUpdate writeOp = 'U'
	opDelete writeOp = 'D'
)

// rowWrite is a buffered update or delete of an existing row.
type rowWrite struct {
	op   writeOp
	data sql.Row // opUpdate: the replacement row
}

// insertedRow is a buffered insert, visible to this transaction's own
// statements through the overlay.
type insertedRow struct {
	tempID  uint64 // synthetic id (high bit set)
	data    sql.Row
	deleted bool // inserted then deleted within the same transaction
}

// Result is the answer to one SELECT: rows plus the validity metadata the
// TxCache library attaches to cache entries (paper §5.2–5.3). For
// read/write transactions (which bypass the cache) Validity is empty and
// Tags is nil.
type Result struct {
	// Cols names the output columns. The slice is shared with the
	// statement's cached projection plan (and thus with other Results of
	// the same statement); treat it as read-only.
	Cols []string
	Rows [][]sql.Value
	// Validity is the query's validity interval: the maximal interval
	// containing the snapshot over which re-running the query yields the
	// same rows. Unbounded (Hi == Infinity) means still valid, in which
	// case Tags carry the dependency set for future invalidations, as
	// TagIDs (hashes of the tags: the same IDs in every process, and nothing
	// recovers the string form from one).
	Validity interval.Interval
	Tags     []invalidation.TagID
}

// StillValid reports whether the result reflects the latest database state.
func (r *Result) StillValid() bool { return r.Validity.Unbounded() }

// Tx is a database transaction. A Tx is not safe for concurrent use.
//
// The transaction carries the context it was begun with (BeginTx): Query
// and Exec observe its cancellation, and Commit on a cancelled context
// aborts. Abort never consults the context.
type Tx struct {
	e    *Engine
	ctx  context.Context
	ro   bool
	snap interval.Timestamp
	done bool

	// sc is the transaction's pooled execution scratch (buffers, tag sets,
	// the reusable execCtx). It is borrowed from the engine's pool at Begin
	// and returned when the transaction finishes; every entry point checks
	// done first, so no method can touch a released scratch.
	sc *txScratch
}

// writes and inserted (the buffered write set) live in the pooled scratch
// rather than on Tx: the maps are allocated lazily on first write (read-only
// transactions never pay for them) and their containers are cleared and
// parked for reuse when the transaction ends, so a steady-state read/write
// commit allocates no write-set machinery.

// ctxErr reports the transaction's context cancellation, wrapped so
// callers can errors.Is against context.Canceled / DeadlineExceeded.
func (tx *Tx) ctxErr() error {
	if tx.ctx == nil {
		return nil
	}
	if err := tx.ctx.Err(); err != nil {
		return fmt.Errorf("db: %w", err)
	}
	return nil
}

// release clears the transaction's write set and returns the scratch to
// the engine pool.
func (tx *Tx) release() {
	if tx.sc != nil {
		tx.sc.exec.tx = nil
		tx.sc.resetWriteSet()
		putScratch(tx.sc)
		tx.sc = nil
	}
}

// Snapshot returns the transaction's snapshot timestamp.
func (tx *Tx) Snapshot() interval.Timestamp { return tx.snap }

// Query runs a SELECT with the given parameter values.
func (tx *Tx) Query(src string, args ...sql.Value) (*Result, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if err := tx.ctxErr(); err != nil {
		return nil, err
	}
	st, err := sql.ParseCached(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("db: Query expects SELECT, got %T", st)
	}
	tx.e.statQueries.Add(1)
	// Lock only the tables the statement touches, shared: reads contend
	// with nothing but commits to those same tables.
	names := append(tx.sc.names[:0], sel.Table)
	for _, jc := range sel.Joins {
		names = append(names, jc.Table)
	}
	tx.sc.names = names
	ls, err := tx.e.lockSetFor(tx.sc.tbls[:0], names...)
	if err != nil {
		return nil, err
	}
	tx.sc.tbls = ls.tables
	ls.rlock()
	defer ls.runlock()
	return tx.runSelect(sel, ls, args)
}

// Exec runs an INSERT, UPDATE, or DELETE and returns the number of rows
// affected.
func (tx *Tx) Exec(src string, args ...sql.Value) (int, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if tx.ro {
		return 0, ErrReadOnly
	}
	if err := tx.ctxErr(); err != nil {
		return 0, err
	}
	st, err := sql.ParseCached(src)
	if err != nil {
		return 0, err
	}
	// DML only buffers writes in the transaction's private write set; its
	// reads (UPDATE/DELETE target scans) run under the table's shared lock
	// like any query. Exclusive locks are taken only at commit.
	var name string
	var run func(t *Table) (int, error)
	switch s := st.(type) {
	case *sql.Insert:
		name = s.Table
		run = func(t *Table) (int, error) { return tx.runInsert(s, t, args) }
	case *sql.Update:
		name = s.Table
		run = func(t *Table) (int, error) { return tx.runUpdate(s, t, args) }
	case *sql.Delete:
		name = s.Table
		run = func(t *Table) (int, error) { return tx.runDelete(s, t, args) }
	default:
		return 0, fmt.Errorf("db: Exec expects INSERT/UPDATE/DELETE, got %T", st)
	}
	ls, err := tx.e.lockSetFor(tx.sc.tbls[:0], name)
	if err != nil {
		return 0, err
	}
	tx.sc.tbls = ls.tables
	ls.rlock()
	defer ls.runlock()
	return run(ls.tables[0])
}

// Abort abandons the transaction.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.release()
	tx.e.unpin(tx.snap)
}

// Commit finishes the transaction. For read/write transactions it locks
// only the write set's tables (in sorted order), validates under
// first-committer-wins, applies the writes at a freshly stamped
// timestamp, and hands the commit to the sequencer, which makes commits
// visible in timestamp order and publishes their invalidation messages in
// batched groups; the new timestamp is returned. Commits whose write sets
// touch disjoint tables run the lock/validate/apply stages concurrently.
// Read-only transactions just release their snapshot pin and return their
// snapshot.
func (tx *Tx) Commit() (interval.Timestamp, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if err := tx.ctxErr(); err != nil {
		// A cancelled transaction must not publish: abort releases the
		// snapshot pin and scratch, and the buffered write set is dropped.
		tx.Abort()
		return 0, err
	}
	tx.done = true
	defer tx.release()
	defer tx.e.unpin(tx.snap)

	if tx.ro || (len(tx.sc.writes) == 0 && len(tx.sc.inserted) == 0) {
		return tx.snap, nil
	}

	e := tx.e
	if e.dur != nil {
		// Hold the shutdown gate shared for the rest of the commit: Close
		// waits this out before closing the WAL writer, so the group append
		// below can never race the writer teardown (see durState.gate).
		e.dur.gate.RLock()
		defer e.dur.gate.RUnlock()
		if e.dur.closed.Load() {
			return 0, ErrClosed
		}
	}
	names := tx.sc.names[:0]
	for tname := range tx.sc.writes {
		names = append(names, tname)
	}
	for tname := range tx.sc.inserted {
		names = append(names, tname)
	}
	tx.sc.names = names
	ls, err := e.lockSetFor(tx.sc.tbls[:0], names...)
	if err != nil {
		return 0, err
	}
	tx.sc.tbls = ls.tables
	ls.lock()

	// Validate: every row in the write set must still have, as its latest
	// version, the version visible to our snapshot (first-committer-wins).
	// The exclusive table locks exclude every other commit that could
	// touch these tables, so the check cannot race with a concurrent apply.
	for _, t := range ls.tables {
		for id := range tx.sc.writes[t.name] {
			latest, ok := t.store.Latest(mvcc.RowID(id))
			if !ok {
				ls.unlock()
				return 0, fmt.Errorf("db: written row %d of %q vanished", id, t.name)
			}
			if latest.Created > tx.snap || latest.Deleted != interval.Infinity {
				ls.unlock()
				e.statConflict.Add(1)
				// The winner may be applied but not yet published (its
				// group's WAL record is syncing). A retry begun before it
				// is visible would lose to it again, so return once it is.
				e.seq.waitStamped()
				return 0, ErrSerialization
			}
		}
	}
	// Unique-index checks for inserts and updates.
	if err := tx.checkUnique(ls); err != nil {
		ls.unlock()
		return 0, err
	}

	// Stamp only after validation: every allocated timestamp is certain to
	// commit, so the sequencer's pipeline never waits on an aborted slot.
	ts := e.seq.allocate()
	tags := &tx.sc.commitTags
	tags.reset(e.wcLim)

	// Apply, one table at a time: updates and deletes, then inserts. New
	// versions go to the store one by one; their index entries are queued
	// on the table's batch and installed, as one sorted run per index,
	// before the loop leaves the table. On a durable engine the same loop
	// encodes the commit's WAL payload (one section per table) into the
	// pooled scratch buffer; the head committer copies it into the group
	// record before this transaction is released, so the buffer's reuse is
	// safe.
	durable := e.dur != nil
	walRec := tx.sc.walBuf[:0]
	for _, t := range ls.tables {
		var fix, nOps int
		if durable {
			walRec, fix = walSectionStart(walRec, t.name)
		}
		for id, w := range tx.sc.writes[t.name] {
			old, _ := t.store.VisibleAt(mvcc.RowID(id), tx.snap)
			oldRow := old.Data.(sql.Row)
			switch w.op {
			case opUpdate:
				t.store.Update(mvcc.RowID(id), w.data, ts)
				t.payload += rowCost(w.data)
				t.queueIndexOps(mvcc.RowID(id), w.data, false)
				tags.addRow(t, oldRow)
				tags.addRow(t, w.data)
				if durable {
					walRec = walOp(walRec, walOpUpdate, mvcc.RowID(id), w.data)
					nOps++
				}
			case opDelete:
				t.store.Delete(mvcc.RowID(id), ts)
				t.rowCount--
				tags.addRow(t, oldRow)
				if durable {
					walRec = walOp(walRec, walOpDelete, mvcc.RowID(id), "")
					nOps++
				}
			}
		}
		for _, ins := range tx.sc.inserted[t.name] {
			if ins.deleted {
				continue
			}
			id := t.store.Insert(ins.data, ts)
			t.payload += rowCost(ins.data)
			t.queueIndexOps(id, ins.data, false)
			t.rowCount++
			tags.addRow(t, ins.data)
			if durable {
				walRec = walOp(walRec, walOpInsert, id, ins.data)
				nOps++
			}
		}
		if durable {
			walRec = walSectionEnd(walRec, fix, nOps)
		}
		t.flushIndexOpsLocked()
	}
	tx.sc.walBuf = walRec
	// Everything this commit writes to a table is now written. The new
	// versions carry a timestamp above every reachable snapshot, so they
	// stay invisible until the sequencer publishes ts; the table locks can
	// drop before the (serialized) publish step, which takes none.
	ls.unlock()

	e.statCommits.Add(1)
	var tagList []invalidation.TagID
	if e.bus != nil {
		tagList = tags.tags()
	}
	e.finishCommit(ts, tagList, walRec)
	return ts, nil
}

// stagedKey is one staged row's value on the unique index being checked.
type stagedKey struct {
	key []byte // encoded, in keyBuf (which only appends, so it stays put)
	v   sql.Datum
}

// checkUnique enforces unique indexes: a staged row (an insert, or an
// update's replacement) may collide neither with a committed live row nor
// with another staged row. What counts is the write set as it stands at
// commit, so a key the transaction freed earlier, by a delete or a re-key,
// is free. Called with the write set's table locks held exclusively.
func (tx *Tx) checkUnique(ls tableLockSet) error {
	sc := tx.sc
	for _, t := range ls.tables {
		for _, idx := range t.idxList {
			if !idx.unique {
				continue
			}
			sc.keyBuf, sc.staged = sc.keyBuf[:0], sc.staged[:0]
			for _, ins := range sc.inserted[t.name] {
				if ins.deleted {
					continue
				}
				if err := tx.checkUniqueRow(t, idx, ins.data, 0); err != nil {
					return err
				}
			}
			for id, w := range sc.writes[t.name] {
				if w.op != opUpdate {
					continue
				}
				if err := tx.checkUniqueRow(t, idx, w.data, id); err != nil {
					return err
				}
			}
			// Staged rows collide iff their keys are equal; sorted, equal
			// keys are neighbours.
			slices.SortFunc(sc.staged, func(a, b stagedKey) int { return bytes.Compare(a.key, b.key) })
			for i := 1; i < len(sc.staged); i++ {
				if bytes.Equal(sc.staged[i-1].key, sc.staged[i].key) {
					return uniqueErr(t, idx, sc.staged[i].v)
				}
			}
		}
	}
	return nil
}

// checkUniqueRow stages row's key on idx and checks it against the rows the
// tree holds under that key. Every applied commit's entries are there,
// published or not: a commit installs them before it releases the table
// lock this one now holds.
func (tx *Tx) checkUniqueRow(t *Table, idx *Index, row sql.Row, selfID uint64) error {
	v := row.At(idx.colPos)
	if v.IsNull() {
		return nil // NULLs never collide
	}
	sc := tx.sc
	off := len(sc.keyBuf)
	sc.keyBuf = v.AppendKey(sc.keyBuf)
	key := sc.keyBuf[off:]
	sc.staged = append(sc.staged, stagedKey{key, v})
	for _, cand := range idx.tree.Get(key) {
		if err := tx.checkUniqueCand(t, idx, v, cand, selfID); err != nil {
			return err
		}
	}
	return nil
}

func uniqueErr(t *Table, idx *Index, v sql.Datum) error {
	return fmt.Errorf("%w: %s.%s = %s", ErrUnique, t.name, idx.column, v.AppendFormat(nil))
}

// checkUniqueCand tests one candidate row id for a live collision on
// idx's column value v.
func (tx *Tx) checkUniqueCand(t *Table, idx *Index, v sql.Datum, cand, selfID uint64) error {
	if cand == selfID {
		return nil
	}
	// A colliding committed live row?
	latest, ok := t.store.Latest(mvcc.RowID(cand))
	if !ok || latest.Deleted != interval.Infinity {
		return nil
	}
	// Superseded by our own write set?
	if w, wrote := tx.sc.writes[t.name][cand]; wrote {
		if w.op == opDelete || !w.data.At(idx.colPos).Equal(v) {
			return nil
		}
	}
	if latest.Data.(sql.Row).At(idx.colPos).Equal(v) {
		return uniqueErr(t, idx, v)
	}
	return nil
}

// tagSet accumulates invalidation tags for one query or one
// commit, collapsing a table's tags into its wildcard once the per-table
// limit is exceeded (paper §5.3). The maps are allocated lazily on first
// use and, because tag sets live in the pooled transaction scratch, are
// cleared and reused across statements — after warmup the set performs no
// steady-state allocation (the output slice of tags() being the one
// deliberate exception: it escapes into Result and the invalidation bus).
type tagSet struct {
	limit    int
	ids      map[invalidation.TagID]struct{} // key tags
	perTable map[invalidation.TagID]int      // key-tag count, by table wildcard ID
	wildcard map[invalidation.TagID]struct{} // wildcard IDs emitted
	vbuf     []byte                          // FormatValue scratch
}

// reset prepares the set for a new statement or commit, keeping its maps.
func (s *tagSet) reset(limit int) {
	s.limit = limit
	clear(s.ids)
	clear(s.perTable)
	clear(s.wildcard)
}

// addRow emits one key tag per index of t for the row's indexed values.
func (s *tagSet) addRow(t *Table, row sql.Row) {
	for _, idx := range t.indexes {
		s.addKey(t, idx.column, row.At(idx.colPos))
	}
}

// addKey adds the tag table:column=value: the table's wildcard ID with the
// key's hash in its low half.
func (s *tagSet) addKey(t *Table, column string, v sql.Datum) {
	if _, covered := s.wildcard[t.wildTag]; covered {
		return
	}
	s.vbuf = v.AppendFormat(s.vbuf[:0])
	s.add(t.wildTag | invalidation.KeyHash(column, s.vbuf))
}

func (s *tagSet) add(id invalidation.TagID) {
	w := invalidation.WildOf(id)
	if _, covered := s.wildcard[w]; covered {
		return
	}
	if id == w { // wildcard tag
		if s.wildcard == nil {
			s.wildcard = make(map[invalidation.TagID]struct{}, 2)
		}
		s.wildcard[w] = struct{}{}
		return
	}
	if _, dup := s.ids[id]; dup {
		return
	}
	if s.perTable[w]+1 > s.limit {
		if s.wildcard == nil {
			s.wildcard = make(map[invalidation.TagID]struct{}, 2)
		}
		s.wildcard[w] = struct{}{}
		return
	}
	if s.ids == nil {
		s.ids = make(map[invalidation.TagID]struct{}, 8)
		s.perTable = make(map[invalidation.TagID]int, 2)
	}
	s.ids[id] = struct{}{}
	s.perTable[w]++
}

// tags materializes the set as a fresh slice (safe to retain after the
// scratch is reused): wildcards first, then key tags of uncovered tables.
func (s *tagSet) tags() []invalidation.TagID {
	if len(s.ids) == 0 && len(s.wildcard) == 0 {
		return nil
	}
	out := make([]invalidation.TagID, 0, len(s.ids)+len(s.wildcard))
	for w := range s.wildcard {
		out = append(out, w)
	}
	for id := range s.ids {
		if _, covered := s.wildcard[invalidation.WildOf(id)]; covered {
			continue
		}
		out = append(out, id)
	}
	return out
}
