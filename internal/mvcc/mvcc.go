// Package mvcc implements multiversion row storage: the substrate the
// database engine builds snapshot isolation on, and the source of the
// per-tuple create/delete timestamps that TxCache's validity-interval
// computation consumes (paper §5.1–5.2).
//
// Every logical row is a chain of versions ordered by creation timestamp.
// A version is visible to a snapshot S iff Created <= S < Deleted. Versions
// are immutable once committed except that an unbounded version's Deleted
// field is set exactly once when a later transaction deletes or supersedes
// it. Old versions are retained until Vacuum removes those invisible to
// every pinned snapshot, mirroring Postgres's no-overwrite storage manager
// and asynchronous vacuum cleaner (paper §5.1).
//
// Reclamation is incremental: the moment a version dies (Update or Delete
// bounds it), it is also recorded in an epoch-sharded dead queue — fixed-
// size append-only slabs ordered by death timestamp. Vacuum therefore never
// scans the live store: it pops whole slabs (and the boundary slab's
// prefix) at or below the horizon and unlinks exactly those versions from
// their chains, so a pass costs O(reclaimed), not O(rows).
//
// A Store has no lock of its own; the caller's lock is the contract. Every
// mutation (Insert, Update, Delete, Vacuum, the restore calls) excludes
// every other call, and reads may run alongside each other. The database
// engine holds the owning table's lock for this — commits and vacuum
// exclusive, scans shared — so a table's versions and its index entries
// change in one critical section, under one lock.
package mvcc

import (
	"fmt"

	"txcache/internal/interval"
)

// RowID names a logical row within one Store. IDs are never reused.
type RowID uint64

// Version is one committed version of a row.
type Version struct {
	Created interval.Timestamp // commit time of the creating transaction
	Deleted interval.Timestamp // commit time of the deleting/superseding transaction, or Infinity
	Data    any                // engine-defined row payload; immutable
}

// Interval returns the version's validity interval [Created, Deleted).
func (v Version) Interval() interval.Interval {
	return interval.Interval{Lo: v.Created, Hi: v.Deleted}
}

// VisibleAt reports whether the version is visible to snapshot ts.
func (v Version) VisibleAt(ts interval.Timestamp) bool {
	return v.Created <= ts && ts < v.Deleted
}

// Reclaimed is one version removed by Vacuum, keyed by its row, so the
// engine can prune index entries.
type Reclaimed struct {
	ID  RowID
	Ver Version
}

// slabSize is the number of dead versions per slab. Slabs are recycled
// through a per-store free list, so steady-state death recording and
// reclamation allocate nothing.
const slabSize = 256

// deadSlab is one epoch shard of the dead queue: an append-only run of
// versions in (engine-guaranteed nondecreasing) death-timestamp order.
type deadSlab struct {
	entries  []Reclaimed // len <= slabSize; backing array retained on recycle
	maxDeath interval.Timestamp
}

// deadQueue is the store's reclamation index: a FIFO of slabs ordered by
// death timestamp. head marks the consumed prefix of the front slab.
type deadQueue struct {
	slabs []*deadSlab
	head  int // consumed entries of slabs[0]
	free  []*deadSlab
}

func (q *deadQueue) push(id RowID, v Version) {
	var s *deadSlab
	if n := len(q.slabs); n > 0 && len(q.slabs[n-1].entries) < slabSize {
		s = q.slabs[n-1]
	} else {
		if n := len(q.free); n > 0 {
			s = q.free[n-1]
			q.free = q.free[:n-1]
		} else {
			s = &deadSlab{entries: make([]Reclaimed, 0, slabSize)}
		}
		q.slabs = append(q.slabs, s)
	}
	s.entries = append(s.entries, Reclaimed{ID: id, Ver: v})
	if v.Deleted > s.maxDeath {
		s.maxDeath = v.Deleted
	}
}

// popInto appends every queued entry with Deleted <= horizon to buf and
// returns the extended slice. Whole slabs at or below the horizon are
// drained in one append and recycled; at most one boundary slab is consumed
// partially. Entries recorded out of death order (possible only for
// standalone stores; the engine's per-table commit order is monotone) are
// reclaimed conservatively late: a blocking entry above the horizon delays
// everything behind it until the horizon passes.
func (q *deadQueue) popInto(horizon interval.Timestamp, buf []Reclaimed) []Reclaimed {
	for len(q.slabs) > 0 {
		s := q.slabs[0]
		if q.head == 0 && s.maxDeath <= horizon && len(s.entries) == slabSize {
			buf = append(buf, s.entries...)
			q.retireFront(s)
			continue
		}
		e := s.entries
		i := q.head
		for i < len(e) && e[i].Ver.Deleted <= horizon {
			buf = append(buf, e[i])
			e[i] = Reclaimed{} // release the Data reference now
			i++
		}
		q.head = i
		if i < len(e) {
			return buf // boundary entry above the horizon
		}
		if len(e) < slabSize {
			return buf // tail slab, still receiving appends
		}
		q.retireFront(s)
	}
	return buf
}

// retireFront recycles the fully-consumed front slab.
func (q *deadQueue) retireFront(s *deadSlab) {
	clear(s.entries)
	s.entries = s.entries[:0]
	s.maxDeath = 0
	copy(q.slabs, q.slabs[1:])
	q.slabs[len(q.slabs)-1] = nil
	q.slabs = q.slabs[:len(q.slabs)-1]
	q.head = 0
	q.free = append(q.free, s)
}

// pending returns the number of dead versions awaiting reclamation.
func (q *deadQueue) pending() int {
	n := -q.head
	for _, s := range q.slabs {
		n += len(s.entries)
	}
	return n
}

// reclaimableBelow reports whether any queued entry could be reclaimed at
// horizon, by peeking the front of the queue.
func (q *deadQueue) reclaimableBelow(horizon interval.Timestamp) bool {
	if len(q.slabs) == 0 {
		return false
	}
	s := q.slabs[0]
	return q.head < len(s.entries) && s.entries[q.head].Ver.Deleted <= horizon
}

// Store holds the version chains of one table. It is not safe for
// concurrent use without the caller's lock (see the package doc).
type Store struct {
	nextID RowID
	rows   map[RowID][]Version // chains ordered by Created ascending
	nVers  int                 // versions across all chains
	dead   deadQueue           // versions awaiting reclamation, by death ts
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{nextID: 1, rows: make(map[RowID][]Version)}
}

// Insert creates a new row whose first version is valid from ts, returning
// its RowID.
func (s *Store) Insert(data any, ts interval.Timestamp) RowID {
	id := s.nextID
	s.nextID++
	s.rows[id] = []Version{{Created: ts, Deleted: interval.Infinity, Data: data}}
	s.nVers++
	return id
}

// Update supersedes the current version of id at ts with data. It panics if
// the row does not exist or its latest version is already deleted: the
// engine validates writes before applying them.
func (s *Store) Update(id RowID, data any, ts interval.Timestamp) {
	chain := s.rows[id]
	if len(chain) == 0 {
		panic(fmt.Sprintf("mvcc: update of missing row %d", id))
	}
	last := &chain[len(chain)-1]
	if last.Deleted != interval.Infinity {
		panic(fmt.Sprintf("mvcc: update of deleted row %d", id))
	}
	last.Deleted = ts
	s.dead.push(id, *last)
	s.rows[id] = append(chain, Version{Created: ts, Deleted: interval.Infinity, Data: data})
	s.nVers++
}

// Delete terminates the current version of id at ts.
func (s *Store) Delete(id RowID, ts interval.Timestamp) {
	chain := s.rows[id]
	if len(chain) == 0 {
		panic(fmt.Sprintf("mvcc: delete of missing row %d", id))
	}
	last := &chain[len(chain)-1]
	if last.Deleted != interval.Infinity {
		panic(fmt.Sprintf("mvcc: delete of deleted row %d", id))
	}
	last.Deleted = ts
	s.dead.push(id, *last)
}

// RestoreInsert installs a row under an explicit id with a single unbounded
// version created at ts. It is the recovery path's insert: checkpoint
// restore and WAL replay must reproduce the row ids the original run
// assigned (index postings and later log records reference them), so the id
// comes from the log, and nextID is raised past it so post-recovery inserts
// never collide. Returns false if the id is already present (corrupt log).
func (s *Store) RestoreInsert(id RowID, data any, ts interval.Timestamp) bool {
	if _, dup := s.rows[id]; dup {
		return false
	}
	s.rows[id] = []Version{{Created: ts, Deleted: interval.Infinity, Data: data}}
	s.nVers++
	if id >= s.nextID {
		s.nextID = id + 1
	}
	return true
}

// EnsureNextID raises the id allocator to at least next. Checkpoint restore
// calls it with the allocator value the checkpoint recorded, so ids of rows
// that were inserted and fully vacuumed before the checkpoint are still
// never reused.
func (s *Store) EnsureNextID(next RowID) {
	if next > s.nextID {
		s.nextID = next
	}
}

// NextID returns the current id allocator value (checkpoint serialization).
func (s *Store) NextID() RowID {
	return s.nextID
}

// Latest returns the newest version of id and whether the row exists (it may
// still be a deleted version).
func (s *Store) Latest(id RowID) (Version, bool) {
	chain := s.rows[id]
	if len(chain) == 0 {
		return Version{}, false
	}
	return chain[len(chain)-1], true
}

// VisibleAt returns the version of id visible to snapshot ts.
func (s *Store) VisibleAt(id RowID, ts interval.Timestamp) (Version, bool) {
	chain := s.rows[id]
	// Chains are short (bounded by vacuum); linear scan from the newest end.
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].VisibleAt(ts) {
			return chain[i], true
		}
	}
	return Version{}, false
}

// Chain returns every version of id, oldest first: a view of the store's
// own memory, valid until the next mutation of the store and not to be
// modified. A row that never existed or was vacuumed away has none.
func (s *Store) Chain(id RowID) []Version {
	return s.rows[id]
}

// Scan calls fn with every row's chain. Iteration order is unspecified.
// fn must not retain the chain slice. Scan is for bulk operations (index
// backfill, debugging); the steady-state reclamation path never uses it.
func (s *Store) Scan(fn func(id RowID, chain []Version) bool) {
	for id, chain := range s.rows {
		if !fn(id, chain) {
			return
		}
	}
}

// AppendIDs appends every current row ID to buf and returns the extended
// slice, in unspecified order. It is the resumable-scan primitive for
// streaming checkpoints: the caller snapshots the ID set cheaply (8 bytes
// per row, no chain copies) under one short lock hold, then revisits rows
// in bounded batches via VisibleAt with the lock released in between — IDs
// are never reused, a row inserted later is invisible at the pinned
// snapshot by construction, and a row vacuumed away simply resolves to no
// visible version.
func (s *Store) AppendIDs(buf []RowID) []RowID {
	for id := range s.rows {
		buf = append(buf, id)
	}
	return buf
}

// Len returns the number of logical rows (including fully-deleted rows not
// yet vacuumed).
func (s *Store) Len() int {
	return len(s.rows)
}

// VersionCount returns the total number of stored versions, for vacuum
// accounting and tests. The count is kept as chains change, so a stats
// scrape costs the same on any table size.
func (s *Store) VersionCount() int {
	return s.nVers
}

// DeadCount returns the number of dead versions awaiting reclamation.
func (s *Store) DeadCount() int {
	return s.dead.pending()
}

// ReclaimableBelow reports whether a Vacuum at horizon would reclaim
// anything. It is a read: a peek at the front of the dead queue.
func (s *Store) ReclaimableBelow(horizon interval.Timestamp) bool {
	return s.dead.reclaimableBelow(horizon)
}

// Vacuum removes versions invisible to every snapshot >= horizon: a version
// is reclaimed iff Deleted <= horizon. Rows whose every version is reclaimed
// are removed entirely. Reclaimed versions are appended to buf (a reusable
// caller-supplied buffer) and returned so the engine can prune index
// entries; when nothing is reclaimable the pass performs no allocation and
// returns buf unchanged. The cost is proportional to the number of versions
// reclaimed: the dead queue is popped by death timestamp, and only the
// chains of reclaimed rows are touched.
func (s *Store) Vacuum(horizon interval.Timestamp, buf []Reclaimed) []Reclaimed {
	n0 := len(buf)
	buf = s.dead.popInto(horizon, buf)
	for i := n0; i < len(buf); i++ {
		s.unlink(buf[i].ID, buf[i].Ver)
	}
	return buf
}

// unlink removes the reclaimed version from its row's chain. Versions are
// identified by their (Created, Deleted) interval, which is unique within a
// chain up to identical duplicates.
func (s *Store) unlink(id RowID, v Version) {
	chain := s.rows[id]
	for i := range chain {
		if chain[i].Created == v.Created && chain[i].Deleted == v.Deleted {
			copy(chain[i:], chain[i+1:])
			chain[len(chain)-1] = Version{} // drop the trailing Data reference
			chain = chain[:len(chain)-1]
			s.nVers--
			if len(chain) == 0 {
				delete(s.rows, id)
			} else {
				s.rows[id] = chain
			}
			return
		}
	}
}
