// Package mvcc implements multiversion row storage: the substrate the
// database engine builds snapshot isolation on, and the source of the
// per-tuple create/delete timestamps that TxCache's validity-interval
// computation consumes (paper §5.1–5.2).
//
// Every logical row is a chain of versions ordered by creation timestamp.
// A version is visible to a snapshot S iff Created <= S < Deleted. Versions
// are immutable once committed except that an unbounded version's Deleted
// field is set exactly once when a later transaction deletes or supersedes
// it. A dead version is retained only while some pinned snapshot can see
// it, mirroring Postgres's no-overwrite storage manager and asynchronous
// vacuum cleaner (paper §5.1): a pass is given the latest commit L and the
// pinned snapshots below it, and reclaims every version that died at or
// before L and whose [Created, Deleted) contains none of them — a version
// between two pins goes however old the oldest pin is.
//
// Reclamation is incremental: the moment a version dies (Update or Delete
// bounds it), it is also recorded in the store's dead queue — fixed-size
// slabs in death order, each summarised by its earliest death and its
// latest creation. A pass never scans the live store: it skips
// unread every slab whose summary proves all of it still held, reads the
// rest, unlinks what they may lose from its chain and keeps what a pin
// still holds queued, in death order. So a pass costs what it reclaims plus
// the slabs that straddle a pin, not O(rows), and it rebuilds nothing.
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
	"math/bits"
	"slices"
	"unsafe"

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

// slabSize is the number of dead versions a slab of the dead queue holds.
const slabSize = 256

// deadEntry names one dead version: its row, and its interval, which is
// unique within the row's chain.
type deadEntry struct {
	id               RowID
	created, deleted interval.Timestamp
}

// held reports whether a pass given the latest commit last and the sorted
// pins below it must keep e: it died after last, or a pin can see it. The
// only pin that can is the greatest one below its death.
func (e deadEntry) held(last interval.Timestamp, pins []interval.Timestamp) bool {
	if e.deleted > last {
		return true
	}
	n := pinsBelow(pins, e.deleted)
	return n > 0 && pins[n-1] >= e.created
}

// pinsBelow returns how many of the sorted pins are below ts.
func pinsBelow(pins []interval.Timestamp, ts interval.Timestamp) int {
	n, _ := slices.BinarySearch(pins, ts)
	return n
}

// deadSlab is a run of the dead queue with the bounds a pass reads to skip
// it: its entries' earliest death and latest creation.
type deadSlab struct {
	entries              []deadEntry // len <= slabSize
	minDeath, maxCreated interval.Timestamp
}

func (s *deadSlab) add(e deadEntry) {
	if len(s.entries) == 0 {
		s.minDeath, s.maxCreated = e.deleted, e.created
	} else {
		s.minDeath = min(s.minDeath, e.deleted)
		s.maxCreated = max(s.maxCreated, e.created)
	}
	s.entries = append(s.entries, e)
}

// allHeld reports, from the bounds alone, that a pass at (last, pins) keeps
// every entry: none died by last, or some pin lies at or after every
// creation and before every death, and so sees every entry.
func (s *deadSlab) allHeld(last interval.Timestamp, pins []interval.Timestamp) bool {
	if len(s.entries) == 0 || s.minDeath > last {
		return true
	}
	n := pinsBelow(pins, s.minDeath)
	return n > 0 && pins[n-1] >= s.maxCreated
}

// deadQueue is the store's reclamation index: every dead version not yet
// reclaimed, in death order, a slab at a time. The engine's per-table commit
// order makes deaths monotone; a standalone store may record them in any
// order, which can cost a pass reads but never exactness. spare is an
// emptied slab's array, kept for the next new slab, so a steady state of
// deaths and passes allocates nothing.
type deadQueue struct {
	slabs []deadSlab
	spare []deadEntry
}

func (q *deadQueue) push(e deadEntry) {
	n := len(q.slabs)
	if n == 0 || len(q.slabs[n-1].entries) == slabSize {
		entries := q.spare
		if entries == nil {
			entries = make([]deadEntry, 0, slabSize)
		}
		q.spare = nil
		q.slabs = append(q.slabs, deadSlab{entries: entries})
		n++
	}
	q.slabs[n-1].add(e)
}

// reclaim removes every entry a pass at (last, pins) may reclaim and appends
// each to buf, in queue order, as a Reclaimed whose Version has no Data. A
// slab it reads keeps its held entries in place, in order; a slab that then
// fits in the slab before it moves into it, so no slab but a lone one is
// ever empty and the queue never holds more slabs than its entries need
// twice over.
func (q *deadQueue) reclaim(last interval.Timestamp, pins []interval.Timestamp, buf []Reclaimed) []Reclaimed {
	kept := q.slabs[:0]
	for _, s := range q.slabs {
		if !s.allHeld(last, pins) {
			read := s.entries
			s.entries = read[:0]
			for _, e := range read {
				if e.held(last, pins) {
					s.add(e)
				} else {
					buf = append(buf, Reclaimed{ID: e.id, Ver: Version{Created: e.created, Deleted: e.deleted}})
				}
			}
		}
		if n := len(kept); n > 0 && len(kept[n-1].entries)+len(s.entries) <= slabSize {
			for _, e := range s.entries {
				kept[n-1].add(e)
			}
			if q.spare == nil {
				q.spare = s.entries[:0]
			}
			continue
		}
		kept = append(kept, s)
	}
	clear(q.slabs[len(kept):])
	q.slabs = kept
	return buf
}

// reclaimable reports whether reclaim(last, pins) would reclaim anything.
func (q *deadQueue) reclaimable(last interval.Timestamp, pins []interval.Timestamp) bool {
	for i := range q.slabs {
		s := &q.slabs[i]
		if s.allHeld(last, pins) {
			continue
		}
		for _, e := range s.entries {
			if !e.held(last, pins) {
				return true
			}
		}
	}
	return false
}

// pending returns the number of dead versions awaiting reclamation.
func (q *deadQueue) pending() int {
	n := 0
	for _, s := range q.slabs {
		n += len(s.entries)
	}
	return n
}

// The row directory. Row IDs are dense — the store hands them out in order
// and never reuses one — so a row is found by position, not by hashing: id's
// high bits name a page, its low pageBits the slot in it. Pages hang off a
// radix tree over page numbers, fanout children a node, which grows a level
// at the root when an id beyond its reach arrives and loses every node left
// without a child. So the directory costs what the rows cost (a page and at
// most one node per level for a row alone in its page), whatever the
// largest id named by a snapshot or a log record: 1<<60 is seven nodes and
// a page, not a 2^52-entry slice.
const (
	pageBits = 8
	pageSize = 1 << pageBits // slots in a page
	fanBits  = 8
	fanout   = 1 << fanBits // children of a directory node
)

// slot is one row. A row with a single version — nearly every row — keeps
// it inline; the second version moves the chain to the heap (spill), and a
// vacuum that leaves one version moves it back and frees the spill.
type slot struct {
	one   [1]Version // the only version, while spill is nil
	spill *[]Version // every version, ordered by Created ascending, once there are two
}

// chain returns the slot's versions, oldest first, as a view.
func (sl *slot) chain() []Version {
	if sl.spill != nil {
		return *sl.spill
	}
	return sl.one[:]
}

// page is pageSize consecutive row IDs' slots; bit i of used says slots[i]
// holds a row. A page with no bit set is dropped from the directory.
type page struct {
	used  [pageSize / 64]uint64
	slots [pageSize]slot
}

func (p *page) has(i uint) bool { return p.used[i/64]&(1<<(i%64)) != 0 }

// dirNode is an interior node of the directory. Exactly one of kids and
// pages is non-nil: pages at level 1, the bottom, and kids above it.
type dirNode struct {
	live  int // children present
	kids  *[fanout]*dirNode
	pages *[fanout]*page
}

// What the directory's pieces hold of the heap, for Bytes.
const (
	pageBytes    = int(unsafe.Sizeof(page{}))
	nodeBytes    = int(unsafe.Sizeof(dirNode{}) + unsafe.Sizeof([fanout]*page{}))
	versionBytes = int(unsafe.Sizeof(Version{}))
	spillBytes   = int(unsafe.Sizeof([]Version{})) // the spilled slice's header
)

// Store holds the version chains of one table. It is not safe for
// concurrent use without the caller's lock (see the package doc).
type Store struct {
	nextID RowID
	root   *dirNode  // nil while the store holds no row
	height int       // levels under root; it reaches page numbers below fanout^height
	nRows  int       // slots in use
	nVers  int       // versions across all chains
	bytes  int       // pages, directory nodes and spilled chains, see Bytes
	dead   deadQueue // versions awaiting reclamation, by death ts
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{nextID: 1}
}

// childIndex returns which child of a node at level holds page pn.
func childIndex(pn uint64, level int) uint64 {
	return pn >> (fanBits * (level - 1)) & (fanout - 1)
}

// page returns page pn, or nil when no row lives in it.
func (s *Store) page(pn uint64) *page {
	n := s.root
	if n == nil || pn>>(fanBits*s.height) != 0 {
		return nil
	}
	for level := s.height; level > 1; level-- {
		if n = n.kids[childIndex(pn, level)]; n == nil {
			return nil
		}
	}
	return n.pages[childIndex(pn, 1)]
}

func (s *Store) newNode(level int) *dirNode {
	s.bytes += nodeBytes
	if level == 1 {
		return &dirNode{pages: new([fanout]*page)}
	}
	return &dirNode{kids: new([fanout]*dirNode)}
}

// ensurePage returns page pn, creating it and the path to it as needed.
func (s *Store) ensurePage(pn uint64) *page {
	need := max(1, (bits.Len64(pn)+fanBits-1)/fanBits) // levels that reach pn
	if s.root == nil {
		s.root, s.height = s.newNode(need), need
	}
	for s.height < need {
		s.height++
		r := s.newNode(s.height)
		r.kids[0], r.live = s.root, 1
		s.root = r
	}
	n := s.root
	for level := s.height; level > 1; level-- {
		kid := &n.kids[childIndex(pn, level)]
		if *kid == nil {
			*kid = s.newNode(level - 1)
			n.live++
		}
		n = *kid
	}
	p := &n.pages[childIndex(pn, 1)]
	if *p == nil {
		*p = new(page)
		n.live++
		s.bytes += pageBytes
	}
	return *p
}

// dropPage removes the emptied page pn and every node that loses its last
// child with it, and then the levels the root no longer needs.
func (s *Store) dropPage(pn uint64) {
	if s.root.drop(s, pn, s.height) {
		s.root, s.height = nil, 0
		s.bytes -= nodeBytes
		return
	}
	for s.height > 1 && s.root.live == 1 && s.root.kids[0] != nil {
		s.root, s.height = s.root.kids[0], s.height-1
		s.bytes -= nodeBytes
	}
}

// drop removes page pn from the subtree of n, a node at level, and reports
// whether n is left with no child.
func (n *dirNode) drop(s *Store, pn uint64, level int) bool {
	i := childIndex(pn, level)
	if level == 1 {
		n.pages[i] = nil
		s.bytes -= pageBytes
	} else {
		if !n.kids[i].drop(s, pn, level-1) {
			return false
		}
		n.kids[i] = nil
		s.bytes -= nodeBytes
	}
	n.live--
	return n.live == 0
}

// locate splits id into its page number and its slot's index in that page.
func locate(id RowID) (pn uint64, i uint) {
	return uint64(id) >> pageBits, uint(id & (pageSize - 1))
}

// slot returns id's slot, or nil when the store holds no such row.
func (s *Store) slot(id RowID) *slot {
	pn, i := locate(id)
	p := s.page(pn)
	if p == nil || !p.has(i) {
		return nil
	}
	return &p.slots[i]
}

// put installs a new row with one unbounded version created at ts.
func (s *Store) put(id RowID, data any, ts interval.Timestamp) {
	pn, i := locate(id)
	p := s.ensurePage(pn)
	p.used[i/64] |= 1 << (i % 64)
	p.slots[i].one[0] = Version{Created: ts, Deleted: interval.Infinity, Data: data}
	s.nRows++
	s.nVers++
}

// Insert creates a new row whose first version is valid from ts, returning
// its RowID.
func (s *Store) Insert(data any, ts interval.Timestamp) RowID {
	id := s.nextID
	s.nextID++
	s.put(id, data, ts)
	return id
}

// bound terminates the current version of id at ts and queues it for
// reclamation, returning the row's slot. op names the caller in the panic
// for a row that is missing or whose latest version is already deleted: the
// engine validates writes before applying them.
func (s *Store) bound(op string, id RowID, ts interval.Timestamp) *slot {
	sl := s.slot(id)
	if sl == nil {
		panic(fmt.Sprintf("mvcc: %s of missing row %d", op, id))
	}
	chain := sl.chain()
	last := &chain[len(chain)-1]
	if last.Deleted != interval.Infinity {
		panic(fmt.Sprintf("mvcc: %s of deleted row %d", op, id))
	}
	last.Deleted = ts
	s.dead.push(deadEntry{id: id, created: last.Created, deleted: ts})
	return sl
}

// Update supersedes the current version of id at ts with data. It panics if
// the row does not exist or its latest version is already deleted.
func (s *Store) Update(id RowID, data any, ts interval.Timestamp) {
	sl := s.bound("update", id, ts)
	v := Version{Created: ts, Deleted: interval.Infinity, Data: data}
	if sl.spill == nil {
		chain := []Version{sl.one[0], v}
		sl.one[0] = Version{} // the chain holds the Data reference now
		sl.spill = &chain
		s.bytes += spillBytes + versionBytes*cap(chain)
	} else {
		s.bytes -= versionBytes * cap(*sl.spill)
		*sl.spill = append(*sl.spill, v)
		s.bytes += versionBytes * cap(*sl.spill)
	}
	s.nVers++
}

// Delete terminates the current version of id at ts, with Update's panics.
func (s *Store) Delete(id RowID, ts interval.Timestamp) {
	s.bound("delete", id, ts)
}

// RestoreInsert installs a row under an explicit id with a single unbounded
// version created at ts. It is the recovery path's insert: checkpoint
// restore and WAL replay must reproduce the row ids the original run
// assigned (index postings and later log records reference them), so the id
// comes from the log, and nextID is raised past it so post-recovery inserts
// never collide. Ids may arrive in any order and be any value: the
// directory grows by the rows, not by the ids. Returns false if the id is
// already present (corrupt log).
func (s *Store) RestoreInsert(id RowID, data any, ts interval.Timestamp) bool {
	if s.slot(id) != nil {
		return false
	}
	s.put(id, data, ts)
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
	chain := s.Chain(id)
	if len(chain) == 0 {
		return Version{}, false
	}
	return chain[len(chain)-1], true
}

// VisibleAt returns the version of id visible to snapshot ts.
func (s *Store) VisibleAt(id RowID, ts interval.Timestamp) (Version, bool) {
	chain := s.Chain(id)
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
	sl := s.slot(id)
	if sl == nil {
		return nil
	}
	return sl.chain()
}

// Scan calls fn with every row's chain, in ascending id order. fn must not
// retain the chain slice or mutate the store. Scan is for bulk operations
// (full-table reads, index backfill); the steady-state reclamation path
// never uses it.
func (s *Store) Scan(fn func(id RowID, chain []Version) bool) {
	s.ScanFrom(0, fn)
}

// ScanFrom is Scan over the rows whose id is at least from. It is the
// resumable walk of a streaming checkpoint, which visits a batch of rows
// per lock hold and picks up after the last id it saw: ids are never
// reused, so a row inserted meanwhile lies past every id a pinned snapshot
// can see, and a row vacuumed away meanwhile is simply no longer met. Pages
// and subtrees without rows are skipped, so a pass costs by the rows.
func (s *Store) ScanFrom(from RowID, fn func(id RowID, chain []Version) bool) {
	if s.root != nil {
		s.root.scan(0, s.height, from, fn)
	}
}

// scan visits the rows under n, a node at level whose first page is number
// base, and reports whether the scan should go on past it.
func (n *dirNode) scan(base uint64, level int, from RowID, fn func(id RowID, chain []Version) bool) bool {
	span := uint64(1) << (fanBits * (level - 1)) // pages under one child
	i := uint64(0)
	if first := uint64(from) >> pageBits; first > base {
		i = (first - base) / span // earlier children end below from
	}
	for ; i < fanout; i++ {
		if level > 1 {
			if k := n.kids[i]; k != nil && !k.scan(base+i*span, level-1, from, fn) {
				return false
			}
		} else if p := n.pages[i]; p != nil && !p.scan(RowID(base+i)<<pageBits, from, fn) {
			return false
		}
	}
	return true
}

// scan visits the page's rows; first is the id of slots[0].
func (p *page) scan(first, from RowID, fn func(id RowID, chain []Version) bool) bool {
	for w, word := range p.used {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			if id := first + RowID(i); id >= from && !fn(id, p.slots[i].chain()) {
				return false
			}
		}
	}
	return true
}

// Len returns the number of logical rows (including fully-deleted rows not
// yet vacuumed).
func (s *Store) Len() int {
	return s.nRows
}

// Bytes returns the heap the row directory holds: pages, directory nodes
// and spilled chains by capacity — not the row payloads, which the store
// does not own. Like VersionCount it is kept as the store changes, so a
// stats scrape costs the same on any table size.
func (s *Store) Bytes() int {
	return s.bytes
}

// VersionCount returns the total number of stored versions, for vacuum
// accounting and tests. The count is kept as chains change, so a stats
// scrape costs the same on any table size.
func (s *Store) VersionCount() int {
	return s.nVers
}

// DeadCount returns the number of dead versions awaiting reclamation: those
// a pin held at the last pass, and those that died since.
func (s *Store) DeadCount() int {
	return s.dead.pending()
}

// Reclaimable reports whether VacuumPinned(last, pins) would reclaim
// anything. It is a read, so it may run under a lock held shared, and it is
// exact: false means every queued version died after last or is seen by
// one of pins, and a pass would change nothing.
func (s *Store) Reclaimable(last interval.Timestamp, pins []interval.Timestamp) bool {
	return s.dead.reclaimable(last, pins)
}

// Vacuum removes versions invisible to every snapshot >= horizon: a version
// is reclaimed iff Deleted <= horizon. It is VacuumPinned with no pin.
func (s *Store) Vacuum(horizon interval.Timestamp, buf []Reclaimed) []Reclaimed { // kept for benchmark/ (ROADMAP 1)
	return s.VacuumPinned(horizon, nil, buf)
}

// VacuumPinned removes every version no snapshot that can still be read
// sees: one that died at or before last — the latest commit, at or below
// which every later snapshot is taken — and whose [Created, Deleted)
// contains none of pins, the pinned snapshots below last in ascending
// order. Rows whose every version is reclaimed are removed entirely.
// Reclaimed versions are appended to buf (a reusable caller-supplied
// buffer) and returned so the engine can prune index entries; when nothing
// is reclaimable the pass performs no allocation and returns buf unchanged.
// The cost is what is reclaimed plus the dead-queue slabs that straddle a
// pin: only the chains of reclaimed rows are touched.
func (s *Store) VacuumPinned(last interval.Timestamp, pins []interval.Timestamp, buf []Reclaimed) []Reclaimed {
	n0 := len(buf)
	buf = s.dead.reclaim(last, pins, buf)
	n := n0
	for _, r := range buf[n0:] {
		if v, ok := s.unlink(r.ID, r.Ver); ok {
			buf[n] = Reclaimed{ID: r.ID, Ver: v}
			n++
		}
	}
	return buf[:n]
}

// unlink removes the version of row id with v's interval from its chain
// and returns it, payload and all. Versions are identified by their
// (Created, Deleted) interval, which is unique within a chain up to
// identical duplicates. A chain left with one version moves back into its
// slot; a row left with none gives up its slot, and the page's last row the
// page.
func (s *Store) unlink(id RowID, v Version) (Version, bool) {
	pn, i := locate(id)
	p := s.page(pn)
	if p == nil || !p.has(i) {
		return Version{}, false
	}
	sl := &p.slots[i]
	chain := sl.chain()
	at := 0
	for at < len(chain) && (chain[at].Created != v.Created || chain[at].Deleted != v.Deleted) {
		at++
	}
	if at == len(chain) {
		return Version{}, false
	}
	v = chain[at]
	s.nVers--
	if sl.spill == nil {
		*sl = slot{}
		s.nRows--
		p.used[i/64] &^= 1 << (i % 64)
		if p.used == [len(p.used)]uint64{} {
			s.dropPage(pn)
		}
		return v, true
	}
	copy(chain[at:], chain[at+1:])
	chain[len(chain)-1] = Version{} // drop the trailing Data reference
	chain = chain[:len(chain)-1]
	if len(chain) == 1 {
		sl.one[0] = chain[0]
		sl.spill = nil
		s.bytes -= spillBytes + versionBytes*cap(chain)
	} else {
		*sl.spill = chain
	}
	return v, true
}
