// Package db implements the database substrate: an in-memory multiversion
// relational engine providing snapshot isolation, pinnable past snapshots,
// per-query validity intervals and invalidity masks, invalidation tags, and
// an ordered invalidation stream — the TxCache-modified DBMS of paper §5,
// built from scratch instead of patching PostgreSQL.
package db

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"txcache/internal/btree"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/mvcc"
	"txcache/internal/sql"
)

// Table is one relation: a schema, a multiversion row store, and secondary
// indexes. Index entries point at rows if *any* version of the row carries
// the indexed key (like Postgres heap pointers); the executor re-checks
// predicate and visibility per version.
type Table struct {
	name    string
	cols    []sql.ColDef
	colPos  map[string]int
	store   *mvcc.Store
	indexes map[string]*Index // by column name (planner lookups)
	idxList []*Index          // same indexes in creation order (maintenance walks)
	primary string            // primary key column, "" if none

	// pend is the index batch of whoever holds mu exclusively right now
	// (see indexPending); empty whenever nobody does.
	pend indexPending

	// wildTag is the table's wildcard invalidation tag, hashed once at
	// creation; a key tag of the table is wildTag | invalidation.KeyHash.
	wildTag invalidation.TagID

	// mu is the only lock that guards the table's data (version store,
	// index trees, rowCount): statements reading the table hold it shared;
	// commits whose write set includes the table, CREATE INDEX, and vacuum
	// hold it exclusive. A commit writes the table once — versions and index
	// entries in one critical section — so nothing outside an exclusive hold
	// ever sees the two disagree. Lock sets are always acquired in ascending
	// table-name order (see tableLockSet), and the catalog lock is never
	// acquired while holding mu, so catalog → table is the global lock order.
	mu sync.RWMutex

	// rowCount tracks live (latest-version-not-deleted) rows, maintained at
	// commit time; used for wildcard-tag aggregation and planner stats.
	rowCount int

	// payload is the heap the store's versions hold outside its row
	// directory: each one's packed row and the string header that boxes it
	// behind mvcc's `any`. mvcc never looks inside a payload, so the table
	// keeps the sum, where versions come (a commit's apply stage; recovery
	// counts what it restored in rebuildDerived) and go (vacuum).
	payload int
}

// rowBoxBytes is what a version's payload costs beyond the row's own bytes:
// the string header a sql.Row boxes into.
const rowBoxBytes = 16

// rowCost is what one version's payload adds to Table.payload.
func rowCost(row sql.Row) int { return len(row) + rowBoxBytes }

// Index is a single-column secondary index. Its tree is guarded by the
// owning table's lock: scans hold Table.mu shared, mutations (a commit's
// batch, vacuum pruning, backfill) hold it exclusive.
type Index struct {
	name   string
	column string
	colPos int
	unique bool
	tree   *btree.Tree
}

// indexPending is the one path by which a table's index entries change
// after backfill: a batch, filled and flushed inside one exclusive hold of
// t.mu. A commit queues the versions it installs and ends its apply stage by
// flushing; a vacuum pass queues the versions it reclaimed. The flush is one
// sorted ApplyBatch per index, so a multi-row commit pays one leaf descent
// per run of neighbouring keys instead of one per row. The buffers are
// retained across flushes (up to pendKeepRows): steady-state batching
// allocates nothing.
type indexPending struct {
	rows  []pendRow  // queued versions
	arena []byte     // their encoded keys on the index being flushed
	batch []btree.Op // that index's batch
}

// pendRow is one row version whose index entries are to be installed or,
// for a version vacuum reclaimed (del), dropped.
type pendRow struct {
	id  mvcc.RowID
	row sql.Row
	del bool
}

// queueIndexOps queues a version of row id for the next flush. Called with
// t.mu held exclusively, by a caller that flushes before it unlocks.
func (t *Table) queueIndexOps(id mvcc.RowID, row sql.Row, del bool) {
	t.pend.rows = append(t.pend.rows, pendRow{id, row, del})
}

// flushIndexOpsLocked applies the queued versions' keys as one sorted batch
// per index. Caller holds t.mu exclusively. The tree copies any key it
// retains.
func (t *Table) flushIndexOpsLocked() {
	p := &t.pend
	if len(p.rows) == 0 {
		return
	}
	for _, idx := range t.idxList {
		arena, batch := p.arena[:0], p.batch[:0]
		for _, r := range p.rows {
			v := r.row.At(idx.colPos)
			// Postings are per row: a reclaimed version's goes only when no
			// surviving version of the row still carries the key.
			if r.del && chainCarries(t.store.Chain(r.id), idx.colPos, v) {
				continue
			}
			// A key stays where it was encoded: when append outgrows the
			// arena it copies, and the bytes behind earlier keys stay put.
			off := len(arena)
			arena = v.AppendKey(arena)
			batch = append(batch, btree.Op{Key: arena[off:], ID: uint64(r.id), Del: r.del})
		}
		slices.SortFunc(batch, func(a, b btree.Op) int { return bytes.Compare(a.Key, b.Key) })
		idx.tree.ApplyBatch(batch)
		p.arena, p.batch = arena, batch
	}
	clear(p.rows) // the scratch must not keep reclaimed rows alive
	p.rows = p.rows[:0]
	if cap(p.rows) > pendKeepRows {
		*p = indexPending{}
	}
}

// pendKeepRows is the largest batch whose buffers a table keeps for the next
// flush. A steady-state commit queues a handful of versions; a bulk load's
// batch of hundreds would otherwise leave every table it touched tens of
// kilobytes of scratch, resident for the life of the process.
const pendKeepRows = 64

// chainCarries reports whether any version in chain has v in column pos.
func chainCarries(chain []mvcc.Version, pos int, v sql.Datum) bool {
	for _, sv := range chain {
		if sv.Data.(sql.Row).At(pos).Equal(v) {
			return true
		}
	}
	return false
}

func newTable(ct *sql.CreateTable) (*Table, error) {
	t := &Table{
		name:    ct.Name,
		cols:    ct.Cols,
		colPos:  make(map[string]int, len(ct.Cols)),
		store:   mvcc.NewStore(),
		indexes: make(map[string]*Index),
		wildTag: invalidation.InternWildcard(ct.Name),
	}
	for i, c := range ct.Cols {
		if _, dup := t.colPos[c.Name]; dup {
			return nil, fmt.Errorf("db: duplicate column %q in table %q", c.Name, ct.Name)
		}
		t.colPos[c.Name] = i
		if c.Primary {
			if t.primary != "" {
				return nil, fmt.Errorf("db: multiple primary keys in table %q", ct.Name)
			}
			t.primary = c.Name
		}
	}
	if t.primary != "" {
		t.attachIndex(&Index{
			name:   ct.Name + "_pkey",
			column: t.primary,
			colPos: t.colPos[t.primary],
			unique: true,
			tree:   btree.New(),
		})
	}
	return t, nil
}

// attachIndex wires an index into the lookup map and the ordered list.
func (t *Table) attachIndex(idx *Index) {
	t.indexes[idx.column] = idx
	t.idxList = append(t.idxList, idx)
}

func (t *Table) addIndex(ci *sql.CreateIndex) error {
	pos, ok := t.colPos[ci.Column]
	if !ok {
		return fmt.Errorf("db: no column %q in table %q", ci.Column, ci.Table)
	}
	if _, exists := t.indexes[ci.Column]; exists {
		return fmt.Errorf("%w: column %q of %q is already indexed", ErrAlreadyExists, ci.Column, ci.Table)
	}
	idx := &Index{name: ci.Name, column: ci.Column, colPos: pos, unique: ci.Unique, tree: btree.New()}
	idx.tree = t.buildIndexTree(pos)
	t.attachIndex(idx)
	return nil
}

// keyPair is one (encoded key, row id) index entry staged for bulk load.
type keyPair struct {
	key []byte
	id  uint64
}

// bulkLoadPairs sorts staged entries, merges duplicate keys into posting
// lists, and builds the tree bottom-up — no per-version root descents.
func bulkLoadPairs(pairs []keyPair) *btree.Tree {
	slices.SortFunc(pairs, func(a, b keyPair) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		switch {
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	var items []btree.Item
	for i, p := range pairs {
		if i > 0 && bytes.Equal(p.key, pairs[i-1].key) {
			last := &items[len(items)-1]
			if p.id != last.Posts[len(last.Posts)-1] {
				last.Posts = append(last.Posts, p.id)
			}
			continue
		}
		items = append(items, btree.Item{Key: p.key, Posts: []uint64{p.id}})
	}
	return btree.BulkLoad(items)
}

// buildIndexTree bulk-loads an index tree for the column at pos: one
// (key, id) pair per existing version. A Scan here is fine: the caller
// (CREATE INDEX backfill) is a bulk operation, not the steady state.
func (t *Table) buildIndexTree(pos int) *btree.Tree {
	var pairs []keyPair
	t.store.Scan(func(id mvcc.RowID, chain []mvcc.Version) bool {
		for _, v := range chain {
			pairs = append(pairs, keyPair{key: v.Data.(sql.Row).At(pos).AppendKey(nil), id: uint64(id)})
		}
		return true
	})
	return bulkLoadPairs(pairs)
}

// rebuildDerived regenerates the table's derived state — every index tree,
// the live-row count and the payload account — in a single pass over the
// version store, where
// the pre-fusion recovery path made one Scan per index plus one more for
// the count. Recovery-only: runs before the engine serves traffic (tables
// are partitioned across the recovery worker pool, one worker per table),
// so no lock is taken.
func (t *Table) rebuildDerived() {
	staged := make([][]keyPair, len(t.idxList))
	live, payload := 0, 0
	t.store.Scan(func(id mvcc.RowID, chain []mvcc.Version) bool {
		if chain[len(chain)-1].Deleted == interval.Infinity {
			live++
		}
		for _, v := range chain {
			row := v.Data.(sql.Row)
			payload += rowCost(row)
			for i, idx := range t.idxList {
				staged[i] = append(staged[i], keyPair{key: row.At(idx.colPos).AppendKey(nil), id: uint64(id)})
			}
		}
		return true
	})
	for i, idx := range t.idxList {
		idx.tree = bulkLoadPairs(staged[i])
	}
	t.rowCount, t.payload = live, payload
}

// coerce returns v as column i stores it (sql.ColType.Coerce), or the
// reason the column cannot hold it.
func (t *Table) coerce(i int, v sql.Datum) (sql.Datum, error) {
	c := t.cols[i]
	if v.IsNull() && c.NotNull {
		return v, fmt.Errorf("db: column %s.%s is NOT NULL", t.name, c.Name)
	}
	v, ok := c.Type.Coerce(v)
	if !ok {
		return v, fmt.Errorf("db: column %s.%s (%s) cannot hold %T", t.name, c.Name, c.Type, v.Value())
	}
	return v, nil
}

// checkStored is what recovery asks of a row it decoded before the row goes
// into the store, where the executor will index it by the schema's column
// positions without a second look: the table's arity, and in every column a
// value coerce would have let through unchanged.
func (t *Table) checkStored(id mvcc.RowID, row sql.Row) error {
	if row.Len() != len(t.cols) {
		return fmt.Errorf("db: row %d of %q has %d columns, the table %d", id, t.name, row.Len(), len(t.cols))
	}
	var buf [16]sql.Datum // most tables fit; a wider one allocates
	for i, v := range row.AppendDatums(buf[:0]) {
		if c := t.cols[i]; !c.Type.Holds(v) || v.IsNull() && c.NotNull {
			return fmt.Errorf("db: row %d of %q: column %s (%s) cannot hold %s", id, t.name, c.Name, c.Type, v.AppendFormat(nil))
		}
	}
	return nil
}
