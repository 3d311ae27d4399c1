package db

// Per-transaction execution scratch (the "starve the GC" machinery of the
// read path). Every buffer the executor needs repeatedly — scan outputs,
// duplicate-row filters, index-probe keys, tag sets, the execCtx itself —
// lives in one pooled struct borrowed at Begin and returned when the
// transaction finishes. A warmed-up point select touches none of the
// allocator: statement state is reset in place, never reallocated.

import (
	"sync"

	"txcache/internal/sql"
)

// txScratch is the reusable state. Fields referencing row data (rowBuf,
// staged, rows, arena) may briefly retain version payloads between
// transactions; versions are immutable, so this is a memory footnote, not
// a correctness hazard.
type txScratch struct {
	exec       execCtx
	commitTags tagSet

	names []string // statement table names
	tbls  []*Table // lock-set resolution

	rowBuf   []scanRow   // base-scan output
	joinBuf  []scanRow   // join-probe output, reused per outer row
	probeBuf []localCond // join-probe condition vector
	idBuf    []uint64    // range-scan posting staging
	keyBuf   []byte      // index-probe key encoding
	staged   []stagedKey // commit-time unique check (see checkUnique)

	walBuf []byte // commit WAL-payload encoding (durable engines)

	// Staging one row of an INSERT or UPDATE (see packRow): the statement's
	// column positions and bound SET clauses, the row's columns unboxed, and
	// its encoding before it is copied into the sql.Row the write set keeps.
	posBuf    []int
	assignBuf []boundAssign
	valBuf    []sql.Datum
	rowEnc    []byte

	// The transaction write set (see the Tx doc). Outer maps persist for
	// the scratch's lifetime; inner containers are cleared and parked on
	// the free lists between transactions (resetWriteSet).
	writes   map[string]map[uint64]rowWrite
	inserted map[string][]insertedRow
	rwFree   []map[uint64]rowWrite
	insFree  [][]insertedRow

	bindBuf  []binding     // SELECT table bindings
	condBuf  []localCond   // base binding's bound WHERE conjuncts
	localFor [][]localCond // per-binding condition headers

	rows  []jrow    // select working set
	arena []sql.Row // jrow backing for single-binding selects

	keyed    []keyedRow  // ORDER BY: the working set with its sort keys
	sortKeys []sql.Datum // their backing

	seen idSet
}

// resetWriteSet forgets the write set: inner containers are emptied and
// parked for the next transaction. Row data referenced by a parked insert
// slice's backing array is retained briefly (the usual scratch footnote).
func (sc *txScratch) resetWriteSet() {
	for tname, m := range sc.writes {
		clear(m)
		sc.rwFree = append(sc.rwFree, m)
		delete(sc.writes, tname)
	}
	for tname, rows := range sc.inserted {
		sc.insFree = append(sc.insFree, rows[:0])
		delete(sc.inserted, tname)
	}
}

var scratchPool = sync.Pool{New: func() any { return new(txScratch) }}

func getScratch() *txScratch   { return scratchPool.Get().(*txScratch) }
func putScratch(sc *txScratch) { scratchPool.Put(sc) }

// idSet is a generation-stamped duplicate filter over row IDs, replacing
// the per-scan map[uint64]bool. Dense IDs (the mvcc store hands them out
// sequentially) mark a slot in a flat slice; reset is a generation bump,
// so clearing costs nothing. Absurdly large or synthetic IDs overflow into
// a lazily-allocated map that is cleared on reset.
type idSet struct {
	gen      uint32
	marks    []uint32
	overflow map[uint64]struct{}
}

// idSetDenseLimit bounds the dense slab (8 MiB of uint32 marks) so a rogue
// ID cannot make reset-free marking allocate unbounded memory.
const idSetDenseLimit = 1 << 21

// reset forgets all members in O(1) (amortized; the generation counter
// wraps every 2^32 resets, forcing one memclr).
func (s *idSet) reset() {
	s.gen++
	if s.gen == 0 {
		clear(s.marks)
		s.gen = 1
	}
	if len(s.overflow) > 0 {
		clear(s.overflow)
	}
}

// insert adds id, reporting whether it was absent.
func (s *idSet) insert(id uint64) bool {
	if id < uint64(len(s.marks)) {
		if s.marks[id] == s.gen {
			return false
		}
		s.marks[id] = s.gen
		return true
	}
	if id < idSetDenseLimit {
		grown := make([]uint32, max(64, int(id)+1, 2*len(s.marks)))
		copy(grown, s.marks)
		s.marks = grown
		s.marks[id] = s.gen
		return true
	}
	if s.overflow == nil {
		s.overflow = make(map[uint64]struct{}, 16)
	}
	if _, ok := s.overflow[id]; ok {
		return false
	}
	s.overflow[id] = struct{}{}
	return true
}
