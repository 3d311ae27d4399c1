package invalidation

import (
	"sync"
	"sync/atomic"
)

// TagID is an interned invalidation tag: a small integer naming one
// (table, key) or (table, wildcard) dependency. Two tags produced by KeyTag
// or WildcardTag are equal exactly when their TagIDs are equal, so the hot
// paths — tag-set accumulation in the database executor, dependency
// registration and invalidation matching in the cache server, tag merging in
// the library's cacheable frames — compare and hash machine words instead of
// re-concatenating and re-comparing strings. The zero TagID is "no tag".
//
// TagIDs are process-local: they are assigned in first-intern order by a
// process-global interner and carry no meaning on the wire. Wire codecs
// (invalidation messages, cache put/lookup frames, dbnet results) transmit
// the string form and re-intern at decode.
type TagID uint32

// internEntry is the interner's record for one TagID.
type internEntry struct {
	tag Tag
	// wild is the TagID of the same table's wildcard tag (== the entry's
	// own id for wildcard tags). Precomputing it makes dual-granularity
	// matching ("a key change affects table-scan dependents and vice
	// versa") two array loads and an integer compare.
	wild TagID
}

// interner is the process-global tag table. Lookups are a read-locked map
// probe keyed by a composite byte key, which Go compiles allocation-free
// for map[string] indexed with string(bytes); reverse lookups read an
// immutable prefix of the entries slice through an atomic snapshot, so
// TagOf/WildOf take no lock at all.
//
// The table is bounded (SetInternLimit): wire decoders intern whatever
// tags a peer sends, so an unbounded table would be remotely drivable.
// TagIDs embedded in consumer state (cache-server posting lists, library
// frames) make recycling IDs unsound — a recycled ID would silently change
// meaning under its holders — so instead of an eviction epoch, tags first
// seen at the cap degrade to coarser, already-interned granularities:
//
//	key tag   -> its table's wildcard (when that table is known)
//	otherwise -> the reserved overflow wildcard (interned at init)
//
// Degradation only ever widens matching (a wildcard affects strictly more
// dependents than any of its key tags), so correctness is preserved at the
// cost of extra invalidations; memory stays bounded no matter what a peer
// sends. The overflow wildcard is the terminal rollover epoch: every
// beyond-cap tag of an unknown table shares it, on every node, because its
// canonical wire form re-interns to the same reserved entry.
type interner struct {
	mu      sync.RWMutex
	ids     map[string]TagID
	entries atomic.Pointer[[]internEntry] // entries[id-1]; append-only prefix
	limit   int
	degrade atomic.Uint64 // interns answered with a coarser tag
	over    TagID         // the reserved overflow wildcard
}

// DefaultInternLimit bounds the process-global tag table. At ~64 bytes per
// entry the default caps interner memory in the tens of MB; production
// deployments size it to their hot-key cardinality via SetInternLimit.
const DefaultInternLimit = 1 << 20

// overflowTable names the reserved overflow wildcard's pseudo-table. SQL
// identifiers cannot contain NUL, so it collides with no real table.
const overflowTable = "\x00overflow"

var global = newInterner()

func newInterner() *interner {
	in := &interner{ids: make(map[string]TagID, 256), limit: DefaultInternLimit}
	empty := make([]internEntry, 0, 256)
	in.entries.Store(&empty)
	k := internKey(nil, overflowTable, "", true)
	in.over = in.intern(k, Tag{Table: overflowTable, Wildcard: true})
	return in
}

// SetInternLimit caps the number of distinct tags the process-global
// interner will hold; beyond it, new tags degrade to coarser granularities
// (see the interner doc). Lowering the limit below the current count stops
// growth but evicts nothing. The floor is 64.
func SetInternLimit(n int) {
	if n < 64 {
		n = 64
	}
	global.mu.Lock()
	global.limit = n
	global.mu.Unlock()
}

// InternLimit returns the current interner cap.
func InternLimit() int {
	global.mu.RLock()
	defer global.mu.RUnlock()
	return global.limit
}

// OverflowID returns the reserved overflow wildcard: the tag every
// beyond-cap tag of an unknown table degrades to.
func OverflowID() TagID { return global.over }

// DegradedCount returns how many intern requests were answered with a
// coarser tag because the table was at its cap (monitoring).
func DegradedCount() uint64 { return global.degrade.Load() }

// internKey builds the composite lookup key for a tag. Wildcard tags are
// canonicalized to their table (any Key field is ignored, as wildcard
// matching always has), so "items:?" interns to one ID however it was
// constructed. SQL identifiers cannot contain NUL, which makes the
// table/key split unambiguous even for binary key values.
func internKey(dst []byte, table, key string, wildcard bool) []byte {
	if wildcard {
		dst = append(dst, 'w')
		return append(dst, table...)
	}
	dst = append(dst, 'k')
	dst = append(dst, table...)
	dst = append(dst, 0)
	return append(dst, key...)
}

// lookup probes the table without allocating; k aliases scratch bytes.
func (in *interner) lookup(k []byte) (TagID, bool) {
	in.mu.RLock()
	id, ok := in.ids[string(k)]
	in.mu.RUnlock()
	return id, ok
}

// intern inserts t (already canonicalized when wildcard) under key k,
// returning the existing ID on a race. At the cap, new tags are not
// inserted: they degrade to the coarsest already-interned covering tag.
func (in *interner) intern(k []byte, t Tag) TagID {
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[string(k)]; ok {
		return id
	}
	if t.Wildcard {
		cur := *in.entries.Load()
		if len(cur) >= in.limit {
			in.degrade.Add(1)
			return in.over
		}
		id := TagID(len(cur) + 1)
		next := append(cur, internEntry{tag: t, wild: id})
		in.entries.Store(&next)
		in.ids[string(k)] = id
		return id
	}
	// Key tag: resolve (possibly creating) the table's wildcard first so
	// the entry can point at it — and so a beyond-cap key tag has it to
	// degrade to.
	wild, ok := in.wildLocked(t.Table)
	if !ok {
		in.degrade.Add(1)
		return in.over
	}
	cur := *in.entries.Load() // wildLocked may have appended
	if len(cur) >= in.limit {
		in.degrade.Add(1)
		return wild
	}
	id := TagID(len(cur) + 1)
	next := append(cur, internEntry{tag: t, wild: wild})
	in.entries.Store(&next)
	in.ids[string(k)] = id
	return id
}

// wildLocked resolves the wildcard tag for table, interning it when room
// remains; ok is false when the table is unknown and the cap is reached.
// Caller holds mu.
func (in *interner) wildLocked(table string) (TagID, bool) {
	k := internKey(nil, table, "", true)
	if id, ok := in.ids[string(k)]; ok {
		return id, true
	}
	cur := *in.entries.Load()
	if len(cur) >= in.limit {
		return 0, false
	}
	id := TagID(len(cur) + 1)
	next := append(cur, internEntry{tag: WildcardTag(table), wild: id})
	in.entries.Store(&next)
	in.ids[string(k)] = id
	return id, true
}

// Intern returns the TagID for t, assigning one on first sight.
func Intern(t Tag) TagID {
	if t.Wildcard {
		t.Key = "" // canonical wildcard form
	}
	var scratch [64]byte
	k := internKey(scratch[:0], t.Table, t.Key, t.Wildcard)
	if id, ok := global.lookup(k); ok {
		return id
	}
	return global.intern(k, t)
}

// InternParts interns the tag (table, key, wildcard) given as decoded wire
// parts, allocation-free after the first sight of the tag.
func InternParts(scratch []byte, table, key string, wildcard bool) (TagID, []byte) {
	scratch = internKey(scratch[:0], table, key, wildcard)
	if id, ok := global.lookup(scratch); ok {
		return id, scratch
	}
	if wildcard {
		key = ""
	}
	return global.intern(scratch, Tag{Table: table, Key: key, Wildcard: wildcard}), scratch
}

// InternKeyBytes interns the key tag "table:column=value" with the value
// given as pre-formatted bytes. The composite lookup key is built in
// scratch (returned for reuse); after a tag has been seen once the whole
// call allocates nothing, which is what keeps the executor's per-scan tag
// accounting off the heap.
func InternKeyBytes(scratch []byte, table, column string, value []byte) (TagID, []byte) {
	id, scratch, ok := LookupKeyBytes(scratch, table, column, value)
	if ok {
		return id, scratch
	}
	key := make([]byte, 0, len(column)+1+len(value))
	key = append(key, column...)
	key = append(key, '=')
	key = append(key, value...)
	return global.intern(scratch, Tag{Table: table, Key: string(key)}), scratch
}

// LookupKeyBytes is InternKeyBytes without the interning: ok is false, and
// the table untouched, when the tag has never been interned. A caller that
// would discard a brand-new tag uses it to avoid creating one.
func LookupKeyBytes(scratch []byte, table, column string, value []byte) (id TagID, _ []byte, ok bool) {
	scratch = scratch[:0]
	scratch = append(scratch, 'k')
	scratch = append(scratch, table...)
	scratch = append(scratch, 0)
	scratch = append(scratch, column...)
	scratch = append(scratch, '=')
	scratch = append(scratch, value...)
	id, ok = global.lookup(scratch)
	return id, scratch, ok
}

// InternWildcard interns the table-granularity tag for table.
func InternWildcard(table string) TagID {
	var scratch [64]byte
	k := internKey(scratch[:0], table, "", true)
	if id, ok := global.lookup(k); ok {
		return id
	}
	return global.intern(k, WildcardTag(table))
}

// TagOf returns the Tag an ID was interned from (the canonical form for
// wildcards). The zero ID returns the zero Tag.
func TagOf(id TagID) Tag {
	if id == 0 {
		return Tag{}
	}
	return (*global.entries.Load())[id-1].tag
}

// WildOf returns the TagID of the wildcard tag covering id's table
// (id itself when id is a wildcard). The zero ID maps to zero.
func WildOf(id TagID) TagID {
	if id == 0 {
		return 0
	}
	return (*global.entries.Load())[id-1].wild
}

// IsWildcard reports whether id names a table-granularity tag.
func IsWildcard(id TagID) bool { return id != 0 && WildOf(id) == id }

// Affects reports whether a committed transaction's tag mt invalidates a
// cached value depending on tag vt, honoring dual granularity in both
// directions: equal tags match, a wildcard matches every tag of its table,
// and any key change matches the table's wildcard dependents. It is the
// TagID form of the pairwise string comparison the cache server used to do
// per history message.
func Affects(mt, vt TagID) bool {
	if mt == vt {
		return mt != 0
	}
	wm, wv := WildOf(mt), WildOf(vt)
	return wm == wv && (mt == wm || vt == wv)
}

// InternerStats is the operator's view of the process-global tag table:
// how full it is, and how many interns it has already answered with a
// coarser tag because it was full (each one widens what an invalidation
// hits). The daemons publish it wherever they publish their own counters.
type InternerStats struct {
	Interned int    `json:"interned"`
	Limit    int    `json:"limit"`
	Degraded uint64 `json:"degraded"`
}

// InternerSnapshot reads the process-global interner's InternerStats.
func InternerSnapshot() InternerStats {
	return InternerStats{Interned: InternedCount(), Limit: InternLimit(), Degraded: DegradedCount()}
}

// InternedCount returns the number of distinct tags interned so far
// (monitoring; the interner grows with the set of distinct hot keys up to
// SetInternLimit and is never compacted — see the interner doc for why
// beyond-cap tags degrade instead of evicting).
func InternedCount() int { return len(*global.entries.Load()) }
