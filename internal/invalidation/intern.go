package invalidation

import "fmt"

// TagID is an invalidation tag in the form the hot paths carry — tag-set
// accumulation in the database executor, dependency registration and
// invalidation matching in the cache server, tag merging in the library's
// cacheable frames, and every wire protocol: 64 bits computed from the tag
// itself. The high half is a hash of the table name; the low half is a hash
// of the "column=value" key, and zero for the table's wildcard. The zero
// TagID is "no tag"; neither half of a key tag is ever zero.
//
// Equal tags have equal IDs, in every process and with no table to fill,
// so wherever IDs are compared a tag that should match does match. The
// converse does not hold: two tables, or two keys of one table, may share
// a half. A collision only widens a match — one more entry invalidated, one
// more tag deduplicated into a set that then covers both — which every
// consumer tolerates, because a wildcard already matches more than any of
// its keys (DESIGN.md "Memory discipline"). The hash is part of the wire
// protocol: TestGoldenIDs pins it.
type TagID uint64

const keyMask TagID = 1<<32 - 1

// FNV-1a, 64-bit, xor-folded to 32: seedless, so every binary built from
// this tree computes the same IDs, and one multiply per byte.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// fold reduces h to one nonzero half of a TagID.
func fold(h uint64) TagID {
	if f := uint32(h>>32) ^ uint32(h); f != 0 {
		return TagID(f)
	}
	return 1
}

// Intern returns the TagID of t. A wildcard's Key is ignored, as wildcard
// matching always has.
func Intern(t Tag) TagID {
	w := InternWildcard(t.Table)
	if t.Wildcard {
		return w
	}
	return w | fold(fnv(fnvOffset, t.Key))
}

// InternWildcard returns the TagID of table's wildcard tag.
func InternWildcard(table string) TagID { return fold(fnv(fnvOffset, table)) << 32 }

// KeyHash returns the low half of the key tag "table:column=value" of any
// table, the value given as pre-formatted bytes: wild | KeyHash(column,
// value) is Intern(KeyTag(table, column, string(value))) for the table whose
// wildcard is wild, without building the string.
func KeyHash(column string, value []byte) TagID {
	h := fnv(fnvOffset, column)
	h = (h ^ '=') * fnvPrime
	return fold(fnv(h, value))
}

// WildOf returns the TagID of the wildcard tag covering id's table
// (id itself when id is a wildcard). The zero ID maps to zero.
func WildOf(id TagID) TagID { return id &^ keyMask }

// IsWildcard reports whether id names a table-granularity tag.
func IsWildcard(id TagID) bool { return id != 0 && id&keyMask == 0 }

// Affects reports whether a committed transaction's tag mt invalidates a
// cached value depending on tag vt, honoring dual granularity in both
// directions: equal tags match, a wildcard matches every tag of its table,
// and any key change matches the table's wildcard dependents. It is the
// pairwise form of the rule the cache server's indexes apply (meets).
func Affects(mt, vt TagID) bool {
	if mt == vt {
		return mt != 0
	}
	wm, wv := WildOf(mt), WildOf(vt)
	return wm == wv && (mt == wm || vt == wv)
}

// String renders the two halves in hex, "?" for a wildcard's key half — the
// shape of Tag.String with hashes for names. To find a tag in such output,
// print its Intern.
func (id TagID) String() string {
	if IsWildcard(id) {
		return fmt.Sprintf("%08x:?", uint32(id>>32))
	}
	return fmt.Sprintf("%08x:%08x", uint32(id>>32), uint32(id))
}
