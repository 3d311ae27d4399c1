// Package btree implements an in-memory B+tree mapping byte-string keys to
// posting lists of row IDs. It is the index structure for the database
// substrate: non-unique secondary indexes store one posting per row version
// whose key matches, and range scans walk the leaf level in order.
//
// The tree is not safe for concurrent mutation; the database serializes
// writers per table. Concurrent readers with no writer are safe.
package btree

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// degree is the maximum number of keys per node. Chosen so nodes stay within
// a couple of cache lines of pointers; correctness does not depend on it.
// A leaf's multi bitmap is a uint32, so degree may not exceed 32.
const degree = 32

var _ [32 - degree]struct{}

// maxOff is the largest start offset a leaf can record for a key in its
// arena. Only starts are stored, so a single key may be any length; a leaf
// counts as full for an insert that would push some key's start past maxOff.
const maxOff = math.MaxUint16

// arenaSlack bounds the room a growing arena reserves for the keys a leaf
// has yet to receive.
const arenaSlack = 512

// Tree is a B+tree from []byte keys to []uint64 posting lists.
// The zero value is not usable; call New.
type Tree struct {
	root   *inner
	size   int // number of distinct keys
	leaves int
	bytes  int // heap held by the leaf level, see Stats
}

// inner is an internal node. Exactly one of kids and leaves is non-nil, and
// it holds len(keys)+1 children. Separators own their bytes: they never
// alias a leaf's arena, which moves as the leaf grows.
type inner struct {
	keys   [][]byte
	kids   []*inner
	leaves []*leaf
}

// leaf packs up to degree entries with no per-entry allocation: the keys
// lie back to back in arena (entry i starts at offs[i] and ends where entry
// i+1 starts, the last at len(arena)), and an entry with a single posting
// keeps it in posts[i]. Only an entry with two or more postings — bit i of
// multi set — owns a sorted list, over[rank of bit i among the set bits],
// and then posts[i] is unused. The two slice pointers are all the collector
// traces.
type leaf struct {
	arena []byte
	over  [][]uint64
	multi uint32
	n     uint16
	offs  [degree]uint16
	posts [degree]uint64
}

const leafSize = int(unsafe.Sizeof(leaf{}))

// New returns an empty tree.
func New() *Tree {
	t := &Tree{}
	t.root = &inner{leaves: []*leaf{t.newLeaf()}}
	return t
}

func (t *Tree) newLeaf() *leaf {
	t.leaves++
	t.bytes += leafSize
	return &leaf{}
}

// setArena and setOver replace a leaf's slices, keeping the byte count of
// what the leaf level holds: every change of capacity goes through them.
func (t *Tree) setArena(l *leaf, arena []byte) {
	t.bytes += cap(arena) - cap(l.arena)
	l.arena = arena
}

func (t *Tree) setOver(l *leaf, over [][]uint64) {
	t.bytes += int(unsafe.Sizeof(over)) * (cap(over) - cap(l.over))
	l.over = over
}

// Stats is the tree's running account of its leaf level, kept as it mutates.
type Stats struct {
	Entries int // distinct keys
	Leaves  int
	Bytes   int // leaf structs (offsets and inline postings), key arenas and overflow posting lists, by capacity
}

// Stats returns the counters; O(1).
func (t *Tree) Stats() Stats {
	return Stats{Entries: t.size, Leaves: t.leaves, Bytes: t.bytes}
}

// Get returns the posting list for key (ids in ascending order), or nil.
// The result is a view into the tree, valid until the next mutation; it must
// not be modified.
func (t *Tree) Get(key []byte) []uint64 {
	n := t.root
	for n.leaves == nil {
		n = n.kids[childIndex(n.keys, key)]
	}
	l := n.leaves[childIndex(n.keys, key)]
	i, ok := l.search(key)
	if !ok {
		return nil
	}
	return l.postings(i)
}

// Op is one batched index mutation: insertion (default) or deletion of a
// single (key, id) posting pair.
type Op struct {
	Key []byte
	ID  uint64
	Del bool
}

// ApplyBatch applies ops in order. The batch is the tree's commit-path API:
// the database coalesces a commit's index maintenance into one sorted
// batch per index, so consecutive ops landing in the same leaf reuse the
// position from the previous op instead of paying a root descent each.
// Unsorted batches are correct but descend per op. Inserted keys are
// copied, so ops may alias reusable encoding buffers.
func (t *Tree) ApplyBatch(ops []Op) {
	var c cursor
	for i := range ops {
		if op := &ops[i]; op.Del {
			t.delete(&c, op.Key, op.ID)
		} else {
			t.insert(&c, op.Key, op.ID)
		}
	}
}

// cursor remembers the leaf the previous op of a batch landed in, with the
// separators bounding it: every key in [lo, hi) belongs to that leaf (nil
// lo/hi mean unbounded on the leftmost/rightmost path).
type cursor struct {
	l      *leaf
	lo, hi []byte
}

func (t *Tree) seekCursor(c *cursor, key []byte) {
	if c.l == nil ||
		(c.hi != nil && bytes.Compare(key, c.hi) >= 0) ||
		(c.lo != nil && bytes.Compare(key, c.lo) < 0) {
		*c = t.seek(key, false)
	}
}

// insert adds id to key's posting list, starting from c's leaf. Duplicate
// (key, id) pairs are coalesced; inserting an existing pair is a no-op.
func (t *Tree) insert(c *cursor, key []byte, id uint64) {
	t.seekCursor(c, key)
	if !t.insertInLeaf(c.l, key, id) {
		*c = t.seek(key, true)
		t.insertInLeaf(c.l, key, id)
	}
}

// delete removes id from key's posting list, starting from c's leaf, and
// reports whether the pair was present. A key leaves its leaf with its last
// posting, and a leaf leaves the tree with its last key; underfull nodes are
// not merged.
func (t *Tree) delete(c *cursor, key []byte, id uint64) bool {
	t.seekCursor(c, key)
	ok := t.deleteInLeaf(c.l, key, id)
	if ok && c.l.n == 0 {
		t.prune(key)
		*c = cursor{}
	}
	return ok
}

// seek descends to the leaf owning key, returning it with the tightest
// separators seen on the path. When forInsert, full internal nodes along
// the path are split first, and so is the leaf if it lacks key and has no
// room for it, so the returned leaf can accept the insertion.
func (t *Tree) seek(key []byte, forInsert bool) cursor {
	var lo, hi []byte
	if forInsert && t.root.full() {
		t.root = &inner{kids: []*inner{t.root}}
		t.root.splitKid(0, key, true)
	}
	n := t.root
	for {
		i := childIndex(n.keys, key)
		if forInsert {
			if n.leaves == nil && n.kids[i].full() {
				n.splitKid(i, key, hi == nil && i == len(n.keys))
				i = childIndex(n.keys, key)
			} else if n.leaves != nil {
				c := n.leaves[i]
				if pos, ok := c.search(key); !ok && !c.room(0, int(c.n), pos, len(key)) {
					rightmost := hi == nil && i == len(n.keys)
					t.splitLeaf(n, i, pos, key, rightmost)
					i = childIndex(n.keys, key)
				}
			}
		}
		if i > 0 {
			lo = n.keys[i-1]
		}
		if i < len(n.keys) {
			hi = n.keys[i]
		}
		if n.leaves != nil {
			return cursor{n.leaves[i], lo, hi}
		}
		n = n.kids[i]
	}
}

// insertInLeaf adds (key, id) to the leaf owning key and reports whether it
// could: false means key is new and the leaf has no room for it, and nothing
// changed. Posting lists are kept sorted ascending: the duplicate check is
// a binary search instead of a linear scan (hot keys accumulate thousands of
// postings under write-heavy load), and because the database hands out row
// IDs monotonically, the common insert degenerates to an append at the tail.
func (t *Tree) insertInLeaf(l *leaf, key []byte, id uint64) bool {
	i, ok := l.search(key)
	if !ok {
		if !l.room(0, int(l.n), i, len(key)) {
			return false
		}
		t.insertEntry(l, i, key, id)
		t.size++
		return true
	}
	bit := uint32(1) << i
	r := l.rank(i)
	if l.multi&bit == 0 {
		if p := l.posts[i]; p != id {
			ps := []uint64{min(p, id), max(p, id)}
			t.bytes += 8 * cap(ps)
			t.setOver(l, slices.Insert(l.over, r, ps))
			l.multi |= bit
		}
		return true
	}
	ps := l.over[r]
	j := postSearch(ps, id)
	if j == len(ps) || ps[j] != id {
		t.bytes -= 8 * cap(ps)
		ps = slices.Insert(ps, j, id)
		t.bytes += 8 * cap(ps)
		l.over[r] = ps
	}
	return true
}

// insertEntry places key with one posting at position i of a leaf that has
// room for it, copying key into the arena.
func (t *Tree) insertEntry(l *leaf, i int, key []byte, id uint64) {
	n, start, end := int(l.n), l.off(i), len(l.arena)
	if need := end + len(key); need > cap(l.arena) {
		// Reserve what the leaf's remaining slots would take at its mean
		// key length, so a leaf of same-sized keys allocates its arena once.
		want := need + min(need/(n+1)*(degree-n-1), arenaSlack)
		t.setArena(l, slices.Grow(l.arena[:end:end], want-end))
	}
	l.arena = l.arena[:end+len(key)]
	copy(l.arena[start+len(key):], l.arena[start:end])
	copy(l.arena[start:], key)
	copy(l.offs[i+1:n+1], l.offs[i:n])
	for j := i + 1; j <= n; j++ {
		l.offs[j] += uint16(len(key))
	}
	l.offs[i] = uint16(start)
	copy(l.posts[i+1:n+1], l.posts[i:n])
	l.posts[i] = id
	low := uint32(1)<<i - 1
	l.multi = l.multi&low | l.multi&^low<<1
	l.n++
}

// deleteInLeaf removes (key, id) from the leaf that owns key, preserving
// posting order; the entry goes with its last posting.
func (t *Tree) deleteInLeaf(l *leaf, key []byte, id uint64) bool {
	i, ok := l.search(key)
	if !ok {
		return false
	}
	bit := uint32(1) << i
	if l.multi&bit == 0 {
		if l.posts[i] != id {
			return false
		}
		n, start, next := int(l.n), l.off(i), l.off(i+1)
		l.arena = l.arena[:start+copy(l.arena[start:], l.arena[next:])]
		copy(l.offs[i:], l.offs[i+1:n])
		for j := i; j < n-1; j++ {
			l.offs[j] -= uint16(next - start)
		}
		copy(l.posts[i:], l.posts[i+1:n])
		low := bit - 1
		l.multi = l.multi&low | l.multi>>1&^low
		l.n--
		t.size--
		return true
	}
	r := l.rank(i)
	ps := l.over[r]
	j := postSearch(ps, id)
	if j == len(ps) || ps[j] != id {
		return false
	}
	if len(ps) > 2 {
		l.over[r] = slices.Delete(ps, j, j+1)
		return true
	}
	// One posting left: it moves inline and the list is released.
	l.posts[i] = ps[1-j]
	l.multi &^= bit
	t.bytes -= 8 * cap(ps)
	if len(l.over) == 1 {
		t.setOver(l, nil)
	} else {
		l.over = slices.Delete(l.over, r, r+1)
	}
	return true
}

// prune unlinks the emptied leaf that owned key, and every internal node
// that loses its last child with it. The tree's only leaf stays, without
// its arena.
func (t *Tree) prune(key []byte) {
	if len(t.root.leaves) == 1 {
		t.setArena(t.root.leaves[0], nil)
		return
	}
	t.root.prune(t, key)
	for len(t.root.kids) == 1 {
		t.root = t.root.kids[0]
	}
}

// prune removes the empty leaf on key's path from n's subtree and reports
// whether n is left with no child.
func (n *inner) prune(t *Tree, key []byte) bool {
	i := childIndex(n.keys, key)
	if n.leaves != nil {
		t.leaves--
		t.bytes -= leafSize + cap(n.leaves[i].arena)
		n.leaves = slices.Delete(n.leaves, i, i+1)
	} else {
		if !n.kids[i].prune(t, key) {
			return false
		}
		n.kids = slices.Delete(n.kids, i, i+1)
	}
	// The neighbour's range grows over the removed child's.
	if len(n.keys) > 0 {
		s := max(i-1, 0)
		n.keys = slices.Delete(n.keys, s, s+1)
	}
	return len(n.leaves)+len(n.kids) == 0
}

// postSearch returns the index of the first posting >= id. The tail is
// checked first: database row IDs are handed out monotonically, so live
// inserts nearly always land past the current maximum.
func postSearch(ps []uint64, id uint64) int {
	n := len(ps)
	if n == 0 || ps[n-1] < id {
		return n
	}
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ps[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Item is one key with its posting list (ids sorted ascending, the tree's
// posting invariant), for bulk loading.
type Item struct {
	Key   []byte
	Posts []uint64
}

// bulkFill is the per-node occupancy bulk loading targets: packed enough to
// keep trees shallow, loose enough that the first post-build inserts do not
// immediately split every node.
const bulkFill = degree * 3 / 4

// BulkLoad builds a tree from items sorted by strictly ascending key,
// packing leaves left to right and constructing the internal levels
// bottom-up — the index (re)build path, replacing one insert descent per
// row version. Keys and posting lists are copied; an item without postings
// is skipped.
func BulkLoad(items []Item) *Tree {
	t := &Tree{}
	var level []*leaf
	var first [][]byte // first key of each node's subtree, per level
	var l *leaf
	for _, it := range items {
		if len(it.Posts) == 0 {
			continue
		}
		if l == nil || l.n == bulkFill || !l.room(0, int(l.n), int(l.n), len(it.Key)) {
			l = t.newLeaf()
			level = append(level, l)
			first = append(first, bytes.Clone(it.Key))
		}
		t.insertEntry(l, int(l.n), it.Key, it.Posts[0])
		if len(it.Posts) > 1 {
			ps := slices.Clone(it.Posts)
			t.bytes += 8 * cap(ps)
			t.setOver(l, append(l.over, ps))
			l.multi |= 1 << (l.n - 1)
		}
		t.size++
	}
	if len(level) == 0 {
		return New()
	}
	// Internal levels. A child group never has fewer than two members (the
	// remainder folds into the previous group), so no degenerate one-child
	// parents are built above a multi-node level; group sizes stay well
	// under the split threshold.
	nodes, first := groupLevel(level, first, func(n *inner, c []*leaf) { n.leaves = c })
	for len(nodes) > 1 {
		nodes, first = groupLevel(nodes, first, func(n *inner, c []*inner) { n.kids = c })
	}
	t.root = nodes[0]
	return t
}

// groupLevel builds the parents of one level of children: first[i] is the
// smallest key under children[i], and the result carries the same for the
// parents.
func groupLevel[C any](children []C, first [][]byte, attach func(*inner, []C)) ([]*inner, [][]byte) {
	var parents []*inner
	var pfirst [][]byte
	for start := 0; start < len(children); {
		end := min(start+bulkFill+1, len(children))
		if len(children)-end == 1 {
			end = len(children)
		}
		p := &inner{keys: slices.Clone(first[start+1 : end])}
		attach(p, slices.Clone(children[start:end]))
		parents = append(parents, p)
		pfirst = append(pfirst, first[start])
		start = end
	}
	return parents, pfirst
}

// AscendRange calls fn for each key in [lo, hi) in ascending order, with its
// posting list. A nil hi means "to the end". fn returning false stops the
// scan. key and posts are views into the tree: fn must not retain or modify
// them, nor mutate the tree.
func (t *Tree) AscendRange(lo, hi []byte, fn func(key []byte, posts []uint64) bool) {
	t.root.ascend(lo, hi, fn)
}

// ascend walks n's subtree from lo and reports whether the scan should go
// on past it.
func (n *inner) ascend(lo, hi []byte, fn func(key []byte, posts []uint64) bool) bool {
	for i := childIndex(n.keys, lo); i <= len(n.keys); i++ {
		if n.leaves != nil {
			if !n.leaves[i].ascend(lo, hi, fn) {
				return false
			}
		} else if !n.kids[i].ascend(lo, hi, fn) {
			return false
		}
		lo = nil // only the first child on the path starts mid-way
	}
	return true
}

func (l *leaf) ascend(lo, hi []byte, fn func(key []byte, posts []uint64) bool) bool {
	i := 0
	if lo != nil {
		i, _ = l.search(lo)
	}
	for ; i < int(l.n); i++ {
		k := l.key(i)
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			return false
		}
		if !fn(k, l.postings(i)) {
			return false
		}
	}
	return true
}

func (n *inner) full() bool { return len(n.keys) >= degree }

// splitKid splits the full internal child at index i, on the path of an
// insert of key, hoisting its median key — or its last, when the child is on
// the tree's rightmost spine and key goes past everything in it: the rule
// splitLeaf has, one level up, so keys arriving in order leave full internal
// nodes behind too. The new right node then starts with the one child the
// insert descends into.
func (n *inner) splitKid(i int, key []byte, rightmost bool) {
	c := n.kids[i]
	mid := len(c.keys) / 2
	if rightmost && bytes.Compare(key, c.keys[len(c.keys)-1]) >= 0 {
		mid = len(c.keys) - 1
	}
	sep := c.keys[mid]
	right := &inner{keys: slices.Clone(c.keys[mid+1:])}
	clear(c.keys[mid:])
	c.keys = c.keys[:mid]
	if c.leaves != nil {
		right.leaves = slices.Clone(c.leaves[mid+1:])
		clear(c.leaves[mid+1:])
		c.leaves = c.leaves[:mid+1]
	} else {
		right.kids = slices.Clone(c.kids[mid+1:])
		clear(c.kids[mid+1:])
		c.kids = c.kids[:mid+1]
	}
	n.keys = slices.Insert(n.keys, i, sep)
	n.kids = slices.Insert(n.kids, i+1, right)
}

// splitLeaf splits n's leaf child ci to make room for key, which is absent
// and belongs at position pos of it. The cut is the middle — except for an
// insert past the last key of the tree's rightmost leaf, which cuts at the
// insertion point: keys arriving in order then leave full leaves behind, not
// half-empty ones. Should the half that receives key still lack room for it
// (long keys fill a leaf by bytes before they fill it by count), the cut
// falls back to the insertion point, where the receiving side always has.
func (t *Tree) splitLeaf(n *inner, ci, pos int, key []byte, rightmost bool) {
	l := n.leaves[ci]
	cnt := int(l.n)
	p := cnt / 2
	if pos == cnt && rightmost {
		p = cnt
	}
	if pos <= p && !l.room(0, p, pos, len(key)) || pos > p && !l.room(p, cnt, pos, len(key)) {
		p = pos
	}
	var sep []byte
	if p == cnt {
		sep = bytes.Clone(key)
	} else {
		sep = bytes.Clone(l.key(p))
	}
	right := t.newLeaf()
	if m := cnt - p; m > 0 {
		base, end := l.off(p), len(l.arena)
		used := end - base
		t.setArena(right, slices.Grow(right.arena, used+min(used/m*(degree-m), arenaSlack))[:used])
		copy(right.arena, l.arena[base:])
		l.arena = l.arena[:base]
		for j := 0; j < m; j++ {
			right.offs[j] = l.offs[p+j] - uint16(base)
		}
		copy(right.posts[:], l.posts[p:cnt])
		if r := l.rank(p); r < len(l.over) {
			t.setOver(right, slices.Clone(l.over[r:]))
			if r == 0 {
				t.setOver(l, nil)
			} else {
				l.over = slices.Delete(l.over, r, len(l.over))
			}
		}
		right.multi = l.multi >> p
		l.multi &= 1<<p - 1
		right.n = uint16(m)
		l.n = uint16(p)
	}
	n.keys = slices.Insert(n.keys, ci, sep)
	n.leaves = slices.Insert(n.leaves, ci+1, right)
}

// off returns where entry i starts in the arena; entry n "starts" at its end.
func (l *leaf) off(i int) int {
	if i < int(l.n) {
		return int(l.offs[i])
	}
	return len(l.arena)
}

func (l *leaf) key(i int) []byte { return l.arena[l.off(i):l.off(i+1)] }

// rank returns how many entries before i own an overflow list.
func (l *leaf) rank(i int) int { return bits.OnesCount32(l.multi & (1<<i - 1)) }

// postings returns entry i's posting list as a view.
func (l *leaf) postings(i int) []uint64 {
	if l.multi&(1<<i) != 0 {
		return l.over[l.rank(i)]
	}
	return l.posts[i : i+1 : i+1]
}

// room reports whether the run of entries [from, to), as a leaf of its own,
// could take one more key of klen bytes at position pos (from <= pos <= to):
// a free slot, and every start offset still within maxOff.
func (l *leaf) room(from, to, pos, klen int) bool {
	if to-from >= degree {
		return false
	}
	last := l.off(to) - l.off(from) // the new key goes last and starts here
	if pos < to {
		last = l.off(to-1) - l.off(from) + klen
	}
	return last <= maxOff
}

// search returns the index of the first key >= target, and whether it is an
// exact match.
func (l *leaf) search(target []byte) (int, bool) {
	lo, hi := 0, int(l.n)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(l.key(mid), target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < int(l.n) && bytes.Equal(l.key(lo), target)
}

// childIndex returns which child subtree of an internal node contains key.
// Internal separator keys route keys >= sep to the right child, matching the
// leaf-split convention above.
func childIndex(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
