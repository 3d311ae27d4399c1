package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.size != 0 {
		t.Fatal("new tree should be empty")
	}
	if got := tr.Get([]byte("x")); got != nil {
		t.Fatalf("Get on empty tree = %v", got)
	}
	calls := 0
	tr.AscendRange(nil, nil, func([]byte, []uint64) bool { calls++; return true })
	if calls != 0 {
		t.Fatal("AscendRange on empty tree should not call fn")
	}
}

func TestInsertGet(t *testing.T) {
	tr := New()
	insertOne(tr, []byte("b"), 2)
	insertOne(tr, []byte("a"), 1)
	insertOne(tr, []byte("c"), 3)
	insertOne(tr, []byte("a"), 10)
	insertOne(tr, []byte("a"), 1) // duplicate pair: no-op

	if tr.size != 3 {
		t.Fatalf("Len = %d, want 3", tr.size)
	}
	got := tr.Get([]byte("a"))
	want := map[uint64]bool{1: true, 10: true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("Get(a) = %v", got)
	}
}

// TestKeyAliasing: the tree owns every byte it keeps. One caller buffer is
// reused (and so overwritten) across inserts in an order that splits leaves
// in the middle, hoists separators, and then shifts and regrows the arenas
// those separators were cut from; every key must still be found through
// them, and every separator must still bound its children.
func TestKeyAliasing(t *testing.T) {
	tr := New()
	buf := make([]byte, 0, 16)
	const n = 4000
	for i := 0; i < n; i++ {
		buf = fmt.Appendf(buf[:0], "key-%05d", i*2654435761%n)
		insertOne(tr, buf, uint64(i))
		buf[0] = 'X' // caller reuses its buffer
	}
	check(t, tr)
	for i := 0; i < n; i++ {
		if got := tr.Get(fmt.Appendf(buf[:0], "key-%05d", i)); len(got) != 1 {
			t.Fatalf("Get(key-%05d) = %v: tree must copy keys on insert", i, got)
		}
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	insertOne(tr, []byte("k"), 1)
	insertOne(tr, []byte("k"), 2)
	if !deleteOne(tr, []byte("k"), 1) {
		t.Fatal("Delete existing pair should return true")
	}
	if deleteOne(tr, []byte("k"), 99) {
		t.Fatal("Delete missing id should return false")
	}
	if deleteOne(tr, []byte("nope"), 1) {
		t.Fatal("Delete missing key should return false")
	}
	if got := tr.Get([]byte("k")); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Get after delete = %v", got)
	}
	deleteOne(tr, []byte("k"), 2)
	if tr.size != 0 {
		t.Fatalf("Len after deleting all = %d", tr.size)
	}
	// Emptied keys must be invisible to scans.
	tr.AscendRange(nil, nil, func(k []byte, _ []uint64) bool {
		t.Fatalf("scan visited emptied key %q", k)
		return false
	})
	check(t, tr)
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		insertOne(tr, []byte(fmt.Sprintf("k%03d", i)), uint64(i))
	}
	var got []string
	tr.AscendRange([]byte("k010"), []byte("k020"), func(k []byte, _ []uint64) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 || got[0] != "k010" || got[9] != "k019" {
		t.Fatalf("range scan got %v", got)
	}
	// Early stop.
	n := 0
	tr.AscendRange(nil, nil, func([]byte, []uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
	// Unbounded hi.
	n = 0
	tr.AscendRange([]byte("k090"), nil, func([]byte, []uint64) bool { n++; return true })
	if n != 10 {
		t.Fatalf("open-ended range visited %d, want 10", n)
	}
}

// keyPool returns the key universe the reference tests draw from: lengths
// from 1 B to 8 KiB, so leaves fill by count (short keys), by bytes (the
// "big/" cluster: eight 8 KiB neighbours pass the 64 KiB a start offset can
// address) and around single keys longer than any offset ("huge/").
func keyPool(rng *rand.Rand) [][]byte {
	seen := map[string]bool{}
	var pool [][]byte
	add := func(prefix string, n int) {
		k := make([]byte, n)
		rng.Read(k)
		copy(k, prefix)
		if !seen[string(k)] {
			seen[string(k)] = true
			pool = append(pool, k)
		}
	}
	for i := 0; i < 2500; i++ {
		add("", 1+rng.Intn(24))
	}
	for i := 0; i < 200; i++ {
		add("", 1+rng.Intn(1024))
	}
	for i := 0; i < 400; i++ {
		add("big/", 1024+rng.Intn(7*1024+1))
	}
	for i := 0; i < 3; i++ {
		add("huge/", 70_000+rng.Intn(1000))
	}
	return pool
}

// refID draws a posting: few distinct values so pairs collide, half of them
// with the top bit set (a posting is a plain 64-bit value, no bit is spare).
func refID(rng *rand.Rand) uint64 {
	return uint64(rng.Intn(5)) | uint64(rng.Intn(2))<<63
}

// insertOne adds id to key's posting list as a batch of one op does: a
// fresh cursor, so a root descent. Inserting an existing pair is a no-op.
func insertOne(t *Tree, key []byte, id uint64) {
	var c cursor
	t.insert(&c, key, id)
}

// deleteOne removes id from key's posting list as a batch of one op does,
// and reports whether the pair was present.
func deleteOne(t *Tree, key []byte, id uint64) bool {
	var c cursor
	return t.delete(&c, key, id)
}

type reference map[string]map[uint64]bool

func (ref reference) insert(key []byte, id uint64) {
	if ref[string(key)] == nil {
		ref[string(key)] = map[uint64]bool{}
	}
	ref[string(key)][id] = true
}

func (ref reference) delete(key []byte, id uint64) bool {
	ids := ref[string(key)]
	if !ids[id] {
		return false
	}
	delete(ids, id)
	if len(ids) == 0 {
		delete(ref, string(key))
	}
	return true
}

// TestAgainstReference drives random operations against a map-based oracle.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := keyPool(rng)
	tr := New()
	ref := reference{}
	for op := 1; op <= 50000; op++ {
		key := pool[rng.Intn(len(pool))]
		id := refID(rng)
		switch rng.Intn(20) {
		default:
			insertOne(tr, key, id)
			ref.insert(key, id)
		case 0, 1, 2, 3, 4, 5:
			if got, want := deleteOne(tr, key, id), ref.delete(key, id); got != want {
				t.Fatalf("op %d: Delete(%.16q,%d) = %v, want %v", op, key, id, got, want)
			}
		case 6:
			// Delete to empty, then bring the same key back.
			for id := range ref[string(key)] {
				if !deleteOne(tr, key, id) {
					t.Fatalf("op %d: Delete(%.16q,%d) of a present pair = false", op, key, id)
				}
			}
			delete(ref, string(key))
			if got := tr.Get(key); got != nil {
				t.Fatalf("op %d: Get(%.16q) after deleting every posting = %v", op, key, got)
			}
			insertOne(tr, key, id)
			ref.insert(key, id)
		}
		if op%1000 == 0 {
			checkAgainst(t, tr, ref)
		}
	}
	// Random range scans against sorted reference.
	wantKeys := slices.Sorted(maps.Keys(ref))
	for trial := 0; trial < 200; trial++ {
		lo := string(pool[rng.Intn(len(pool))])
		hi := string(pool[rng.Intn(len(pool))])
		if lo > hi {
			lo, hi = hi, lo
		}
		var got []string
		tr.AscendRange([]byte(lo), []byte(hi), func(k []byte, _ []uint64) bool {
			got = append(got, string(k))
			return true
		})
		want := wantKeys[sort.SearchStrings(wantKeys, lo):sort.SearchStrings(wantKeys, hi)]
		if !slices.Equal(got, want) {
			t.Fatalf("range [%.16q,%.16q): got %d keys, want %d", lo, hi, len(got), len(want))
		}
	}
}

func TestLargeSequentialInsert(t *testing.T) {
	tr := New()
	const n = 20000
	for i := 0; i < n; i++ {
		insertOne(tr, []byte(fmt.Sprintf("%08d", i)), uint64(i))
	}
	if tr.size != n {
		t.Fatalf("Len = %d, want %d", tr.size, n)
	}
	prev := []byte(nil)
	count := 0
	tr.AscendRange(nil, nil, func(k []byte, posts []uint64) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order at %q", k)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan visited %d, want %d", count, n)
	}
}

// TestApplyBatchAgainstReference drives random sorted batches of mixed
// inserts and deletes against a map oracle and a twin tree mutated through
// the single-op API.
func TestApplyBatchAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := keyPool(rng)
	tr := New()
	twin := New()
	ref := reference{}
	applied := 0
	for round := 0; round < 1500; round++ {
		n := 1 + rng.Intn(64)
		ops := make([]Op, 0, n)
		for i := 0; i < n; i++ {
			ops = append(ops, Op{Key: pool[rng.Intn(len(pool))], ID: refID(rng), Del: rng.Intn(3) == 0})
		}
		if rng.Intn(8) == 0 {
			// Empty one key within the batch and reinsert it after.
			key := pool[rng.Intn(len(pool))]
			for id := range ref[string(key)] {
				ops = append(ops, Op{Key: key, ID: id, Del: true})
			}
			ops = append(ops, Op{Key: key, ID: refID(rng)})
		}
		slices.SortStableFunc(ops, func(a, b Op) int { return bytes.Compare(a.Key, b.Key) })
		tr.ApplyBatch(ops)
		for _, op := range ops {
			if op.Del {
				deleteOne(twin, op.Key, op.ID)
				ref.delete(op.Key, op.ID)
			} else {
				insertOne(twin, op.Key, op.ID)
				ref.insert(op.Key, op.ID)
			}
		}
		if applied += len(ops); applied >= 1000 {
			applied = 0
			checkAgainst(t, tr, ref)
		}
	}
	checkAgainst(t, tr, ref)
	checkAgainst(t, twin, ref)
}

// TestApplyBatchUnsorted: unsorted batches are legal, just slower. The
// batches deliberately jump backward across leaf boundaries of a multi-leaf
// tree — the cached-leaf reuse must re-seek when a key falls below the
// cached leaf's lower bound, not just above its upper bound.
func TestApplyBatchUnsorted(t *testing.T) {
	tr := New()
	ref := reference{}
	// Multi-leaf tree first.
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%03d", i)
		insertOne(tr, []byte(key), uint64(i))
		ref[key] = map[uint64]bool{uint64(i): true}
	}
	// Descending inserts into a populated tree: every op is below the
	// previously cached leaf.
	var ops []Op
	for i := 499; i >= 0; i-- {
		ops = append(ops, Op{Key: []byte(fmt.Sprintf("k%03d", i)), ID: uint64(i + 1000)})
	}
	// A high key, then a far-left key, then a mid delete.
	ops = append(ops,
		Op{Key: []byte("k499"), ID: 7},
		Op{Key: []byte("k000"), ID: 9},
		Op{Key: []byte("k250"), ID: 250, Del: true},
	)
	tr.ApplyBatch(ops)
	for i := 0; i < 500; i++ {
		ref[fmt.Sprintf("k%03d", i)][uint64(i+1000)] = true
	}
	ref["k499"][7] = true
	ref["k000"][9] = true
	delete(ref["k250"], 250)
	checkAgainst(t, tr, ref)
}

// checkAgainst verifies the tree's structure, then Len, point lookups and
// the full scan (order, keys and posting lists) against a map reference.
func checkAgainst(t *testing.T, tr *Tree, ref reference) {
	t.Helper()
	check(t, tr)
	if tr.size != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.size, len(ref))
	}
	samePosts := func(key string, got []uint64) {
		t.Helper()
		ids := ref[key]
		if len(got) != len(ids) || !slices.IsSorted(got) {
			t.Fatalf("postings of %.16q = %v, want %d sorted ids", key, got, len(ids))
		}
		for _, id := range got {
			if !ids[id] {
				t.Fatalf("postings of %.16q hold unexpected id %d", key, id)
			}
		}
	}
	for key := range ref {
		samePosts(key, tr.Get([]byte(key)))
	}
	wantKeys := slices.Sorted(maps.Keys(ref))
	i := 0
	tr.AscendRange(nil, nil, func(k []byte, posts []uint64) bool {
		if i >= len(wantKeys) || string(k) != wantKeys[i] {
			t.Fatalf("scan position %d: got %.16q, want %.16q", i, k, wantKeys[i])
		}
		samePosts(wantKeys[i], posts)
		i++
		return true
	})
	if i != len(wantKeys) {
		t.Fatalf("scan visited %d keys, want %d", i, len(wantKeys))
	}
}

// check verifies the tree's structural invariants and its running counters
// against a full walk.
func check(t *testing.T, tr *Tree) {
	t.Helper()
	var entries, leaves, heap int
	var prev []byte
	first := true
	var walk func(n *inner, lo, hi []byte, depth int) int
	walk = func(n *inner, lo, hi []byte, depth int) int {
		if (n.kids == nil) == (n.leaves == nil) {
			t.Fatalf("internal node with kids=%v leaves=%v", n.kids != nil, n.leaves != nil)
		}
		if len(n.kids)+len(n.leaves) != len(n.keys)+1 {
			t.Fatalf("internal node: %d keys, %d children", len(n.keys), len(n.kids)+len(n.leaves))
		}
		if len(n.keys) > degree {
			t.Fatalf("internal node holds %d keys", len(n.keys))
		}
		height := -1
		for i := 0; i <= len(n.keys); i++ {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if clo != nil && chi != nil && bytes.Compare(clo, chi) >= 0 {
				t.Fatalf("separators out of order: %.16q >= %.16q", clo, chi)
			}
			h := 0
			if n.kids != nil {
				h = walk(n.kids[i], clo, chi, depth+1)
			} else {
				l := n.leaves[i]
				leaves++
				heap += leafSize + cap(l.arena) + int(unsafe.Sizeof(l.over))*cap(l.over)
				if l.n == 0 && (depth > 0 || len(n.leaves) > 1) {
					t.Fatal("empty leaf left in a tree with other leaves")
				}
				if int(l.n) > degree || bits.OnesCount32(l.multi) != len(l.over) || bits.Len32(l.multi) > int(l.n) {
					t.Fatalf("leaf: n=%d multi=%b over=%d", l.n, l.multi, len(l.over))
				}
				if l.n > 0 && l.offs[0] != 0 {
					t.Fatalf("leaf: first key starts at %d", l.offs[0])
				}
				for j := 0; j < int(l.n); j++ {
					if j > 0 && l.offs[j] < l.offs[j-1] || int(l.offs[j]) > len(l.arena) {
						t.Fatalf("leaf: offsets %v, arena %d", l.offs[:l.n], len(l.arena))
					}
					k := l.key(j)
					if !first && bytes.Compare(prev, k) >= 0 {
						t.Fatalf("keys out of order: %.16q then %.16q", prev, k)
					}
					if clo != nil && bytes.Compare(k, clo) < 0 || chi != nil && bytes.Compare(k, chi) >= 0 {
						t.Fatalf("key %.16q outside its leaf's bounds [%.16q, %.16q)", k, clo, chi)
					}
					prev, first = k, false
					if ps := l.postings(j); l.multi&(1<<j) != 0 {
						heap += 8 * cap(ps)
						if len(ps) < 2 || !slices.IsSorted(ps) || len(slices.Compact(slices.Clone(ps))) != len(ps) {
							t.Fatalf("overflow list %v", ps)
						}
					}
					entries++
				}
			}
			if height >= 0 && h != height {
				t.Fatal("leaves at different depths")
			}
			height = h
		}
		return height + 1
	}
	walk(tr.root, nil, nil, 0)
	if tr.root.kids != nil && len(tr.root.kids) < 2 {
		t.Fatal("root has a single internal child")
	}
	if got, want := tr.Stats(), (Stats{Entries: entries, Leaves: leaves, Bytes: heap}); got != want {
		t.Fatalf("Stats() = %+v, a walk finds %+v", got, want)
	}
}

// TestBulkLoad builds trees of many sizes and verifies content, order, and
// that post-build mutation through every API still works.
func TestBulkLoad(t *testing.T) {
	for _, n := range []int{0, 1, 2, bulkFill, bulkFill + 1, 100, (bulkFill+1)*bulkFill + 1, 1000, 20000} {
		items := make([]Item, 0, n)
		ref := reference{}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("%08d", i*3)
			posts := []uint64{uint64(i), uint64(i + 1)}
			items = append(items, Item{Key: []byte(key), Posts: posts})
			ref[key] = map[uint64]bool{uint64(i): true, uint64(i + 1): true}
		}
		tr := BulkLoad(items)
		checkAgainst(t, tr, ref)
		if n == 0 {
			continue
		}
		// The loaded tree accepts further mutations.
		insertOne(tr, []byte("zzz"), 1)
		ref["zzz"] = map[uint64]bool{1: true}
		tr.ApplyBatch([]Op{
			{Key: []byte("%%%"), ID: 9},
			{Key: []byte(fmt.Sprintf("%08d", 0)), ID: 0, Del: true},
		})
		ref["%%%"] = map[uint64]bool{9: true}
		delete(ref[fmt.Sprintf("%08d", 0)], 0)
		checkAgainst(t, tr, ref)
	}
}

// TestBulkLoadAliasing: BulkLoad must copy keys and posting lists, into the
// leaves and into the separators above them. The caller's buffers are
// overwritten after the load, then inserts between the loaded keys shift and
// regrow every arena before the keys are read back.
func TestBulkLoadAliasing(t *testing.T) {
	const n = 2000
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: fmt.Appendf(nil, "key-%05d", i), Posts: []uint64{uint64(i), uint64(i) + 1<<63}}
	}
	tr := BulkLoad(items)
	for _, it := range items {
		it.Key[0] = 'X'
		it.Posts[0] = 99
	}
	for i := 0; i < n; i++ {
		insertOne(tr, fmt.Appendf(nil, "key-%05d+", i), 1)
	}
	check(t, tr)
	for i := 0; i < n; i++ {
		got := tr.Get(fmt.Appendf(nil, "key-%05d", i))
		if len(got) != 2 || got[0] != uint64(i) {
			t.Fatalf("BulkLoad must copy inputs; Get(key-%05d) = %v", i, got)
		}
	}
	// Items without postings are not entries.
	tr = BulkLoad([]Item{{Key: []byte("a")}, {Key: []byte("b"), Posts: []uint64{1}}})
	checkAgainst(t, tr, reference{"b": {1: true}})
}

// intKey is the 9-byte key sql.EncodeKey produces for a BIGINT: a type tag,
// then the value big-endian.
func intKey(buf []byte, i int) []byte {
	return binary.BigEndian.AppendUint64(append(buf[:0], 1), uint64(i))
}

// buildOrders are the four ways an index comes to hold n integer keys: in
// key order one op at a time (a primary key) and through ApplyBatch (the
// commit path), in random order, and by BulkLoad (recovery, CREATE INDEX).
var buildOrders = []struct {
	name    string
	ceiling float64 // TestBytesPerEntry's, bytes of live heap per entry
	build   func(n int) *Tree
}{
	{"InsertInOrder", 24, func(n int) *Tree {
		tr := New()
		var buf []byte
		for i := 0; i < n; i++ {
			buf = intKey(buf, i)
			insertOne(tr, buf, uint64(i))
		}
		return tr
	}},
	{"ApplyBatchInOrder", 24, func(n int) *Tree {
		tr := New()
		ops := make([]Op, 64)
		for i := range ops {
			ops[i].Key = make([]byte, 0, 9)
		}
		for i := 0; i < n; i += len(ops) {
			batch := ops[:min(len(ops), n-i)]
			for j := range batch {
				batch[j].Key, batch[j].ID = intKey(batch[j].Key, i+j), uint64(i+j)
			}
			tr.ApplyBatch(batch)
		}
		return tr
	}},
	{"InsertRandom", 40, func(n int) *Tree {
		tr := New()
		var buf []byte
		for i := 0; i < n; i++ {
			buf = intKey(buf, i*2654435761%n) // n is not a multiple of the odd prime multiplier: a permutation
			insertOne(tr, buf, uint64(i))
		}
		return tr
	}},
	{"BulkLoad", 40, func(n int) *Tree {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Key: intKey(nil, i), Posts: []uint64{uint64(i)}}
		}
		return BulkLoad(items)
	}},
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBytesPerEntry is the ratchet on what an index entry costs: live heap
// per 9-byte key with one posting, internal nodes included. A per-entry slice
// header or allocation cannot come back under these ceilings (the layout
// before this one measured 148, 148, 114 and 104 B).
func TestBytesPerEntry(t *testing.T) {
	const n = 200_000
	for _, order := range buildOrders {
		before := heapAlloc()
		tr := order.build(n)
		per := float64(heapAlloc()-before) / n
		st := tr.Stats()
		t.Logf("%-18s %5.1f B/entry (%d leaves, %.0f%% full, Stats().Bytes %.1f B/entry)",
			order.name, per, st.Leaves, 100*float64(st.Entries)/float64(st.Leaves*degree), float64(st.Bytes)/n)
		if tr.size != n {
			t.Fatalf("%s: Len = %d, want %d", order.name, tr.size, n)
		}
		if per > order.ceiling {
			t.Errorf("%s: %.1f B/entry, ceiling %.0f", order.name, per, order.ceiling)
		}
	}
}

// TestTailSplitFill: keys arriving in order split the rightmost leaf at the
// insertion point and the internal nodes above it at their end, so the nodes
// they leave behind are full.
func TestTailSplitFill(t *testing.T) {
	for _, order := range buildOrders[:2] {
		tr := order.build(100_000)
		check(t, tr)
		st := tr.Stats()
		if fill := float64(st.Entries) / float64(st.Leaves*degree); fill < 0.9 {
			t.Errorf("%s: mean leaf fill %.2f after in-order inserts, want >= 0.90", order.name, fill)
		}
		// The same one level up: an internal node off the rightmost spine
		// was cut at its end, not in its middle.
		var nodes, keys int
		var walk func(n *inner)
		walk = func(n *inner) {
			nodes, keys = nodes+1, keys+len(n.keys)
			for _, k := range n.kids {
				walk(k)
			}
		}
		walk(tr.root)
		if fill := float64(keys) / float64(nodes*degree); fill < 0.9 {
			t.Errorf("%s: mean internal fill %.2f (%d nodes) after in-order inserts, want >= 0.90", order.name, fill, nodes)
		}
	}
}

// TestInsertAllocs: a key that finds room in its leaf allocates nothing;
// only leaf growth and splits do.
func TestInsertAllocs(t *testing.T) {
	tr := buildOrders[3].build(10_000) // leaves 3/4 full, arenas sized for more
	var buf []byte
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		buf = append(intKey(buf, i*7), '+') // between two loaded keys, three or four to a leaf
		insertOne(tr, buf, 1)
		i++
	}); avg != 0 {
		t.Fatalf("Insert into a leaf with room: %.1f allocs/op, want 0", avg)
	}
}

// TestDeleteReleasesMemory: a key leaves its leaf with its last posting and a
// leaf leaves the tree with its last key, so a tree emptied by deletes is as
// small as a new one, and churn over fresh key ranges (a primary key under
// vacuum) does not accumulate.
func TestDeleteReleasesMemory(t *testing.T) {
	const n = 100_000
	tr := New()
	empty := heapAlloc()
	var buf []byte
	round := func(r int) {
		for i := r * n; i < (r+1)*n; i++ {
			buf = intKey(buf, i)
			insertOne(tr, buf, uint64(i))
		}
		for i := r * n; i < (r+1)*n; i++ {
			buf = intKey(buf, i)
			if !deleteOne(tr, buf, uint64(i)) {
				t.Fatalf("Delete(%d) = false", i)
			}
		}
		check(t, tr)
	}
	round(0)
	one, oneStats := heapAlloc(), tr.Stats()
	if tr.size != 0 || oneStats != New().Stats() {
		t.Fatalf("after deleting every key: Len = %d, Stats = %+v", tr.size, oneStats)
	}
	if float64(one) > 1.1*float64(empty) {
		t.Errorf("HeapAlloc %d after insert-all/delete-all, %d with the empty tree", one, empty)
	}
	for r := 1; r < 10; r++ {
		round(r)
	}
	if ten := heapAlloc(); float64(ten) > 1.1*float64(one) || tr.Stats() != oneStats {
		t.Errorf("ten rounds leave HeapAlloc %d and %+v, one round %d and %+v", ten, tr.Stats(), one, oneStats)
	}
	runtime.KeepAlive(tr)
}

// FuzzTreeOps decodes its input as a run of insert/delete/get/range ops over
// keys of every length class and checks the tree against a map after each.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte("\x00\x01a\x01\x00\x01a\x02\x04\x05b\x03\x00\x05b\x01"))
	f.Add(bytes.Repeat([]byte{0, 6, 'k', 9, 4, 6, 'j', 9}, 40))
	lengths := []int{0, 1, 2, 9, 300, 3000, 9000, 70_000}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New()
		ref := reference{}
		for ; len(data) >= 4; data = data[4:] {
			// op, key length class, key content, posting
			key := bytes.Repeat(data[2:3], lengths[int(data[1])%len(lengths)])
			id := uint64(data[3]&3) | uint64(data[3]>>7)<<63
			switch data[0] % 4 {
			case 0:
				insertOne(tr, key, id)
				ref.insert(key, id)
			case 1:
				if got, want := deleteOne(tr, key, id), ref.delete(key, id); got != want {
					t.Fatalf("Delete(%.8q/%d, %d) = %v, want %v", key, len(key), id, got, want)
				}
			case 2:
				if got := tr.Get(key); len(got) != len(ref[string(key)]) {
					t.Fatalf("Get(%.8q/%d) = %v, want %d ids", key, len(key), got, len(ref[string(key)]))
				}
			case 3:
				want := 0
				for k := range ref {
					if k >= string(key) {
						want++
					}
				}
				got := 0
				tr.AscendRange(key, nil, func([]byte, []uint64) bool { got++; return true })
				if got != want {
					t.Fatalf("AscendRange(%.8q/%d, nil) visited %d keys, want %d", key, len(key), got, want)
				}
			}
		}
		checkAgainst(t, tr, ref)
	})
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	keys := make([][]byte, 1<<16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%08d", i*2654435761%1000000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insertOne(tr, keys[i&(1<<16-1)], uint64(i))
	}
}

// BenchmarkApplyBatch measures sorted-batch application vs the equivalent
// per-op inserts (BenchmarkInsert), at the batch sizes commit groups see.
func BenchmarkApplyBatch(b *testing.B) {
	for _, size := range []int{8, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			tr := New()
			keys := make([][]byte, 1<<16)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("%08d", i*2654435761%1000000))
			}
			ops := make([]Op, size)
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				for j := range ops {
					ops[j] = Op{Key: keys[(i+j)&(1<<16-1)], ID: uint64(i + j)}
				}
				sort.Slice(ops, func(a, c int) bool { return bytes.Compare(ops[a].Key, ops[c].Key) < 0 })
				tr.ApplyBatch(ops)
			}
		})
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	for i := 0; i < 100000; i++ {
		insertOne(tr, []byte(fmt.Sprintf("%08d", i)), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get([]byte(fmt.Sprintf("%08d", i%100000)))
	}
}
