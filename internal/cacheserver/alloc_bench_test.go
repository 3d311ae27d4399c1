package cacheserver

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// Allocation-budget coverage for invalidation-stream processing: applying
// one message must walk the inverted tag index and truncate the affected
// versions without allocating — the per-message "affected" set is server
// scratch, tag comparisons are integer compares, and no strings are built.

// benchInvalServer seeds a node of the given shard count (0: the default)
// with still-valid versions, one per key tag.
func benchInvalServer(tb testing.TB, n, shards int) (*Server, []invalidation.TagID) {
	tb.Helper()
	s := New(Config{Shards: shards})
	payload := make([]byte, 256)
	tags := make([]invalidation.TagID, n)
	for i := 0; i < n; i++ {
		tags[i] = invalidation.Intern(invalidation.KeyTag("items", "id", fmt.Sprint(i)))
		s.Put(fmt.Sprintf("key-%d", i), payload,
			interval.Interval{Lo: interval.Timestamp(i + 1), Hi: interval.Infinity},
			true, interval.Timestamp(i+1), tags[i:i+1])
	}
	return s, tags
}

// BenchmarkInvalidateApply measures one stream message that invalidates
// one subscribed version (the version is re-installed each iteration so
// the index never empties), priced across what the every-shard walk scales
// with. shards: 8 is the default up to two cores, 64 the default at sixteen.
// tags: a single-row commit carries one; 64 is the most one table
// contributes before the database collapses them into its wildcard — here one
// tag with a subscriber and 63 key tags of the same table nobody depends on,
// so the extra cost is the walk's probes, not extra truncations. All the
// versions share one table wildcard: shared=65536 (8 shards, one tag) holds
// sixteen times the 4,096 the others hold under it, and costs what
// shards=8/tags=1 does unless taking a version off its table's list scans
// the list.
func BenchmarkInvalidateApply(b *testing.B) {
	for _, shards := range []int{8, 64} {
		for _, nTags := range []int{1, 64} {
			b.Run(fmt.Sprintf("shards=%d/tags=%d", shards, nTags), func(b *testing.B) {
				benchInvalidateApply(b, 4096, shards, nTags)
			})
		}
	}
	b.Run("shared=65536", func(b *testing.B) { benchInvalidateApply(b, 1<<16, 8, 1) })
}

func benchInvalidateApply(b *testing.B, n, shards, nTags int) {
	s, tags := benchInvalServer(b, n, shards)
	msgTags := make([]invalidation.TagID, nTags)
	for i := 1; i < nTags; i++ {
		msgTags[i] = invalidation.Intern(invalidation.KeyTag("items", "id", fmt.Sprint(n+i)))
	}
	payload := make([]byte, 256)
	wall := time.Unix(0, 0)
	base := interval.Timestamp(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := base + interval.Timestamp(i)
		k := i % n
		msgTags[0] = tags[k]
		s.ApplyInvalidation(invalidation.Message{TS: ts, WallTime: wall, Tags: msgTags})
		s.Put(fmt.Sprintf("key-%d", k), payload,
			interval.Interval{Lo: ts, Hi: interval.Infinity}, true, ts, tags[k:k+1])
	}
}

// invalidateAllocCeiling is the budget for applying one invalidation
// message that truncates one version, once the history is full: nothing.
// The message overwrites the ring's oldest slot, its tag's entry in the
// history's maps is overwritten in place, and the affected set is shard
// scratch.
const invalidateAllocCeiling = 0

// TestAllocBudgetLookup pins the sharded hit path at zero allocations: the
// shard route is an inline hash, the horizon is one atomic load, and a hit
// returns the version's own data and tag slices (zero-copy). Any allocation
// here is a regression — the pre-shard node was allocation-free too.
func TestAllocBudgetLookup(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are checked without the race detector (make alloc-regression)")
	}
	s, _ := benchInvalServer(t, 64, 0)
	// Advance the horizon so still-valid entries have non-empty effective
	// intervals (a fresh node serves nothing still-valid).
	s.ApplyInvalidation(invalidation.Message{TS: 1 << 20, WallTime: time.Unix(0, 0)})
	ctx := context.Background()
	// Both flavors of hit: a still-valid version (tags returned, shared)
	// and a bounded historical version.
	s.Put("bounded", []byte("v"), interval.Interval{Lo: 5, Hi: 9}, false, 0, nil)
	still := func() {
		r := s.Lookup(ctx, "key-7", 8, 8, 0, interval.Infinity)
		if !r.Found || !r.Still {
			t.Fatalf("expected still-valid hit, got %+v", r)
		}
	}
	bounded := func() {
		r := s.Lookup(ctx, "bounded", 6, 6, 0, interval.Infinity)
		if !r.Found || r.Still {
			t.Fatalf("expected bounded hit, got %+v", r)
		}
	}
	if avg := testing.AllocsPerRun(200, still); avg > 0 {
		t.Errorf("still-valid hit allocates %.1f objects/op, budget is 0", avg)
	}
	if avg := testing.AllocsPerRun(200, bounded); avg > 0 {
		t.Errorf("bounded hit allocates %.1f objects/op, budget is 0", avg)
	}
	// A miss must be allocation-free too (miss classification is counter
	// arithmetic, not error construction).
	miss := func() {
		if r := s.Lookup(ctx, "absent", 1, 1, 0, interval.Infinity); r.Found {
			t.Fatal("absent key found")
		}
	}
	if avg := testing.AllocsPerRun(200, miss); avg > 0 {
		t.Errorf("miss allocates %.1f objects/op, budget is 0", avg)
	}
}

func TestAllocBudgetInvalidate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are checked without the race detector (make alloc-regression)")
	}
	const n = 1024
	s, tags := benchInvalServer(t, n, 0)
	payload := make([]byte, 64)
	wall := time.Unix(0, 0)
	ts := interval.Timestamp(1 << 20)
	apply := func() {
		ts++
		k := int(ts) % n
		s.ApplyInvalidation(invalidation.Message{TS: ts, WallTime: wall, Tags: tags[k : k+1]})
		s.Put(fmt.Sprintf("key-%d", k), payload,
			interval.Interval{Lo: ts, Hi: interval.Infinity}, true, ts, tags[k:k+1])
	}
	// Fill the history first: from then on a message overwrites the ring's
	// oldest slot and finds its tag already indexed.
	for i := 0; i < s.cfg.HistoryLen; i++ {
		apply()
	}
	// The reinstall dominates the measured loop; its count is subtracted.
	avg := testing.AllocsPerRun(500, apply)
	t.Logf("invalidate+reinstall: %.1f objects/op", avg)
	// An in-process Put allocates no key string — the loop's own
	// fmt.Sprintf does (1). Put allocates the version, its back-positions
	// and a new list for its key tag, whose emptied list the invalidation
	// deleted (3). Everything else is the invalidation path's budget.
	const putCost = 4
	if avg > invalidateAllocCeiling+putCost {
		t.Fatalf("invalidate+reinstall allocates %.1f objects/op, budget is %d", avg, invalidateAllocCeiling+putCost)
	}
}

// historyBytesCeiling bounds the live heap one retained message costs a node
// fed messages of six key tags each, none repeated: its ring slot, its tag
// slice, and six entries in the history's tag map. Measured 397.
const historyBytesCeiling = 440

// feedSixTags applies count messages after ts to s, each naming six random
// keys of five tables, and returns the newest timestamp.
func feedSixTags(s *Server, rng *rand.Rand, ts interval.Timestamp, count int) interval.Timestamp {
	var tables [5]invalidation.TagID
	for i := range tables {
		tables[i] = invalidation.InternWildcard(fmt.Sprint("table", i))
	}
	for i := 0; i < count; i++ {
		ts++
		tags := make([]invalidation.TagID, 6)
		for j := range tags {
			tags[j] = tables[rng.Intn(len(tables))] | invalidation.TagID(rng.Uint32()|1)
		}
		s.ApplyInvalidation(invalidation.Message{TS: ts, WallTime: time.Unix(0, int64(ts)), Tags: tags})
	}
	return ts
}

// liveHeap returns the live heap after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHistoryBytes: the history is the same size at any point after it
// fills. A node fed 10 × HistoryLen messages holds what it held after 2 ×
// HistoryLen, within 5%, and a retained message stays under its ceiling.
func TestHistoryBytes(t *testing.T) {
	s := New(Config{Shards: 1})
	n := s.cfg.HistoryLen
	rng := rand.New(rand.NewSource(1))
	empty := liveHeap()
	ts := feedSixTags(s, rng, 0, 2*n)
	full := liveHeap()
	feedSixTags(s, rng, ts, 8*n)
	later := liveHeap()
	per := float64(full-empty) / float64(n)
	t.Logf("history of %d messages: %.0f B a message; %.2f MiB after %d messages, %.2f MiB after %d",
		n, per, float64(full)/(1<<20), 2*n, float64(later)/(1<<20), 10*n)
	if float64(later) > 1.05*float64(full) {
		t.Errorf("live heap grew from %d to %d bytes between %d and %d messages; a ring holds the same %d messages at both",
			full, later, 2*n, 10*n, n)
	}
	if per > historyBytesCeiling {
		t.Errorf("a retained message costs %.0f bytes, ceiling %d", per, historyBytesCeiling)
	}
	runtime.KeepAlive(s)
}

// versionBytesCeiling bounds the live heap one still-valid version costs a
// node besides its key and payload: the version, its back-positions, its
// entry and its share of the tag indexes, in browse_hot's shape. Measured
// 366.
const versionBytesCeiling = 400

// TestVersionBytes fills a node with 8,192 still-valid versions, one per
// key, each carrying one or two key tags (60% two) over 20 tables, and
// holds the node's bookkeeping per version under its ceiling. The keys,
// payloads and tag slices are built before the first reading and kept
// alive by the test, so they are not counted.
func TestVersionBytes(t *testing.T) {
	const n, tables = 8192, 20
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, n)
	payloads := make([][]byte, n)
	tagSets := make([][]invalidation.TagID, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("page-%d", i)
		payloads[i] = make([]byte, 64)
		tagSets[i] = []invalidation.TagID{invalidation.Intern(invalidation.KeyTag(fmt.Sprint("table", rng.Intn(tables)), "id", fmt.Sprint(i)))}
		if rng.Intn(10) < 6 {
			tagSets[i] = append(tagSets[i], invalidation.Intern(invalidation.KeyTag(fmt.Sprint("table", rng.Intn(tables)), "id", fmt.Sprint(n+i))))
		}
	}
	s := New(Config{})
	streamTo(s, 2, time.Unix(0, 0))
	before := liveHeap()
	for i := range keys {
		s.Put(keys[i], payloads[i], interval.Interval{Lo: 2, Hi: interval.Infinity}, true, 2, tagSets[i])
	}
	after := liveHeap()
	if st := s.Stats(); st.Versions != n {
		t.Fatalf("%d versions resident, want %d", st.Versions, n)
	}
	per := (float64(after) - float64(before)) / n
	t.Logf("%d still-valid versions: %.0f B of bookkeeping a version", n, per)
	if per > versionBytesCeiling {
		t.Errorf("a still-valid version costs %.0f bytes besides its key and payload, ceiling %d", per, versionBytesCeiling)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(keys)
	runtime.KeepAlive(payloads)
	runtime.KeepAlive(tagSets)
}

// BenchmarkHistoryReplay prices a still-valid put's replay against a full
// history of six-tag messages, held under the history's read lock: "miss",
// no retained message after genSnap meets the entry's tag, which the tag maps
// answer without touching the ring; "worst", genSnap at the floor and the
// only match the newest message, which scans the whole ring.
func BenchmarkHistoryReplay(b *testing.B) {
	s := New(Config{Shards: 1})
	ts := feedSixTags(s, rand.New(rand.NewSource(1)), 0, s.cfg.HistoryLen)
	target := invalidation.Intern(invalidation.KeyTag("replay", "id", "1"))
	ts++
	s.ApplyInvalidation(invalidation.Message{TS: ts, WallTime: time.Unix(0, int64(ts)), Tags: []invalidation.TagID{target}})
	floor := s.hist.floor
	for _, c := range []struct {
		name string
		tag  invalidation.TagID
		want interval.Timestamp
	}{
		{"miss", invalidation.Intern(invalidation.KeyTag("replay", "id", "2")), interval.Infinity},
		{"worst", target, ts},
	} {
		b.Run(c.name, func(b *testing.B) {
			tags := []invalidation.TagID{c.tag}
			for b.Loop() {
				if got, _, below := s.hist.firstMatch(tags, floor); got != c.want || below {
					b.Fatalf("firstMatch at the floor = %d (below=%v), want %d", got, below, c.want)
				}
			}
		})
	}
}

// freshTags returns n distinct key tags, each new to a node just built.
func freshTags(n int) []invalidation.TagID {
	tags := make([]invalidation.TagID, n)
	for i := range tags {
		tags[i] = invalidation.Intern(invalidation.KeyTag("fresh", "id", fmt.Sprint(i)))
	}
	return tags
}

// putFirstSight installs one still-valid version per tag, each under a tag
// the node has never seen.
func putFirstSight(s *Server, keys []string, tags []invalidation.TagID) {
	payload := []byte("v")
	for i := range tags {
		s.Put(keys[i], payload, interval.Interval{Lo: 1, Hi: interval.Infinity}, true, 1, tags[i:i+1])
	}
}

func freshKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fresh-%d", i)
	}
	return keys
}

// firstSightBytesCeiling bounds the heap bytes one first-sight put may
// allocate, averaged over a run: the version, its entry and its index sets.
// The node keeps nothing per TagID outside its shards, so this holds by
// construction; it is far below what a design that copies or regrows a
// per-TagID table on first sight costs once the table is large (1.6 MB per
// put for one pointer per tag at 200,000 tags), and is here to keep one from
// growing back.
const firstSightBytesCeiling = 16 << 10

func TestAllocBudgetFirstSightTag(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are checked without the race detector (make alloc-regression)")
	}
	const n = 256
	s := New(Config{})
	streamTo(s, 2, time.Unix(0, 0)) // a fresh node joins at the first commit
	tags, keys := freshTags(n), freshKeys(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	putFirstSight(s, keys, tags)
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > firstSightBytesCeiling {
		t.Fatalf("a put under a never-seen tag allocates %d bytes, budget is %d", per, firstSightBytesCeiling)
	}
	if st := s.Stats(); st.Versions != n {
		t.Fatalf("%d versions stored, want %d", st.Versions, n)
	}
}
