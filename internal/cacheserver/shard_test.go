package cacheserver

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// Sharding-specific coverage: routing stability, cross-shard invalidation
// fan-out, the global byte budget under concurrent puts, and shard-grouped
// batch lookups. The oracle model tests (model_test.go) remain the broad
// soundness gate; these tests pin the sharding machinery itself.

// TestShardRoutingStable pins that key routing is a pure function of the
// key and the shard count: equal across server instances, stable across
// calls, and in range. FuzzShardRouting extends this over arbitrary keys.
func TestShardRoutingStable(t *testing.T) {
	a := New(Config{Shards: 16})
	b := New(Config{Shards: 16})
	if a.ShardCount() != 16 || b.ShardCount() != 16 {
		t.Fatalf("shard count: got %d/%d, want 16", a.ShardCount(), b.ShardCount())
	}
	seen := map[uint32]bool{}
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("route-%d", i)
		sa := a.shardIndex(key)
		if sa != b.shardIndex(key) || sa != a.shardIndex(key) {
			t.Fatalf("routing of %q not stable", key)
		}
		if int(sa) >= a.ShardCount() {
			t.Fatalf("shard %d out of range for %q", sa, key)
		}
		seen[sa] = true
	}
	// 4096 hashed keys must spread over all 16 shards; a missing shard
	// means the hash is degenerate (e.g. masking before mixing).
	if len(seen) != 16 {
		t.Fatalf("4096 keys covered only %d of 16 shards", len(seen))
	}
}

// TestShardDefaults pins the default shard count policy: power of two, at
// least 8, and Config.Shards rounded up.
func TestShardDefaults(t *testing.T) {
	if n := New(Config{}).ShardCount(); n < 8 || n&(n-1) != 0 {
		t.Fatalf("default shard count %d: want power of two >= 8", n)
	}
	if n := New(Config{Shards: 5}).ShardCount(); n != 8 {
		t.Fatalf("Shards: 5 rounded to %d, want 8", n)
	}
	if n := New(Config{Shards: 1}).ShardCount(); n != 1 {
		t.Fatalf("Shards: 1 gave %d shards", n)
	}
}

// crossShardCounts are the shard counts the cross-shard invalidation tests
// run at: the default on a small host, and the default of a 16-core one,
// where most shards of a walk hold nothing the message matches.
var crossShardCounts = []int{8, 64}

// TestCrossShardWildcardInvalidation spreads still-valid versions of one
// table across every shard and invalidates them with a single
// table-wildcard message: all must be truncated at the message timestamp,
// wherever they live.
func TestCrossShardWildcardInvalidation(t *testing.T) {
	for _, shards := range crossShardCounts {
		s := New(Config{Shards: shards})
		n := 16 * shards // that many hashed keys cover every shard with overwhelming probability
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("wide-%d", i)
			tag := []invalidation.TagID{invalidation.Intern(invalidation.KeyTag("wide", "id", fmt.Sprint(i)))}
			s.Put(keys[i], []byte("v"), interval.Interval{Lo: 10, Hi: interval.Infinity}, true, 10, tag)
		}
		covered := map[uint32]bool{}
		for _, k := range keys {
			covered[s.shardIndex(k)] = true
		}
		if len(covered) != shards {
			t.Fatalf("keys covered only %d of %d shards; test would be vacuous", len(covered), shards)
		}

		s.ApplyInvalidation(invalidation.Message{TS: 50,
			Tags: []invalidation.TagID{invalidation.Intern(invalidation.WildcardTag("wide"))}})

		for _, k := range keys {
			r := s.Lookup(context.Background(), k, 10, 100, 0, interval.Infinity)
			if !r.Found || r.Still || r.Validity.Hi != 50 {
				t.Fatalf("shards=%d: %s after wildcard: %+v, want truncated at 50", shards, k, r)
			}
		}
		if st := s.Stats(); st.Invalidated != uint64(n) {
			t.Fatalf("shards=%d: Invalidated = %d, want %d", shards, st.Invalidated, n)
		}
	}
}

// TestCrossShardExactInvalidation: a message with key tags touching two
// shards truncates exactly those versions and leaves every other shard's
// versions alone, though the walk visits them all.
func TestCrossShardExactInvalidation(t *testing.T) {
	for _, shards := range crossShardCounts {
		s := New(Config{Shards: shards})
		const n = 64
		keys := make([]string, n)
		tags := make([]invalidation.TagID, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("pick-%d", i)
			tags[i] = invalidation.Intern(invalidation.KeyTag("pick", "id", fmt.Sprint(i)))
			s.Put(keys[i], []byte("v"), interval.Interval{Lo: 10, Hi: interval.Infinity}, true, 10, tags[i:i+1])
		}
		// Choose two keys routed to different shards.
		a := 0
		b := 1
		for b < n && s.shardIndex(keys[b]) == s.shardIndex(keys[a]) {
			b++
		}
		if b == n {
			t.Fatal("all keys in one shard; hash degenerate")
		}
		s.ApplyInvalidation(invalidation.Message{TS: 50, Tags: []invalidation.TagID{tags[a], tags[b]}})

		for i, k := range keys {
			r := s.Lookup(context.Background(), k, 10, 100, 0, interval.Infinity)
			if i == a || i == b {
				if !r.Found || r.Still || r.Validity.Hi != 50 {
					t.Fatalf("shards=%d: %s: %+v, want truncated at 50", shards, k, r)
				}
			} else if !r.Found || !r.Still {
				t.Fatalf("shards=%d: %s: %+v, want untouched still-valid hit", shards, k, r)
			}
		}
	}
}

// TestGlobalBudgetConcurrentPuts hammers the node with concurrent puts from
// many goroutines and checks the node is within its global byte budget at
// every quiet point — the budget is one atomic shared by all shards, not a
// per-shard quota, so a hot shard may hold most of the bytes but the total
// must hold.
func TestGlobalBudgetConcurrentPuts(t *testing.T) {
	const (
		budget  = 64 << 10
		workers = 8
		puts    = 2000
	)
	s := New(Config{CapacityBytes: budget, Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]byte, 200)
			for i := 0; i < puts; i++ {
				// Distinct keys per worker; monotone Lo per key is irrelevant
				// here (every put is a distinct historical version).
				key := fmt.Sprintf("w%d-k%d", w, i%97)
				lo := interval.Timestamp(1 + i)
				s.Put(key, payload, interval.Interval{Lo: lo, Hi: lo + 1}, false, 0, nil)
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.BytesUsed > budget {
		t.Fatalf("over budget after quiesce: %d > %d", st.BytesUsed, budget)
	}
	if st.BytesUsed != s.used.Load() {
		t.Fatalf("stats/counter disagree: %d vs %d", st.BytesUsed, s.used.Load())
	}
	if st.EvictedCapacity == 0 {
		t.Fatalf("no capacity evictions despite %d puts against a %d-byte budget", workers*puts, budget)
	}
	// The accounting invariant: the atomic equals the sum of the resident
	// versions' charges (recomputed under all shard locks).
	var resident int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, ent := range sh.entries {
			for _, v := range ent.versions {
				resident += v.charge()
			}
		}
		sh.mu.Unlock()
	}
	if resident != st.BytesUsed {
		t.Fatalf("atomic budget counter %d != resident bytes %d", st.BytesUsed, resident)
	}
}

// TestCrossShardLookupBatch issues one batch spanning every shard and
// checks each probe gets exactly the answer an individual Lookup gives —
// the shard-grouped execution must not reorder, drop, or cross-wire
// results (out[i] must answer reqs[i] even though probes execute in
// shard order).
func TestCrossShardLookupBatch(t *testing.T) {
	s := New(Config{Shards: 8})
	const n = 64
	reqs := make([]BatchLookup, 0, 2*n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("batch-%d", i)
		// Distinct payload and validity per key so cross-wiring is visible.
		lo := interval.Timestamp(10 + i)
		s.Put(key, []byte(key), interval.Interval{Lo: lo, Hi: lo + 5}, false, 0, nil)
		reqs = append(reqs, BatchLookup{Key: key, Lo: lo, Hi: lo, OrigLo: 0, OrigHi: interval.Infinity})
		// And a guaranteed miss for the same key outside its validity.
		reqs = append(reqs, BatchLookup{Key: key, Lo: lo + 100, Hi: lo + 100, OrigLo: 0, OrigHi: interval.Infinity})
	}
	out := s.LookupBatch(context.Background(), reqs)
	if len(out) != len(reqs) {
		t.Fatalf("got %d results for %d probes", len(out), len(reqs))
	}
	for i, r := range out {
		want := s.Lookup(context.Background(), reqs[i].Key, reqs[i].Lo, reqs[i].Hi, reqs[i].OrigLo, reqs[i].OrigHi)
		if r.Found != want.Found || string(r.Data) != string(want.Data) || r.Validity != want.Validity {
			t.Fatalf("probe %d (%s): batch %+v != single %+v", i, reqs[i].Key, r, want)
		}
		if r.Found && string(r.Data) != reqs[i].Key {
			t.Fatalf("probe %d: data %q cross-wired (want %q)", i, r.Data, reqs[i].Key)
		}
	}
}

// TestStatsDuringLoad polls Stats from goroutines while the data path runs;
// under -race this pins that monitoring never touches a data-path lock and
// the snapshot arithmetic races with nothing.
func TestStatsDuringLoad(t *testing.T) {
	s := New(Config{Shards: 4})
	tag := []invalidation.TagID{invalidation.Intern(invalidation.KeyTag("sdl", "id", "1"))}
	// Seed synchronously so the post-reset gauge check is meaningful even if
	// the scheduler never runs the load goroutine (GOMAXPROCS=1).
	s.Put("sdl", []byte("v"), interval.Interval{Lo: 1, Hi: 2}, false, 0, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ts := interval.Timestamp(2*i + 1)
			s.Put("sdl", []byte("v"), interval.Interval{Lo: ts, Hi: interval.Infinity}, true, ts, tag)
			s.ApplyInvalidation(invalidation.Message{TS: ts + 1, Tags: tag})
			s.Lookup(context.Background(), "sdl", ts, ts, 0, interval.Infinity)
		}
	}()
	for i := 0; i < 1000; i++ {
		st := s.Stats()
		if st.BytesUsed < 0 || st.Versions < 0 {
			t.Fatalf("negative gauge: %+v", st)
		}
	}
	s.ResetStats()
	close(stop)
	wg.Wait()
	if st := s.Stats(); st.Versions < 0 || st.Keys != 1 {
		t.Fatalf("gauges after reset: %+v", st)
	}
}
