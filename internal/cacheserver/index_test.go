package cacheserver

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/clock"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// indexShape is what a check saw of a node's tag lists, so a run can show it
// exercised what it claims to.
type indexShape struct {
	longest int // the longest list
	repeats int // tags filed under a list an earlier tag of the version is on
}

// checkTagIndex rebuilds every shard's byTag and tableDeps from the shard's
// resident still-valid versions and reports the first way the shard's own
// index differs: a list member missing, extra or listed twice, a
// back-position that does not name the version's slot, an empty list. It
// walks the LRU ring too, which must hold exactly the resident versions.
func checkTagIndex(s *Server) (indexShape, error) {
	var shape indexShape
	var err error
	s.eachShard(func(sh *shard) {
		if err == nil {
			err = checkShardIndex(sh, &shape)
		}
	})
	return shape, err
}

func checkShardIndex(sh *shard, shape *indexShape) error {
	resident := make(map[*version]bool)
	for key, ent := range sh.entries {
		for _, v := range ent.versions {
			if v.ent != ent {
				return fmt.Errorf("a version of %q names another entry", key)
			}
			resident[v] = true
		}
	}
	n := 0
	for v := sh.lru.next; v != &sh.lru; v = v.next {
		if v.next == nil || v.next.prev != v {
			return fmt.Errorf("LRU ring broken after a version of %q", v.ent.key)
		}
		if !resident[v] {
			return fmt.Errorf("LRU ring holds a version of %q that is not resident", v.ent.key)
		}
		if n++; n > len(resident) {
			return fmt.Errorf("LRU ring is longer than the %d resident versions", len(resident))
		}
	}
	if n != len(resident) {
		return fmt.Errorf("LRU ring holds %d of %d resident versions", n, len(resident))
	}
	for _, idx := range []struct {
		name  string
		lists tagLists
		table bool
	}{{"byTag", sh.byTag, false}, {"tableDeps", sh.tableDeps, true}} {
		want := make(map[invalidation.TagID]map[*version]bool)
		for v := range resident {
			if !v.still {
				if v.pos != nil {
					return fmt.Errorf("a closed version of %q keeps back-positions %v", v.ent.key, v.pos)
				}
				continue
			}
			if len(v.pos) != 2*len(v.tags) {
				return fmt.Errorf("a version of %q with %d tags has %d back-positions", v.ent.key, len(v.tags), len(v.pos))
			}
			for i, t := range v.tags {
				k, p := listKey(t, idx.table), posIndex(i, idx.table)
				if posOf(v, k, idx.table) != p {
					if v.pos[p] != -1 {
						return fmt.Errorf("%s: tag %d of %q repeats list %v but holds position %d", idx.name, i, v.ent.key, k, v.pos[p])
					}
					shape.repeats++
					continue
				}
				if want[k] == nil {
					want[k] = make(map[*version]bool)
				}
				want[k][v] = true
			}
		}
		for k, list := range idx.lists {
			if len(list) == 0 {
				return fmt.Errorf("%s keeps an empty list under %v", idx.name, k)
			}
			shape.longest = max(shape.longest, len(list))
			seen := make(map[*version]bool, len(list))
			for i, v := range list {
				if !want[k][v] {
					return fmt.Errorf("%s[%v] slot %d holds a version that is not registered there", idx.name, k, i)
				}
				if seen[v] {
					return fmt.Errorf("%s[%v] holds a version of %q twice", idx.name, k, v.ent.key)
				}
				seen[v] = true
				if at := v.pos[posOf(v, k, idx.table)]; at != int32(i) {
					return fmt.Errorf("%s[%v]: a version of %q sits in slot %d, its back-position says %d", idx.name, k, v.ent.key, i, at)
				}
			}
			if len(seen) != len(want[k]) {
				return fmt.Errorf("%s[%v] holds %d of its %d versions", idx.name, k, len(seen), len(want[k]))
			}
		}
		if len(idx.lists) != len(want) {
			return fmt.Errorf("%s has %d lists, the resident versions file under %d", idx.name, len(idx.lists), len(want))
		}
	}
	return nil
}

// indexMix drives one node through everything that changes its tag index
// or its LRU ring: still-valid puts (key tags, wildcards, tags repeated
// within a version or sharing a table), bounded puts, equal-Lo puts that
// widen a closed version back, lookups, key and wildcard invalidations,
// stale sweeps and gap crossings. Capacity evictions come from the node's
// small budget. ts is the stream's timestamp source, shared by every
// goroutine driving the node.
type indexMix struct {
	s   *Server
	clk *clock.Virtual
	ts  *atomic.Uint64
	rng *rand.Rand
}

func newIndexNode() (*Server, *clock.Virtual) {
	clk := &clock.Virtual{}
	return New(Config{
		CapacityBytes: 64 * (perVersionOverhead + 24),
		MaxStaleness:  2 * time.Second,
		HistoryLen:    32,
		Shards:        2,
		Clock:         clk,
	}), clk
}

// tags returns up to most tags over four tables of 16 keys each; one in
// wildOneIn is its table's wildcard.
func (m indexMix) tags(most, wildOneIn int) []invalidation.TagID {
	tags := make([]invalidation.TagID, m.rng.Intn(most+1))
	for i := range tags {
		table := fmt.Sprint("t", m.rng.Intn(4))
		if m.rng.Intn(wildOneIn) == 0 {
			tags[i] = invalidation.InternWildcard(table)
		} else {
			tags[i] = invalidation.Intern(invalidation.KeyTag(table, "id", fmt.Sprint(m.rng.Intn(16))))
		}
	}
	return tags
}

// step runs one random operation and names it.
func (m indexMix) step() string {
	key := fmt.Sprint("k", m.rng.Intn(48))
	payload := make([]byte, 16)
	horizon := interval.Timestamp(m.ts.Load())
	switch r := m.rng.Intn(100); {
	case r < 40:
		genSnap := horizon - min(horizon, interval.Timestamp(m.rng.Intn(6)))
		lo := 1 + interval.Timestamp(m.rng.Intn(int(genSnap)+1))
		m.s.Put(key, payload, interval.Interval{Lo: lo, Hi: interval.Infinity}, true, genSnap, m.tags(3, 10))
		return "put still"
	case r < 45:
		if lo, ok := closedLo(m.s, key); ok {
			m.s.Put(key, payload, interval.Interval{Lo: lo, Hi: interval.Infinity}, true, horizon, m.tags(3, 10))
			return "widen"
		}
		return "no widen"
	case r < 55:
		lo := 1 + interval.Timestamp(m.rng.Intn(int(horizon)+1))
		m.s.Put(key, payload, interval.Interval{Lo: lo, Hi: lo + 1 + interval.Timestamp(m.rng.Intn(4))}, false, 0, nil)
		return "put bounded"
	case r < 65:
		m.s.Lookup(context.Background(), key, 0, horizon, 0, interval.Infinity)
		return "lookup"
	case r < 90:
		ts := interval.Timestamp(m.ts.Add(1))
		m.s.ApplyInvalidation(invalidation.Message{TS: ts, WallTime: m.clk.Now(), Tags: m.tags(3, 50)})
		return "invalidate"
	case r < 99:
		m.clk.Advance(time.Duration(m.rng.Intn(1500)) * time.Millisecond)
		m.s.SweepStale()
		return "sweep"
	default:
		ts := interval.Timestamp(m.ts.Add(3))
		m.s.apply(invalidation.Message{TS: ts, WallTime: m.clk.Now()}, true)
		return "gap"
	}
}

// closedLo returns the Lo of one of key's closed versions, the Lo a
// still-valid put needs to widen it back into the index.
func closedLo(s *Server, key string) (interval.Timestamp, bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ent := sh.entries[key]; ent != nil {
		for _, v := range ent.versions {
			if !v.still {
				return v.iv.Lo, true
			}
		}
	}
	return 0, false
}

// quietGaps silences the gap crossings' log lines for the rest of the test.
func quietGaps(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
}

// TestTagIndexMatchesVersions holds a node's tag lists to the versions they
// index: after every operation each list holds exactly the resident
// still-valid versions filed under it, each once, at the slot its
// back-position names, and no list is empty.
func TestTagIndexMatchesVersions(t *testing.T) {
	t.Run("ValidFlow", func(t *testing.T) {
		quietGaps(t)
		s, clk := newIndexNode()
		m := indexMix{s: s, clk: clk, ts: new(atomic.Uint64), rng: rand.New(rand.NewSource(7))}
		var shape indexShape
		ops := make(map[string]int)
		for i := 0; i < 4000; i++ {
			op := m.step()
			ops[op]++
			got, err := checkTagIndex(s)
			if err != nil {
				t.Fatalf("step %d (%s): %v", i, op, err)
			}
			shape.longest = max(shape.longest, got.longest)
			shape.repeats += got.repeats
		}
		st := s.Stats()
		t.Logf("%+v; %v; longest list %d, %d repeated filings", st, ops, shape.longest, shape.repeats)
		if st.Hits == 0 || st.Invalidated == 0 || st.EvictedCapacity == 0 || st.EvictedStale == 0 || st.FloorClosed == 0 ||
			ops["widen"] == 0 || shape.longest < 8 || shape.repeats == 0 {
			t.Fatalf("vacuous run: %+v; %v; longest list %d, %d repeated filings", st, ops, shape.longest, shape.repeats)
		}
	})

	t.Run("RejectionFlow", func(t *testing.T) {
		s := New(Config{Shards: 1})
		streamTo(s, 2, time.Unix(2, 0))
		for i := 0; i < 3; i++ {
			tag := invalidation.Intern(invalidation.KeyTag("t", "id", fmt.Sprint(i)))
			s.Put(fmt.Sprint("k", i), []byte("v"), interval.Interval{Lo: 2, Hi: interval.Infinity}, true, 2, []invalidation.TagID{tag})
		}
		if _, err := checkTagIndex(s); err != nil {
			t.Fatalf("a sound index rejected: %v", err)
		}
		sh := &s.shards[0]
		v := sh.tableDeps[invalidation.InternWildcard("t")][0]
		v.pos[1] = 2 // the slot of another version on the same list
		_, err := checkTagIndex(s)
		if err == nil || !strings.Contains(err.Error(), "back-position says 2") {
			t.Fatalf("a wrong back-position went unreported: %v", err)
		}
		t.Logf("planted back-position reported: %v", err)
		v.pos[1] = 0
		if _, err := checkTagIndex(s); err != nil {
			t.Fatalf("the repaired index rejected: %v", err)
		}
	})

	t.Run("ConcurrentFlow", func(t *testing.T) {
		quietGaps(t)
		s, clk := newIndexNode()
		ts := new(atomic.Uint64)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				m := indexMix{s: s, clk: clk, ts: ts, rng: rand.New(rand.NewSource(int64(100 + g)))}
				for i := 0; i < 1000; i++ {
					m.step()
				}
			}(g)
		}
		wg.Wait()
		shape, err := checkTagIndex(s)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		t.Logf("%+v; longest list %d", st, shape.longest)
		if st.Hits == 0 || st.Invalidated == 0 || st.EvictedCapacity == 0 || st.Versions == 0 {
			t.Fatalf("vacuous run: %+v", st)
		}
	})
}
