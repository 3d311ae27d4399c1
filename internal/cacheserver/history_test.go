package cacheserver

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// history_test.go holds the history's replay (histIndex.firstMatch) to its
// pairwise definition: the first of the last HistoryLen messages after
// genSnap that invalidation.Affects says meets one of the entry's tags, or
// belowFloor when the history does not reach back to genSnap.

// refHistory is that definition: every message the history was given, and
// the floor it must report.
type refHistory struct {
	maxLen int
	msgs   []invalidation.Message
	floor  interval.Timestamp
}

// crossGap is what Server.crossGapLocked does to the history before the
// message that revealed a gap: nothing below ts can be checked any more.
func (r *refHistory) crossGap(ts interval.Timestamp) { r.floor = max(r.floor, ts) }

func (r *refHistory) add(m invalidation.Message) {
	r.msgs = append(r.msgs, m)
	if len(r.msgs) > r.maxLen {
		r.floor = max(r.floor, r.msgs[len(r.msgs)-r.maxLen-1].TS)
	}
}

func (r *refHistory) retained() []invalidation.Message {
	return r.msgs[max(0, len(r.msgs)-r.maxLen):]
}

func (r *refHistory) firstMatch(tags []invalidation.TagID, genSnap interval.Timestamp) (interval.Timestamp, time.Time, bool) {
	if genSnap < r.floor {
		return 0, time.Time{}, true
	}
	for _, m := range r.retained() {
		if m.TS > genSnap && affectsAny(m.Tags, tags) {
			return m.TS, m.WallTime, false
		}
	}
	return interval.Infinity, time.Time{}, false
}

func affectsAny(msgTags, tags []invalidation.TagID) bool {
	for _, mt := range msgTags {
		for _, vt := range tags {
			if invalidation.Affects(mt, vt) {
				return true
			}
		}
	}
	return false
}

// tagPool is three tables' wildcards and six keys each: few enough that
// messages and probes meet often, in every combination of granularities.
type tagPool struct{ wild, key []invalidation.TagID }

func newTagPool() tagPool {
	var p tagPool
	for _, table := range []string{"users", "items", "bids"} {
		p.wild = append(p.wild, invalidation.Intern(invalidation.WildcardTag(table)))
		for k := 0; k < 6; k++ {
			p.key = append(p.key, invalidation.Intern(invalidation.KeyTag(table, "id", fmt.Sprint(k))))
		}
	}
	return p
}

// draw returns lo..hi tags, each a wildcard one time in eight.
func (p tagPool) draw(rng *rand.Rand, lo, hi int) []invalidation.TagID {
	tags := make([]invalidation.TagID, lo+rng.Intn(hi-lo+1))
	for i := range tags {
		if rng.Intn(8) == 0 {
			tags[i] = p.wild[rng.Intn(len(p.wild))]
		} else {
			tags[i] = p.key[rng.Intn(len(p.key))]
		}
	}
	return tags
}

func TestHistoryMatchesPairwise(t *testing.T) {
	pool := newTagPool()
	msgAt := func(ts interval.Timestamp, tags []invalidation.TagID) invalidation.Message {
		return invalidation.Message{TS: ts, WallTime: time.Unix(0, int64(ts)), Tags: tags}
	}

	// Seeded streams with gaps, 10 × HistoryLen messages so the ring wraps
	// ten times; after every message, random probes from below the floor to
	// past the newest message get what the pairwise definition gets, and the
	// tag maps hold exactly the tags the retained messages carry.
	t.Run("ValidFlow", func(t *testing.T) {
		for _, n := range []int{1, 3, 17, 64} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("len=%d/seed=%d", n, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					var h histIndex
					h.init(n)
					ref := refHistory{maxLen: n}
					ts := interval.Timestamp(0)
					for i := 0; i < 10*n; i++ {
						ts++
						if rng.Intn(16) == 0 { // a gap: messages ts..ts+k-1 never arrive
							ts += interval.Timestamp(1 + rng.Intn(5))
							h.raiseFloor(ts - 1)
							ref.crossGap(ts - 1)
						}
						m := msgAt(ts, pool.draw(rng, 0, 3))
						h.add(m)
						ref.add(m)

						for p := 0; p < 8; p++ {
							tags := pool.draw(rng, 1, 3)
							genSnap := max(0, ref.floor-2) + interval.Timestamp(rng.Intn(int(ts-ref.floor)+4))
							gotTS, gotWall, gotBelow := h.firstMatch(tags, genSnap)
							wantTS, wantWall, wantBelow := ref.firstMatch(tags, genSnap)
							if gotTS != wantTS || !gotWall.Equal(wantWall) || gotBelow != wantBelow {
								t.Fatalf("after message %d, firstMatch(%v, %d) = (%d, %v, below=%v), want (%d, %v, below=%v)",
									ts, tags, genSnap, gotTS, gotWall.UnixNano(), gotBelow, wantTS, wantWall.UnixNano(), wantBelow)
							}
						}

						keys, tables := map[invalidation.TagID]bool{}, map[invalidation.TagID]bool{}
						for _, m := range ref.retained() {
							for _, tg := range m.Tags {
								keys[tg], tables[invalidation.WildOf(tg)] = true, true
							}
						}
						if len(h.last) != len(keys) || len(h.table) != len(tables) {
							t.Fatalf("after message %d: %d tags and %d tables indexed, the %d retained messages carry %d and %d",
								ts, len(h.last), len(h.table), len(ref.retained()), len(keys), len(tables))
						}
					}
				})
			}
		}
	})

	// A gap's floor outlives the messages before it. Five messages, a gap
	// (6, 20), four more: the ring has dropped everything from before the
	// gap, and a put generated inside it still cannot be checked. (A history
	// that sets its floor to the newest message it dropped lowers it back to
	// 6 here, and serves the put as still valid across messages it never saw.)
	t.Run("RejectionFlow", func(t *testing.T) {
		tag := ids([]invalidation.Tag{invalidation.KeyTag("users", "id", "7")})
		other := ids([]invalidation.Tag{invalidation.KeyTag("users", "id", "8")})
		s := New(Config{HistoryLen: 4, Shards: 1})
		for ts := interval.Timestamp(2); ts <= 6; ts++ {
			s.apply(msgAt(ts, other), true)
		}
		for ts := interval.Timestamp(20); ts <= 23; ts++ {
			s.apply(msgAt(ts, other), true)
		}
		s.Put("k", []byte("v"), iv(5, interval.Infinity), true, 10, tag)
		if r := s.Lookup(context.Background(), "k", 5, 23, 0, interval.Infinity); !r.Found || r.Still || r.Validity != iv(5, 11) {
			t.Fatalf("put generated at 10, inside the gap (6, 20): %+v, want [5,11) closed", r)
		}
		if st := s.Stats(); st.FloorClosed != 1 {
			t.Fatalf("FloorClosed = %d, want 1", st.FloorClosed)
		}
		// And one generated at the floor is checked against every message after it.
		s.Put("k2", []byte("v"), iv(19, interval.Infinity), true, 19, tag)
		s.Put("k3", []byte("v"), iv(19, interval.Infinity), true, 19, other)
		if r := s.Lookup(context.Background(), "k2", 23, 23, 0, interval.Infinity); !r.Found || !r.Still {
			t.Fatalf("put at the floor, nothing after it names its tag: %+v", r)
		}
		if r := s.Lookup(context.Background(), "k3", 19, 23, 0, interval.Infinity); !r.Found || r.Still || r.Validity != iv(19, 20) {
			t.Fatalf("put at the floor, named at 20: %+v, want [19,20) closed", r)
		}
	})

	// One writer, four readers. The stream is known in advance, so a reader
	// can check every answer exactly: a match is the stream's first after
	// genSnap; "no match" means that one had not arrived before the call; and
	// below the floor means the ring had already moved past genSnap.
	t.Run("ConcurrentFlow", func(t *testing.T) {
		const n, total = 64, 640
		rng := rand.New(rand.NewSource(7))
		stream := make([]invalidation.Message, total+1) // stream[ts], dense from 1
		for ts := 1; ts <= total; ts++ {
			stream[ts] = msgAt(interval.Timestamp(ts), pool.draw(rng, 0, 3))
		}
		first := func(tags []invalidation.TagID, genSnap interval.Timestamp) interval.Timestamp {
			for _, m := range stream[min(int(genSnap)+1, len(stream)):] {
				if affectsAny(m.Tags, tags) {
					return m.TS
				}
			}
			return interval.Infinity
		}
		s := New(Config{HistoryLen: n, Shards: 1})
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := int64(0); g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(100 + g))
				for {
					before := s.LastInvalidation()
					if before == total {
						return
					}
					tags := pool.draw(rng, 1, 3)
					genSnap := interval.Timestamp(max(0, int(before)-n-4+rng.Intn(n+8)))
					got, _, below := s.hist.firstMatch(tags, genSnap)
					after := s.LastInvalidation()
					var bad string
					switch {
					case below && int(genSnap) >= int(after)+1-n:
						bad = fmt.Sprintf("below the floor, but message %d was the newest the ring could have dropped", int(after)+1-n)
					case !below && int(genSnap) < int(before)-n:
						bad = fmt.Sprintf("not below the floor, but message %d had been dropped", int(before)-n)
					case !below && got != interval.Infinity && got != first(tags, genSnap):
						bad = fmt.Sprintf("matched %d, the stream's first match is %d", got, first(tags, genSnap))
					case !below && got == interval.Infinity && first(tags, genSnap) <= before:
						bad = fmt.Sprintf("no match, but %d had arrived before the call", first(tags, genSnap))
					}
					if bad != "" {
						errs <- fmt.Errorf("firstMatch(%v, %d) between horizons %d and %d: %s", tags, genSnap, before, after, bad)
						return
					}
				}
			}()
		}
		for ts := 1; ts <= total; ts++ {
			s.ApplyInvalidation(stream[ts])
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}
