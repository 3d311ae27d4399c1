package cacheserver

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"txcache/internal/clock"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

func iv(lo, hi interval.Timestamp) interval.Interval { return interval.Interval{Lo: lo, Hi: hi} }

func advanceTo(s *Server, ts interval.Timestamp) {
	s.ApplyInvalidation(invalidation.Message{TS: ts, WallTime: time.Unix(int64(ts), 0)})
}

// streamTo delivers message ts as the node's stream does. Unlike advanceTo,
// nobody vouches for what lies between the horizon and ts: the node is at ts
// afterwards, having crossed a gap unless ts was the horizon's successor.
func streamTo(s *Server, ts interval.Timestamp, wall time.Time) {
	s.apply(invalidation.Message{TS: ts, WallTime: wall}, true)
}

func TestLookupMissCompulsory(t *testing.T) {
	s := New(Config{})
	r := s.Lookup(context.Background(), "nope", 0, 100, 0, 100)
	if r.Found || r.Miss != MissCompulsory {
		t.Fatalf("r = %+v", r)
	}
}

func TestPutLookupClosedVersion(t *testing.T) {
	s := New(Config{})
	s.Put("k", []byte("v1"), iv(10, 20), false, 0, nil)

	// Overlapping bounds hit.
	r := s.Lookup(context.Background(), "k", 15, 30, 0, 100)
	if !r.Found || string(r.Data) != "v1" || r.Validity != iv(10, 20) {
		t.Fatalf("r = %+v", r)
	}
	// Touching at the inclusive low bound.
	if r := s.Lookup(context.Background(), "k", 0, 10, 0, 100); !r.Found {
		t.Fatal("bounds [0,10] must match [10,20)")
	}
	// Disjoint below.
	if r := s.Lookup(context.Background(), "k", 0, 9, 0, 9); r.Found {
		t.Fatal("bounds [0,9] must miss [10,20)")
	}
}

func TestStillValidBoundedByLastInvalidation(t *testing.T) {
	s := New(Config{})
	s.Put("k", []byte("v"), iv(10, interval.Infinity), true, 10, nil)

	// No invalidation processed yet: effective interval is [10, 1), empty.
	// The insert/invalidate race of §4.2: an entry newer than the node's
	// consistency horizon is not served.
	if r := s.Lookup(context.Background(), "k", 10, 50, 10, 50); r.Found {
		t.Fatal("entry ahead of invalidation horizon must not be served")
	}
	advanceTo(s, 12)
	r := s.Lookup(context.Background(), "k", 10, 50, 10, 50)
	if !r.Found || !r.Still {
		t.Fatalf("r = %+v", r)
	}
	if r.Validity != iv(10, 13) {
		t.Fatalf("effective validity = %v, want [10,13)", r.Validity)
	}
}

func TestMostRecentVersionWins(t *testing.T) {
	s := New(Config{})
	s.Put("k", []byte("old"), iv(10, 20), false, 0, nil)
	s.Put("k", []byte("new"), iv(20, 40), false, 0, nil)
	r := s.Lookup(context.Background(), "k", 5, 100, 5, 100)
	if !r.Found || string(r.Data) != "new" {
		t.Fatalf("r = %+v", r)
	}
	// Narrow bounds select the matching older version.
	r = s.Lookup(context.Background(), "k", 12, 15, 5, 100)
	if !r.Found || string(r.Data) != "old" {
		t.Fatalf("r = %+v", r)
	}
}

func TestDuplicatePutIgnored(t *testing.T) {
	s := New(Config{})
	s.Put("k", []byte("a"), iv(10, 20), false, 0, nil)
	s.Put("k", []byte("a-dup"), iv(10, 20), false, 0, nil)
	if st := s.Stats(); st.Versions != 1 {
		t.Fatalf("versions = %d, want 1", st.Versions)
	}
}

func TestInvalidationByKeyTag(t *testing.T) {
	s := New(Config{})
	advanceTo(s, 10)
	tag := invalidation.KeyTag("users", "id", "7")
	s.Put("k", []byte("v"), iv(5, interval.Infinity), true, 5, ids([]invalidation.Tag{tag}))

	// Unrelated tag leaves it valid (and advances the horizon).
	s.ApplyInvalidation(invalidation.Message{TS: 20, Tags: ids([]invalidation.Tag{invalidation.KeyTag("users", "id", "8")})})
	if r := s.Lookup(context.Background(), "k", 5, 50, 5, 50); !r.Found || !r.Still {
		t.Fatalf("unrelated invalidation truncated entry: %+v", r)
	}
	// Matching tag truncates at the message timestamp.
	s.ApplyInvalidation(invalidation.Message{TS: 30, Tags: ids([]invalidation.Tag{tag})})
	r := s.Lookup(context.Background(), "k", 5, 50, 5, 50)
	if !r.Found || r.Still || r.Validity != iv(5, 30) {
		t.Fatalf("r = %+v", r)
	}
	// A later insert of the recomputed value coexists as a second version.
	s.Put("k", []byte("v2"), iv(30, interval.Infinity), true, 30, ids([]invalidation.Tag{tag}))
	r = s.Lookup(context.Background(), "k", 30, 50, 5, 50)
	if !r.Found || string(r.Data) != "v2" {
		t.Fatalf("r = %+v", r)
	}
}

func TestWildcardInvalidationBothDirections(t *testing.T) {
	s := New(Config{})
	advanceTo(s, 10)
	// Entry tagged with a key tag is hit by a table wildcard invalidation.
	s.Put("a", []byte("a"), iv(5, interval.Infinity), true, 10,
		ids([]invalidation.Tag{invalidation.KeyTag("items", "id", "1")}))
	// Entry tagged with a wildcard (it depends on a scan) is hit by any
	// key invalidation on the table.
	s.Put("b", []byte("b"), iv(5, interval.Infinity), true, 10,
		ids([]invalidation.Tag{{Table: "items", Wildcard: true}}))

	s.ApplyInvalidation(invalidation.Message{TS: 20, Tags: ids([]invalidation.Tag{{Table: "items", Wildcard: true}})})
	if r := s.Lookup(context.Background(), "a", 5, 50, 5, 50); r.Still || r.Validity.Hi != 20 {
		t.Fatalf("wildcard msg must invalidate key-tagged entry: %+v", r)
	}
	s.Put("c", []byte("c"), iv(20, interval.Infinity), true, 20,
		ids([]invalidation.Tag{{Table: "items", Wildcard: true}}))
	s.ApplyInvalidation(invalidation.Message{TS: 30, Tags: ids([]invalidation.Tag{invalidation.KeyTag("items", "id", "9")})})
	if r := s.Lookup(context.Background(), "c", 20, 50, 5, 50); r.Still || r.Validity.Hi != 30 {
		t.Fatalf("key msg must invalidate scan-tagged entry: %+v", r)
	}
	if r := s.Lookup(context.Background(), "b", 5, 50, 5, 50); r.Validity.Hi != 20 {
		t.Fatalf("entry b: %+v", r)
	}
}

func TestAtomicMultiTagInvalidation(t *testing.T) {
	s := New(Config{})
	advanceTo(s, 10)
	s.Put("x", []byte("x"), iv(5, interval.Infinity), true, 10,
		ids([]invalidation.Tag{invalidation.KeyTag("t", "id", "1")}))
	s.Put("y", []byte("y"), iv(5, interval.Infinity), true, 10,
		ids([]invalidation.Tag{invalidation.KeyTag("t", "id", "2")}))
	// One transaction touched both; both must be truncated at the same ts.
	s.ApplyInvalidation(invalidation.Message{TS: 42, Tags: ids([]invalidation.Tag{
		invalidation.KeyTag("t", "id", "1"), invalidation.KeyTag("t", "id", "2"),
	})})
	rx := s.Lookup(context.Background(), "x", 5, 50, 5, 50)
	ry := s.Lookup(context.Background(), "y", 5, 50, 5, 50)
	if rx.Validity.Hi != 42 || ry.Validity.Hi != 42 {
		t.Fatalf("rx=%+v ry=%+v", rx, ry)
	}
}

func TestOutOfOrderInvalidationIgnored(t *testing.T) {
	s := New(Config{})
	advanceTo(s, 20)
	before := s.Stats().Invalidations
	advanceTo(s, 15) // stale
	advanceTo(s, 20) // duplicate
	if got := s.Stats().Invalidations - before; got != 0 {
		t.Fatalf("stale/dup messages processed: %d", got)
	}
	if s.LastInvalidation() != 20 {
		t.Fatalf("lastInval = %d", s.LastInvalidation())
	}
}

func TestCapacityEvictionLRU(t *testing.T) {
	// Each version charges len(key)=2 + len(data)=9 + overhead bytes.
	// One shard makes the LRU order exact and global; with several shards
	// eviction under the global budget is LRU per shard, so the victim
	// would depend on key routing.
	s := newSharded(Config{CapacityBytes: 3 * (perVersionOverhead + 11)}, 1)
	payload := make([]byte, 9)
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("k%d", i), payload, iv(10, 20), false, 0, nil)
	}
	// Touch k0 so k1 is the LRU victim.
	s.Lookup(context.Background(), "k0", 10, 20, 10, 20)
	s.Put("k3", payload, iv(10, 20), false, 0, nil)

	if r := s.Lookup(context.Background(), "k1", 10, 20, 10, 20); r.Found || r.Miss != MissCapacity {
		t.Fatalf("k1 should be a capacity miss: %+v", r)
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if r := s.Lookup(context.Background(), k, 10, 20, 10, 20); !r.Found {
			t.Fatalf("%s should survive", k)
		}
	}
	st := s.Stats()
	if st.EvictedCapacity != 1 {
		t.Fatalf("evictions = %d", st.EvictedCapacity)
	}
	if st.BytesUsed > s.cfg.CapacityBytes {
		t.Fatalf("bytes used %d exceeds capacity %d", st.BytesUsed, s.cfg.CapacityBytes)
	}
}

func TestMissClassification(t *testing.T) {
	s := New(Config{})
	advanceTo(s, 50)
	// Version valid [10,20): fresh window is [5,60], pin bounds [30,40].
	s.Put("k", []byte("v"), iv(10, 20), false, 0, nil)
	r := s.Lookup(context.Background(), "k", 30, 40, 5, 60)
	if r.Found || r.Miss != MissConsistency {
		t.Fatalf("want consistency miss, got %+v", r)
	}
	// Entirely outside the fresh window too: staleness miss.
	r = s.Lookup(context.Background(), "k", 30, 40, 25, 60)
	if r.Found || r.Miss != MissStaleness {
		t.Fatalf("want staleness miss, got %+v", r)
	}
}

func TestEagerStalenessSweep(t *testing.T) {
	clk := &clock.Virtual{}
	s := New(Config{MaxStaleness: 10 * time.Second, Clock: clk})
	base := clk.Now()
	s.ApplyInvalidation(invalidation.Message{TS: 5, WallTime: base})
	tag := invalidation.KeyTag("t", "id", "1")
	s.Put("k", []byte("v"), iv(5, interval.Infinity), true, 5, ids([]invalidation.Tag{tag}))
	s.ApplyInvalidation(invalidation.Message{TS: 10, WallTime: base.Add(time.Second), Tags: ids([]invalidation.Tag{tag})})

	clk.Advance(30 * time.Second)
	s.SweepStale()
	st := s.Stats()
	if st.EvictedStale != 1 || st.Versions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStatsHitRate(t *testing.T) {
	s := New(Config{})
	advanceTo(s, 10)
	s.Put("k", []byte("v"), iv(5, interval.Infinity), true, 10, nil)
	s.Lookup(context.Background(), "k", 5, 10, 5, 10)
	s.Lookup(context.Background(), "zzz", 5, 10, 5, 10)
	st := s.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses() != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.ResetStats()
	if st := s.Stats(); st.Lookups != 0 {
		t.Fatalf("reset failed: %+v", st)
	}
}

func TestServeOverTCP(t *testing.T) {
	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.Serve(l)

	c, err := Dial(l.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Push an invalidation to advance the horizon, then put and look up.
	if err := c.PushInvalidation(context.Background(), invalidation.Message{TS: 10, WallTime: time.Now()}); err != nil {
		t.Fatal(err)
	}
	tags := ids([]invalidation.Tag{invalidation.KeyTag("users", "id", "1"), invalidation.Tag{Table: "extra", Wildcard: true}})
	c.Put("k", []byte("hello"), iv(5, interval.Infinity), true, 10, tags)

	deadline := time.Now().Add(2 * time.Second)
	var r LookupResult
	for time.Now().Before(deadline) {
		r = c.Lookup(context.Background(), "k", 5, 50, 5, 50)
		if r.Found {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !r.Found || string(r.Data) != "hello" || !r.Still || r.Validity != iv(5, 11) {
		t.Fatalf("r = %+v", r)
	}

	if err := c.PushInvalidation(context.Background(), invalidation.Message{TS: 11, WallTime: time.Now(),
		Tags: ids([]invalidation.Tag{invalidation.KeyTag("users", "id", "1")})}); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		r = c.Lookup(context.Background(), "k", 5, 50, 5, 50)
		if !r.Still {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r.Still || r.Validity.Hi != 11 {
		t.Fatalf("after invalidation: %+v", r)
	}

	st := c.Stats()
	if st.Puts != 1 || st.Hits == 0 {
		t.Fatalf("remote stats = %+v", st)
	}
	c.ResetStats()
	if st := c.Stats(); st.Puts != 0 {
		t.Fatalf("remote reset failed: %+v", st)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := New(Config{})
	advanceTo(s, 1000)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%50)
				s.Put(key, []byte("v"), iv(interval.Timestamp(i+1), interval.Timestamp(i+2)), false, 0, nil)
				s.Lookup(context.Background(), key, 0, 1000, 0, 1000)
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestLateInsertAfterMatchingInvalidation is the regression test for the
// flip side of §4.2's race: a still-valid insert generated at snapshot S
// arriving after the node processed a matching invalidation at T > S must
// be truncated at T, not served as valid through the current horizon.
func TestLateInsertAfterMatchingInvalidation(t *testing.T) {
	s := New(Config{})
	advanceTo(s, 10)
	tag := invalidation.KeyTag("accounts", "id", "1")

	// The invalidation (a later write to the account) is processed first...
	s.ApplyInvalidation(invalidation.Message{TS: 15, Tags: ids([]invalidation.Tag{tag})})
	advanceTo(s, 25)
	// ...then the slow application server's insert arrives, computed at
	// snapshot 10 with validity starting at 5.
	s.Put("bal", []byte("old"), iv(5, interval.Infinity), true, 10, ids([]invalidation.Tag{tag}))

	r := s.Lookup(context.Background(), "bal", 5, 50, 5, 50)
	if !r.Found {
		t.Fatalf("entry should still serve past readers: %+v", r)
	}
	if r.Still || r.Validity != iv(5, 15) {
		t.Fatalf("late insert must be truncated at 15: %+v", r)
	}
	// A reader at a fresh pin (>= 15) must NOT see the stale value.
	if r := s.Lookup(context.Background(), "bal", 20, 25, 5, 50); r.Found {
		t.Fatalf("stale value served to fresh reader: %+v", r)
	}
}

// nodeStream is a node on one of the two seams an invalidation stream reaches
// it by.
type nodeStream struct {
	s    *Server
	node Node // s as its clients reach it on this seam
	// deliver sends one message down the stream; it is applied (or dropped
	// as a duplicate) on return.
	deliver func(invalidation.Message)
	// lose has the stream's owner publish ms while the node is not listening:
	// it never receives them, and nobody tells it so.
	lose func(ms ...invalidation.Message)
}

// streams are the two seams: an in-process subscription, and the database's
// acked push over TCP. Each starts a fresh node on its own stream.
var streams = map[string]func(t *testing.T) nodeStream{
	"ConsumeStream": func(t *testing.T) nodeStream {
		s := New(Config{})
		bus := invalidation.NewBus(false)
		var sub *invalidation.Subscription
		join := func() {
			sub = bus.Subscribe()
			go s.ConsumeStream(sub)
		}
		join()
		t.Cleanup(func() { sub.Close() })
		return nodeStream{s: s, node: s,
			deliver: func(m invalidation.Message) {
				bus.Publish(m)
				for deadline := time.Now().Add(5 * time.Second); s.LastInvalidation() < m.TS; time.Sleep(50 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("message %d never applied (at %d)", m.TS, s.LastInvalidation())
					}
				}
			},
			// The node is removed and added back: its new subscription
			// starts wherever the bus is by then.
			lose: func(ms ...invalidation.Message) {
				sub.Close()
				bus.Publish(ms...)
				join()
			},
		}
	},
	"TCPPush": func(t *testing.T) nodeStream {
		s, addr := startServer(t)
		c, err := Dial(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return nodeStream{s: s, node: c,
			deliver: func(m invalidation.Message) {
				if err := c.PushInvalidation(context.Background(), m); err != nil {
					t.Fatal(err)
				}
			},
			// The stream's owner died with these unsent, or never sent them.
			lose: func(...invalidation.Message) {},
		}
	},
}

// TestFreshNodeMidStream: a node whose stream starts at 50 (a restarted
// daemon, a joiner) knows nothing of what happened below 50. What it was
// given before that message it cannot keep open across it, and a still-valid
// insert generated at 20 that arrives afterwards is worth [10, 21) — what its
// transaction proved — not [10, 51).
func TestFreshNodeMidStream(t *testing.T) {
	for name, start := range streams {
		t.Run(name, func(t *testing.T) {
			ns := start(t)
			s, deliver := ns.s, ns.deliver
			tags := ids([]invalidation.Tag{invalidation.KeyTag("t", "id", "1")})
			s.Put("early", []byte("v"), iv(10, interval.Infinity), true, 20, tags)
			deliver(invalidation.Message{TS: 50, WallTime: time.Unix(50, 0)})
			s.Put("late", []byte("v"), iv(10, interval.Infinity), true, 20, tags)
			for _, k := range []string{"early", "late"} {
				if r := s.Lookup(context.Background(), k, 50, 50, 0, interval.Infinity); r.Found {
					t.Errorf("%s served at 50 by a node that saw nothing of (20, 50): %+v", k, r)
				}
			}
			if r := s.Lookup(context.Background(), "late", 10, 50, 0, interval.Infinity); !r.Found || r.Still || r.Validity != iv(10, 21) {
				t.Fatalf("late insert must close at genSnap+1 = 21: %+v", r)
			}
			// From its first message on the node has seen everything.
			s.Put("k", []byte("v"), iv(10, interval.Infinity), true, 50, tags)
			if r := s.Lookup(context.Background(), "k", 50, 50, 0, interval.Infinity); !r.Found || !r.Still || r.Validity != iv(10, 51) {
				t.Fatalf("insert generated at the first message should stay still-valid: %+v", r)
			}
		})
	}
}

// TestFirstMessageBoundsUncheckableInserts is the regression test for the
// node-join hole: a node that joins the stream at timestamp 20 has no
// history below it, so a still-valid insert generated at an older snapshot
// cannot be proven uninvalidated and must be conservatively closed at
// genSnap+1 — never served as valid through the node's horizon.
func TestFirstMessageBoundsUncheckableInserts(t *testing.T) {
	ns := streams["ConsumeStream"](t)
	s, deliver := ns.s, ns.deliver
	deliver(invalidation.Message{TS: 20, WallTime: time.Unix(20, 0)}) // the joining node's first message
	tag := invalidation.KeyTag("t", "id", "1")
	s.Put("k", []byte("v"), iv(5, interval.Infinity), true, 5, ids([]invalidation.Tag{tag}))
	r := s.Lookup(context.Background(), "k", 5, 50, 5, 50)
	if !r.Found || r.Still || r.Validity != iv(5, 6) {
		t.Fatalf("pre-join insert must close at genSnap+1: %+v", r)
	}
	// A reader pinned past the horizon must not see it.
	if r := s.Lookup(context.Background(), "k", 25, 30, 5, 50); r.Found {
		t.Fatalf("pre-join insert served to fresh reader: %+v", r)
	}
	// Inserts generated at or after the first message stay still-valid: the
	// node will see every later invalidation on its stream.
	s.Put("k2", []byte("v"), iv(20, interval.Infinity), true, 20, ids([]invalidation.Tag{tag}))
	if r := s.Lookup(context.Background(), "k2", 20, 50, 5, 50); !r.Found || !r.Still {
		t.Fatalf("post-join insert should stay still-valid: %+v", r)
	}
}

// TestLateInsertBeyondHistory: when the retained history no longer covers
// the generating snapshot, the entry is conservatively closed at genSnap+1.
func TestLateInsertBeyondHistory(t *testing.T) {
	// The ring keeps exactly the last HistoryLen messages: of eleven, 24..30
	// stay and the floor is 22, the newest one dropped.
	s := New(Config{HistoryLen: 4})
	for ts := interval.Timestamp(10); ts <= 30; ts += 2 {
		advanceTo(s, ts)
	}
	// History now covers only recent messages; genSnap 10 predates it.
	tag := invalidation.KeyTag("t", "id", "1")
	s.Put("k", []byte("v"), iv(5, interval.Infinity), true, 10, ids([]invalidation.Tag{tag}))
	r := s.Lookup(context.Background(), "k", 5, 50, 5, 50)
	if !r.Found || r.Still || r.Validity != iv(5, 11) {
		t.Fatalf("uncheckable insert must close at genSnap+1: %+v", r)
	}
	// At the floor the ring holds everything after genSnap.
	s.Put("at-floor", []byte("v"), iv(5, interval.Infinity), true, 22, ids([]invalidation.Tag{tag}))
	if r := s.Lookup(context.Background(), "at-floor", 5, 30, 5, 50); !r.Found || !r.Still {
		t.Fatalf("insert generated at the floor should stay still-valid: %+v", r)
	}
	// A tagless (pure-function) entry is exempt: nothing can invalidate it.
	s.Put("pure", []byte("v"), iv(5, interval.Infinity), true, 0, nil)
	if r := s.Lookup(context.Background(), "pure", 5, 50, 5, 50); !r.Found || !r.Still {
		t.Fatalf("tagless entry should stay still-valid: %+v", r)
	}
	if st := s.Stats(); st.FloorClosed != 1 {
		t.Fatalf("FloorClosed = %d, want 1: only the insert below the floor", st.FloorClosed)
	}
}
