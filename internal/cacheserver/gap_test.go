package cacheserver

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// Crossing a gap: the stream carries one message per commit timestamp, so a
// message that is not the successor of the node's horizon says the node was
// not delivered what lies between — and one of those messages may have named
// an entry it holds. The node closes every tag-registered still-valid entry
// at exactly its current effective validity, raises its history floor to just
// below the message, and only then applies it. Nobody has to tell it.

// TestStreamGap drives the rule through both seams a stream reaches a node by.
func TestStreamGap(t *testing.T) {
	tag := ids([]invalidation.Tag{invalidation.KeyTag("users", "id", "7")})
	other := ids([]invalidation.Tag{invalidation.KeyTag("users", "id", "8")})
	inf := interval.Infinity
	ctx := context.Background()
	at := func(ts interval.Timestamp, tags []invalidation.TagID) invalidation.Message {
		return invalidation.Message{TS: ts, WallTime: time.Unix(int64(ts), 0), Tags: tags}
	}

	// A dense stream is the steady state: the rule never fires past the
	// join, nothing is closed that no message named, and an entry generated
	// at the horizon rides every new one.
	t.Run("ValidFlow", func(t *testing.T) {
		for name, start := range streams {
			t.Run(name, func(t *testing.T) {
				ns := start(t)
				for ts := interval.Timestamp(2); ts <= 10; ts++ {
					ns.deliver(at(ts, other))
				}
				ns.s.Put("k", []byte("v"), iv(5, inf), true, 10, tag)
				for ts := interval.Timestamp(11); ts <= 40; ts++ {
					ns.deliver(at(ts, other))
					r := ns.node.Lookup(ctx, "k", ts, ts, 0, inf)
					if !r.Found || !r.Still || r.Validity != iv(5, ts+1) {
						t.Fatalf("at horizon %d: found=%v validity=%v still=%v, want [5,%d) still", ts, r.Found, r.Validity, r.Still, ts+1)
					}
				}
				if st := ns.s.Stats(); st.Invalidated != 0 || st.Invalidations != 39 {
					t.Fatalf("dense stream 2..40: %d versions closed, %d messages applied; want 0 and 39", st.Invalidated, st.Invalidations)
				}
				// It is closed by the message that names it, and there.
				ns.deliver(at(41, tag))
				if r := ns.node.Lookup(ctx, "k", 5, 41, 0, inf); !r.Found || r.Still || r.Validity != iv(5, 41) {
					t.Fatalf("after its own invalidation at 41: %+v", r)
				}
			})
		}
	})

	// Messages 11..20 never arrive, and 15 named the entry.
	t.Run("RejectionFlow", func(t *testing.T) {
		for name, start := range streams {
			t.Run(name, func(t *testing.T) {
				ns := start(t)
				for ts := interval.Timestamp(2); ts <= 10; ts++ {
					ns.deliver(at(ts, nil))
				}
				ns.s.Put("dep", []byte("v"), iv(5, inf), true, 10, tag)
				ns.s.Put("pure", []byte("p"), iv(5, inf), true, 10, nil)
				var lost []invalidation.Message
				for ts := interval.Timestamp(11); ts <= 20; ts++ {
					m := at(ts, nil)
					if ts == 15 {
						m.Tags = tag
					}
					lost = append(lost, m)
				}
				ns.lose(lost...)
				ns.deliver(at(21, nil))

				if hz := ns.node.Stats().Horizon; hz != 21 {
					t.Fatalf("horizon after message 21 = %d", hz)
				}
				// The entry keeps the validity it was served with at horizon 10
				// and not a timestamp more.
				r := ns.node.Lookup(ctx, "dep", 5, 21, 0, inf)
				if !r.Found || r.Still || r.Validity != iv(5, 11) {
					t.Fatalf("entry held across the gap (10, 21): found=%v validity=%v still=%v, want [5,11) closed", r.Found, r.Validity, r.Still)
				}
				if r := ns.node.Lookup(ctx, "dep", 21, 21, 0, inf); r.Found {
					t.Fatalf("entry invalidated at 15 served at 21: %+v", r)
				}
				// Nothing in the database can invalidate a tagless entry.
				if r := ns.node.Lookup(ctx, "pure", 5, 21, 0, inf); !r.Found || !r.Still || r.Validity != iv(5, 22) {
					t.Fatalf("tagless entry after the gap: %+v", r)
				}
				// A put generated inside the gap cannot be checked against
				// messages the node never had.
				ns.s.Put("late", []byte("v"), iv(5, inf), true, 12, tag)
				if r := ns.node.Lookup(ctx, "late", 5, 21, 0, inf); !r.Found || r.Still || r.Validity != iv(5, 13) {
					t.Fatalf("put generated below the new floor: %+v, want [5,13) closed", r)
				}

				// A duplicate or stale message is dropped before the rule looks
				// at it: it closes nothing and is no gap. The dense successor
				// behind it proves the drop happened (the stream is ordered).
				ns.s.Put("post", []byte("v"), iv(21, inf), true, 21, tag)
				before := ns.s.Stats()
				ns.deliver(at(15, tag))
				ns.deliver(at(21, tag))
				ns.deliver(at(22, nil))
				if r := ns.node.Lookup(ctx, "post", 22, 22, 0, inf); !r.Found || !r.Still || r.Validity != iv(21, 23) {
					t.Fatalf("entry put at the far side, after two stale messages and 22: %+v", r)
				}
				after := ns.s.Stats()
				if after.Invalidations != before.Invalidations+1 || after.Invalidated != before.Invalidated {
					t.Fatalf("stale messages counted: %d -> %d applied, %d -> %d closed", before.Invalidations, after.Invalidations, before.Invalidated, after.Invalidated)
				}
				// 20 was the floor and still is: a put generated at 21 is checkable.
				ns.s.Put("post2", []byte("v"), iv(21, inf), true, 21, tag)
				if r := ns.node.Lookup(ctx, "post2", 22, 22, 0, inf); !r.Found || !r.Still {
					t.Fatalf("a stale message moved the history floor: %+v", r)
				}
			})
		}
	})

	// Putters and lookers race a stream with one hole, (100, 200]. Every
	// payload says what horizon its put was generated at, so a looker can
	// tell a version from before the hole; nothing in the stream names the
	// tag, so only the rule can close one.
	t.Run("ConcurrentFlow", func(t *testing.T) {
		const before, far, end = 100, 200, 300
		ns := streams["ConsumeStream"](t)
		s := ns.s
		var keys, holeKey atomic.Uint64 // keys put so far; how many when the stream reached the hole
		key := func(n uint64) string { return fmt.Sprintf("k%d", n) }
		var bad atomic.Int64
		check := func(k string, r LookupResult) {
			if r.Found && r.Still && binary.LittleEndian.Uint64(r.Data) <= before && bad.Add(1) <= 3 {
				t.Errorf("%s, generated at %d, is still valid at %v on a node that never saw (%d, %d]",
					k, binary.LittleEndian.Uint64(r.Data), r.Validity, before, far)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					gen := s.LastInvalidation()
					if keys.Load() >= 32*uint64(gen) { // paced by the stream: the test holds every key
						runtime.Gosched()
						continue
					}
					s.Put(key(keys.Add(1)), binary.LittleEndian.AppendUint64(nil, uint64(gen)), iv(gen, inf), true, gen, tag)
				}
			}()
			go func() {
				defer wg.Done()
				for n := uint64(0); ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					hz := s.LastInvalidation()
					if hz < far {
						runtime.Gosched()
						continue
					}
					// The keys put around the hole are the ones a crossing
					// in the wrong order would leave open for a moment.
					k := key(holeKey.Load() - 64 + n%128)
					check(k, s.Lookup(ctx, k, hz, hz, 0, inf))
				}
			}()
		}
		for ts := interval.Timestamp(2); ts <= end; ts++ {
			if ts == before+1 {
				for keys.Load() < 64 { // the hole must have something to close
					runtime.Gosched()
				}
				holeKey.Store(keys.Load())
				ts = far + 1
			}
			ns.deliver(at(ts, other))
		}
		close(stop)
		wg.Wait()
		for n := uint64(1); n <= keys.Load(); n++ {
			check(key(n), s.Lookup(ctx, key(n), far, end, 0, inf))
		}
		if n := bad.Load(); n > 3 {
			t.Errorf("and %d more", n-3)
		}
	})
}

// TestStreamGapAfterOverflow: the bus holds one ring of messages, and a
// subscription the writer laps resumes at the newest message, telling nobody.
// The node sees the hole as a message that is not its horizon's successor,
// crosses it once, and is current.
func TestStreamGapAfterOverflow(t *testing.T) {
	tag := ids([]invalidation.Tag{invalidation.KeyTag("users", "id", "7")})
	inf := interval.Infinity
	ctx := context.Background()
	at := func(ts interval.Timestamp, tags []invalidation.TagID) invalidation.Message {
		return invalidation.Message{TS: ts, WallTime: time.Unix(int64(ts), 0), Tags: tags}
	}
	logged := func(t *testing.T) *strings.Builder {
		var b strings.Builder
		log.SetOutput(&b)
		t.Cleanup(func() { log.SetOutput(os.Stderr) })
		return &b
	}
	waitFor := func(t *testing.T, s *Server, ts interval.Timestamp) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); s.LastInvalidation() != ts; time.Sleep(100 * time.Microsecond) {
			if hz := s.LastInvalidation(); hz > ts || time.Now().After(deadline) {
				t.Fatalf("node's horizon is %d, want %d", hz, ts)
			}
		}
	}

	// A node that keeps up with a stream twice the ring long is never lapped:
	// no gap, nothing dropped, and an entry nothing names rides to the end.
	t.Run("ValidFlow", func(t *testing.T) {
		out := logged(t)
		bus := invalidation.NewBus(false)
		sub := bus.Subscribe()
		defer sub.Close()
		s := New(Config{})
		go s.ConsumeStream(sub)
		bus.Publish(at(2, nil))
		waitFor(t, s, 2)
		s.Put("dep", []byte("v"), iv(1, inf), true, 2, tag)
		const last = 2*16<<10 + 2
		for ts := interval.Timestamp(3); ts <= last; ts++ {
			bus.Publish(at(ts, nil))
			for s.LastInvalidation()+8<<10 < ts { // half a ring behind at most
				time.Sleep(10 * time.Microsecond)
			}
		}
		waitFor(t, s, last)
		if r := s.Lookup(ctx, "dep", 1, last, 0, inf); !r.Found || !r.Still || r.Validity != iv(1, last+1) {
			t.Fatalf("entry after a dense stream to %d: %+v, want [1,%d) still", last, r, last+1)
		}
		if d, n := bus.Dropped(), strings.Count(out.String(), "invalidation stream gap"); d != 0 || n != 0 {
			t.Fatalf("a node that kept up: %d dropped, %d gaps", d, n)
		}
	})

	// Nobody reads while the writer laps the subscription, and every message
	// it passes over names the entry's tag. The node that comes back takes
	// what the subscription's pump held (ts 2, if the pump had it), then the
	// newest message at the lap: it crosses one gap, closes the entry at the
	// validity it had, and is current.
	t.Run("RejectionFlow", func(t *testing.T) {
		bus := invalidation.NewBus(false)
		sub := bus.Subscribe()
		defer sub.Close()
		s := New(Config{})
		advanceTo(s, 1)
		s.Put("dep", []byte("v"), iv(1, inf), true, 1, tag)
		last := interval.Timestamp(1)
		for bus.Dropped() == 0 {
			if last++; last > 1<<20 {
				t.Fatal("a subscription nobody reads took a million messages and dropped none")
			}
			m := at(last, tag)
			if last == 2 {
				m.Tags = nil
			}
			bus.Publish(m)
		}

		out := logged(t)
		go s.ConsumeStream(sub)
		waitFor(t, s, last)
		took := s.Stats().Invalidations - 1 // the newest, and ts 2 if the pump held it
		if took != 1 && took != 2 {
			t.Fatalf("the lapped subscription delivered %d messages, want the newest and at most ts 2 before it", took)
		}
		from := interval.Timestamp(took) // the horizon the gap was crossed at
		if want := fmt.Sprintf("at %d, next message %d;", from, last); !strings.Contains(out.String(), want) {
			t.Fatalf("want the gap logged %q:\n%s", want, out.String())
		}
		if d := bus.Dropped(); d != uint64(last)-1-took {
			t.Fatalf("Dropped() = %d of %d messages published with %d delivered, want %d", d, last-1, took, uint64(last)-1-took)
		}
		if r := s.Lookup(ctx, "dep", 1, last, 0, inf); !r.Found || r.Still || r.Validity != iv(1, from+1) {
			t.Fatalf("entry held across the lap (%d, %d): found=%v validity=%v still=%v, want [1,%d) closed",
				from, last, r.Found, r.Validity, r.Still, from+1)
		}
		if r := s.Lookup(ctx, "dep", last, last, 0, inf); r.Found {
			t.Fatalf("entry named by a skipped message served at %d: %+v", last, r)
		}

		// One gap: the stream is dense again, and an entry put at its far side
		// rides the next message.
		s.Put("post", []byte("v"), iv(last, inf), true, last, tag)
		bus.Publish(at(last+1, nil))
		waitFor(t, s, last+1)
		if r := s.Lookup(ctx, "post", last+1, last+1, 0, inf); !r.Found || !r.Still || r.Validity != iv(last, last+2) {
			t.Fatalf("entry put past the hole, after the next message: %+v", r)
		}
		if n := strings.Count(out.String(), "invalidation stream gap"); n != 1 {
			t.Fatalf("the node logged %d gaps, want 1:\n%s", n, out.String())
		}
	})

	// An unpaced writer races a reading node across four rings: whatever it
	// laps, the node ends current, and every message was either applied or
	// counted as dropped — never both, never neither.
	t.Run("ConcurrentFlow", func(t *testing.T) {
		out := logged(t)
		bus := invalidation.NewBus(false)
		sub := bus.Subscribe()
		defer sub.Close()
		s := New(Config{})
		go s.ConsumeStream(sub)
		ts := interval.Timestamp(2)
		for ; ts <= 4*16<<10; ts++ {
			bus.Publish(at(ts, tag))
		}
		waitFor(t, s, ts-1)
		applied, dropped := s.Stats().Invalidations, bus.Dropped()
		if applied+dropped != uint64(ts-2) {
			t.Fatalf("%d messages applied and %d dropped of %d published", applied, dropped, ts-2)
		}
		if gaps := strings.Count(out.String(), "invalidation stream gap"); (gaps == 0) != (dropped == 0) {
			t.Fatalf("%d messages dropped and %d gaps crossed", dropped, gaps)
		}
	})
}

func TestGapClosesStillEntries(t *testing.T) {
	s := New(Config{})
	advanceTo(s, 20) // horizon L = 20
	tag := invalidation.KeyTag("users", "id", "7")
	s.Put("dep", []byte("v"), iv(5, interval.Infinity), true, 10, ids([]invalidation.Tag{tag}))
	s.Put("pure", []byte("p"), iv(5, interval.Infinity), true, 10, nil)

	// Before: both serve with effective validity [5, 21).
	if r := s.Lookup(context.Background(), "dep", 5, 50, 5, 50); !r.Still || r.Validity != iv(5, 21) {
		t.Fatalf("before the gap: %+v", r)
	}

	streamTo(s, 50, time.Now())
	if got := s.LastInvalidation(); got != 50 {
		t.Fatalf("horizon after message 50 = %d, want 50", got)
	}

	// The tagged entry keeps exactly the validity it already had — no lookup
	// answer changed — but it is closed: the horizon jump must not extend it.
	r := s.Lookup(context.Background(), "dep", 5, 50, 5, 50)
	if !r.Found || r.Still || r.Validity != iv(5, 21) {
		t.Fatalf("tagged entry after the gap: %+v", r)
	}
	// The tagless entry nothing can invalidate rides the new horizon.
	r = s.Lookup(context.Background(), "pure", 5, 50, 5, 50)
	if !r.Found || !r.Still || r.Validity != iv(5, 51) {
		t.Fatalf("tagless entry after the gap: %+v", r)
	}

	// A later message matching the tag must not resurrect or extend the
	// closed entry (its registration is gone).
	s.ApplyInvalidation(invalidation.Message{TS: 60, Tags: ids([]invalidation.Tag{tag}), WallTime: time.Now()})
	r = s.Lookup(context.Background(), "dep", 5, 50, 5, 50)
	if !r.Found || r.Still || r.Validity != iv(5, 21) {
		t.Fatalf("tagged entry after a later message: %+v", r)
	}

	// Backward (or equal) messages are no-ops: the stream may redeliver.
	streamTo(s, 40, time.Now())
	if got := s.LastInvalidation(); got != 60 {
		t.Fatalf("stale message moved horizon to %d", got)
	}
}

// TestGapRaisesHistoryFloor: after crossing a gap to R, the history cannot
// prove anything about (old horizon, R], so a still-valid Put generated
// below R must be closed at its generation snapshot, not trusted across the
// gap.
func TestGapRaisesHistoryFloor(t *testing.T) {
	s := New(Config{})
	advanceTo(s, 20)
	streamTo(s, 50, time.Now())

	tag := invalidation.KeyTag("users", "id", "9")
	s.Put("late", []byte("v"), iv(5, interval.Infinity), true, 30, ids([]invalidation.Tag{tag}))
	r := s.Lookup(context.Background(), "late", 5, 50, 5, 50)
	if !r.Found || r.Still || r.Validity != iv(5, 31) {
		t.Fatalf("put below the gap's floor: %+v", r)
	}

	// A put generated at (or after) the gap's far side is checkable again
	// and registers normally.
	s.Put("fresh", []byte("v"), iv(50, interval.Infinity), true, 50, ids([]invalidation.Tag{tag}))
	r = s.Lookup(context.Background(), "fresh", 50, 60, 50, 60)
	if !r.Found || !r.Still || r.Validity != iv(50, 51) {
		t.Fatalf("put at the gap's far side: %+v", r)
	}
}
