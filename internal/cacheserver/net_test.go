package cacheserver

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { l.Close() })
	return s, l.Addr().String()
}

// TestPushInvalidationAcked: a nil PushInvalidation return means the node
// has applied the message (the push is a synchronous acked round trip,
// which is what makes the daemon's retry loop gapless).
func TestPushInvalidationAcked(t *testing.T) {
	s, addr := startServer(t)
	c, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for ts := interval.Timestamp(5); ts <= 15; ts += 5 {
		if err := c.PushInvalidation(context.Background(), invalidation.Message{TS: ts, WallTime: time.Now()}); err != nil {
			t.Fatal(err)
		}
		if got := s.LastInvalidation(); got != ts {
			t.Fatalf("after acked push of %d, LastInvalidation = %d", ts, got)
		}
	}
	// Duplicate delivery (a retry whose first attempt did arrive) is
	// deduplicated, still acked.
	if err := c.PushInvalidation(context.Background(), invalidation.Message{TS: 10, WallTime: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if got := s.LastInvalidation(); got != 15 {
		t.Fatalf("duplicate push regressed horizon to %d", got)
	}
}

func TestAsyncPutFlushAndStats(t *testing.T) {
	s, addr := startServer(t)
	s.ApplyInvalidation(invalidation.Message{TS: 10, WallTime: time.Now()})
	c, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Put("k", []byte("v"), iv(5, interval.Infinity), true, 10, nil)
	if err := c.FlushContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := c.ClientStats()
	if st.PutsQueued != 1 || st.PutsSent != 1 || st.PutsDropped != 0 {
		t.Fatalf("put stats after flush: %+v", st)
	}
	// Flush guarantees the frame was written, not yet applied; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r := c.Lookup(context.Background(), "k", 5, 50, 5, 50); r.Found {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("flushed put never became visible")
}

// TestLookupBatchMatchesLookup: LookupBatch answers each probe exactly as
// Lookup does, in order, on the in-process node and over TCP alike. The
// probes touch every shard and are hits (still valid and bounded), misses
// of keys never stored, and stale probes past a bounded version.
func TestLookupBatchMatchesLookup(t *testing.T) {
	s := newSharded(Config{}, 8)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer l.Close()
	c, err := Dial(l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	advanceTo(s, 200)
	var reqs []BatchLookup
	shards := map[uint32]bool{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%d", i)
		shards[s.shardIndex(key)] = true
		lo := interval.Timestamp(10 + i)
		if i%2 == 0 {
			s.Put(key, []byte(key), iv(lo, interval.Infinity), true, lo, []invalidation.TagID{invalidation.Intern(invalidation.KeyTag("t", "id", key))})
		} else {
			s.Put(key, []byte(key), iv(lo, lo+5), false, 0, nil)
		}
		reqs = append(reqs,
			BatchLookup{Key: key, Lo: lo, Hi: lo + 2, OrigLo: 0, OrigHi: interval.Infinity},
			BatchLookup{Key: key, Lo: lo + 100, Hi: lo + 100, OrigLo: lo + 100, OrigHi: interval.Infinity},
			BatchLookup{Key: "never-" + key, Lo: lo, Hi: lo, OrigLo: 0, OrigHi: interval.Infinity})
	}
	if len(shards) != len(s.shards) {
		t.Fatalf("probes touch %d of %d shards", len(shards), len(s.shards))
	}
	for _, n := range []Node{s, c} {
		out := n.LookupBatch(context.Background(), reqs)
		if len(out) != len(reqs) {
			t.Fatalf("%T: %d results for %d probes", n, len(out), len(reqs))
		}
		kinds := map[MissKind]int{}
		for i, q := range reqs {
			want := n.Lookup(context.Background(), q.Key, q.Lo, q.Hi, q.OrigLo, q.OrigHi)
			if !reflect.DeepEqual(out[i], want) {
				t.Fatalf("%T probe %d (%+v): batch %+v, Lookup %+v", n, i, q, out[i], want)
			}
			if out[i].Found && string(out[i].Data) != q.Key {
				t.Fatalf("%T probe %d: data %q answers another key than %q", n, i, out[i].Data, q.Key)
			}
			kinds[out[i].Miss]++
		}
		if kinds[MissNone] != 96 || kinds[MissCompulsory] != 64 || kinds[MissStaleness] != 32 {
			t.Fatalf("%T: answers by kind %v, want 96 hits, 64 compulsory and 32 staleness misses", n, kinds)
		}
	}
}

// TestBatchLookupTCP: the TCP client's LookupBatch answers a hit that is
// still valid (its validity bounded at the node's last invalidation), a
// miss of a key never stored, and a hit of a bounded entry, in order; and
// the node sees one lookup per probe, since the batch is a loop over Lookup.
func TestBatchLookupTCP(t *testing.T) {
	s, addr := startServer(t)
	s.ApplyInvalidation(invalidation.Message{TS: 10, WallTime: time.Now()})
	s.Put("a", []byte("va"), iv(1, interval.Infinity), true, 1, nil)
	s.Put("b", []byte("vb"), iv(2, 8), false, 0, nil)
	c, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rs := c.LookupBatch(context.Background(), []BatchLookup{
		{Key: "a", Lo: 1, Hi: 50, OrigLo: 0, OrigHi: interval.Infinity},
		{Key: "missing", Lo: 1, Hi: 50, OrigLo: 0, OrigHi: interval.Infinity},
		{Key: "b", Lo: 3, Hi: 5, OrigLo: 0, OrigHi: interval.Infinity},
	})
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	if !rs[0].Found || string(rs[0].Data) != "va" || !rs[0].Still || rs[0].Validity != iv(1, 11) {
		t.Fatalf("rs[0] = %+v", rs[0])
	}
	if rs[1].Found || rs[1].Miss != MissCompulsory {
		t.Fatalf("rs[1] = %+v", rs[1])
	}
	if !rs[2].Found || string(rs[2].Data) != "vb" || rs[2].Validity != iv(2, 8) {
		t.Fatalf("rs[2] = %+v", rs[2])
	}
	if sst := s.Stats(); sst.Lookups != 3 {
		t.Fatalf("server saw %d lookups, want 3", sst.Lookups)
	}
}

// TestPutAfterCloseDropsSafely: puts against a closed client must neither
// block nor panic, and must surface as drops once the queue fills.
func TestPutAfterCloseDropsSafely(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	for i := 0; i < DefaultPutQueue+10; i++ {
		c.Put("k", []byte("v"), iv(1, 2), false, 0, nil)
	}
	if st := c.ClientStats(); st.PutsDropped == 0 {
		t.Fatalf("expected drops after close: %+v", st)
	}
	// A flush of a closed client must return at once, saying so.
	if err := c.FlushContext(context.Background()); err != errClosed {
		t.Fatalf("FlushContext on a closed client = %v, want %v", err, errClosed)
	}
}

// TestPushStreamEnds pins the two ways a node's invalidation stream ends.
// The first is the teardown the serve stack used to get wrong: the
// subscription is closed, then the client, with one push unacked and one
// message still buffered — a loop that only retries until acked spins
// against the closed client forever.
func TestPushStreamEnds(t *testing.T) {
	before := runtime.NumGoroutine()
	addr, held := holdServer(t) // reads pushes, never acks them
	c, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	bus := invalidation.NewBus(false)
	sub := bus.Subscribe()
	done := make(chan error, 1)
	go func() { done <- c.PushStream(sub) }()
	bus.Publish(invalidation.Message{TS: 1})
	bus.Publish(invalidation.Message{TS: 2})
	select {
	case <-held: // the first push is in flight, the second waits behind it
	case <-time.After(2 * time.Second):
		t.Fatal("no push reached the node")
	}
	sub.Close()
	c.Close()
	select {
	case err := <-done:
		if err != errClosed {
			t.Errorf("PushStream after its client closed = %v, want %v", err, errClosed)
		}
	case <-time.After(time.Second):
		t.Fatal("PushStream still running a second after its client closed")
	}

	// A closed subscription ends the stream once what it delivered is acked.
	s, addr := startServer(t)
	c, err = Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub = bus.Subscribe()
	go func() { done <- c.PushStream(sub) }()
	for ts := interval.Timestamp(1); ts <= 3; ts++ {
		bus.Publish(invalidation.Message{TS: ts, WallTime: time.Now()})
	}
	for deadline := time.Now().Add(2 * time.Second); s.LastInvalidation() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node at horizon %d, want 3", s.LastInvalidation())
		}
	}
	sub.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("PushStream after its subscription closed = %v, want nil", err)
		}
	case <-time.After(time.Second):
		t.Fatal("PushStream outlived its subscription")
	}
	c.Close()

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before+3; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after every stream ended\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
