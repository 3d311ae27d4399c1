package cacheserver

import (
	"context"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/wire"
	"txcache/internal/wire/wiretest"
)

// TestOneWritePerFrame drives the node's serve loop and the multiplexed
// client (its request path, its reply reader and its async put sender)
// over counted pipes: every frame either side sends is one Write, a frame
// that arrives in one piece is one Read, and fire-and-forget frames draw no
// reply.
func TestOneWritePerFrame(t *testing.T) {
	iv := interval.Interval{Lo: 2, Hi: 100} // closed: visible whatever the node's horizon

	t.Run("server", func(t *testing.T) {
		s := New(Config{})
		srv, cl := wiretest.Pipe()
		defer cl.Close()
		go s.serveConn(srv)
		fr := wire.NewFrameReader(cl)
		lookup := func(id uint32) LookupResult {
			t.Helper()
			e := wire.NewBuffer(opLookup).U32(id).Str("k").U64(2).U64(9).U64(0).U64(uint64(interval.Infinity))
			if err := e.WriteFrame(cl); err != nil {
				t.Fatal(err)
			}
			resp, err := fr.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			d := wire.NewDecoder(resp)
			if d.Op() != opLookupResp || d.U32() != id {
				t.Fatalf("reply %x", resp)
			}
			r, err := decodeLookupResult(d)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		if lookup(1).Found {
			t.Fatal("hit on an empty node")
		}
		put := newReq(opPut).Str("k").U64(uint64(iv.Lo)).U64(uint64(iv.Hi)).Bool(false).U64(2).U32(0).Blob([]byte("value"))
		if err := put.WriteFrame(cl); err != nil { // request ID 0: no reply
			t.Fatal(err)
		}
		if r := lookup(2); !r.Found || string(r.Data) != "value" {
			t.Fatalf("lookup after put = %+v", r)
		}
		if r, w := srv.Reads.Load(), srv.Writes.Load(); r != 3 || w != 2 {
			t.Fatalf("server made %d reads and %d writes for 3 frames in, 2 out", r, w)
		}
	})

	t.Run("client", func(t *testing.T) {
		s := New(Config{})
		conn, srv := wiretest.Pipe()
		go s.serveConn(srv)
		// Dial's wiring, on the pipe.
		c := &Client{timeout: DefaultCallTimeout, putq: make(chan putItem, 4), closed: make(chan struct{})}
		c.conns = []*mconn{{cl: c, conn: conn, pending: make(map[uint32]chan []byte)}}
		c.wg.Add(2)
		go c.putSender()
		go c.conns[0].run()
		defer c.Close()

		ctx := context.Background()
		c.Put("k", []byte("value"), iv, false, 2, nil)
		c.Flush()
		if r, w := conn.Reads.Load(), conn.Writes.Load(); r != 0 || w != 1 {
			t.Fatalf("async put: %d reads and %d writes, want 0 and 1", r, w)
		}
		// The put and the lookups share the connection, so the node sees
		// them in order.
		for i := 0; i < 3; i++ {
			if r := c.Lookup(ctx, "k", 2, 9, 0, interval.Infinity); !r.Found {
				t.Fatalf("lookup %d = %+v", i, r)
			}
		}
		rs := c.LookupBatch(ctx, []BatchLookup{{Key: "k", Lo: 2, Hi: 9, OrigHi: interval.Infinity}, {Key: "nope", Lo: 2, Hi: 9, OrigHi: interval.Infinity}})
		if len(rs) != 2 || !rs[0].Found || rs[1].Found {
			t.Fatalf("batch = %+v", rs)
		}
		msg := invalidation.Message{TS: 5, WallTime: time.Unix(1, 0), Tags: []invalidation.TagID{invalidation.Intern(invalidation.KeyTag("t", "id", "1"))}}
		if err := c.PushInvalidation(ctx, msg); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Horizon; got != 5 {
			t.Fatalf("node horizon %d after the push, want 5", got)
		}
		if r, w := conn.Reads.Load(), conn.Writes.Load(); r != 5 || w != 6 {
			t.Fatalf("put + 3 lookups + batch + push: %d reads and %d writes, want 5 and 6", r, w)
		}
	})
}
