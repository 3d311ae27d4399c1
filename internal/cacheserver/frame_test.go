package cacheserver

import (
	"context"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/rpc/rpctest"
)

// TestOneWritePerFrame joins the node's handler and the client (its request
// path and its async put sender) by a counted pipe: every frame either side
// sends is one Write, a frame that arrives in one piece is one Read, and a
// one-way frame draws no reply.
func TestOneWritePerFrame(t *testing.T) {
	s := New(Config{})
	rc, client, server := rpctest.Pipe(t, s.handler(), DefaultCallTimeout)
	c := newClient(rc)
	defer c.Close()

	ctx := context.Background()
	iv := interval.Interval{Lo: 2, Hi: 100} // closed: visible whatever the node's horizon
	c.Put("k", []byte("value"), iv, false, 2, nil)
	if err := c.FlushContext(ctx); err != nil {
		t.Fatal(err)
	}
	client.Expect(t, "an async put", 0, 1)
	// The put and the lookups share the connection, so the node sees them
	// in order.
	for i := 0; i < 3; i++ {
		if r := c.Lookup(ctx, "k", 2, 9, 0, interval.Infinity); !r.Found || string(r.Data) != "value" {
			t.Fatalf("lookup %d = %+v", i, r)
		}
	}
	msg := invalidation.Message{TS: 5, WallTime: time.Unix(1, 0), Tags: []invalidation.TagID{invalidation.Intern(invalidation.KeyTag("t", "id", "1"))}}
	if err := c.PushInvalidation(ctx, msg); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Horizon; got != 5 {
		t.Fatalf("node horizon %d after the push, want 5", got)
	}
	client.Expect(t, "put + 3 lookups + push", 4, 5)
	server.Expect(t, "5 frames in, 4 out", 5, 4)
}
