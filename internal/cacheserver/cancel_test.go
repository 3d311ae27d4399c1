package cacheserver

import (
	"context"
	"net"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/wire"
)

// holdServer accepts protocol connections and parks every request frame on
// a channel instead of answering, so tests control exactly when (and
// whether) a response arrives.
func holdServer(t *testing.T) (addr string, held <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan []byte, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				for {
					req, err := wire.ReadFrame(conn)
					if err != nil {
						conn.Close()
						return
					}
					ch <- req
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), ch
}

// TestLookupBatchCancelDegradesToMisses: cancelling a context while a
// LookupBatch is in flight returns promptly with a compulsory miss per
// probe, counted once as an error and once as cancelled: the probes after
// the cancelled one send nothing. (What the transport does with the
// abandoned request is internal/rpc's test.)
func TestLookupBatchCancelDegradesToMisses(t *testing.T) {
	addr, held := holdServer(t)
	c, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []LookupResult, 1)
	go func() {
		done <- c.LookupBatch(ctx, []BatchLookup{
			{Key: "a", Lo: 1, Hi: 5, OrigLo: 1, OrigHi: interval.Infinity},
			{Key: "b", Lo: 1, Hi: 5, OrigLo: 1, OrigHi: interval.Infinity},
		})
	}()

	select {
	case <-held:
	case <-time.After(2 * time.Second):
		t.Fatal("request never reached the server")
	}
	cancel()

	select {
	case rs := <-done:
		if len(rs) != 2 {
			t.Fatalf("got %d results, want 2", len(rs))
		}
		for i, r := range rs {
			if r.Found || r.Miss != MissCompulsory {
				t.Fatalf("result %d = %+v, want compulsory miss", i, r)
			}
		}
	case <-time.After(time.Second):
		t.Fatal("LookupBatch did not return promptly on cancel")
	}
	if st := c.ClientStats(); st.Canceled != 1 || st.LookupErrors != 1 {
		t.Fatalf("Canceled = %d, LookupErrors = %d, want 1 and 1", st.Canceled, st.LookupErrors)
	}
}
