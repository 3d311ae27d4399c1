package cacheserver

import (
	"context"
	"net"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/wire"
)

// heldFrame is one request a holdServer read but has not answered.
type heldFrame struct {
	conn  net.Conn
	frame []byte
}

// holdServer accepts protocol connections and parks every request frame on
// a channel instead of answering, so tests control exactly when (and
// whether) a response arrives.
func holdServer(t *testing.T) (addr string, held <-chan heldFrame) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan heldFrame, 16)
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
					ch <- heldFrame{conn: conn, frame: append([]byte(nil), req...)}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), ch
}

// TestLookupBatchCancelReclaimsPendingAndCountsLateFrame: cancelling a
// context while a batched lookup is in flight returns promptly with
// misses, reclaims the pending-table entry immediately, and a response
// arriving afterwards for the abandoned request ID is dropped and counted,
// never delivered.
func TestLookupBatchCancelReclaimsPendingAndCountsLateFrame(t *testing.T) {
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

	var h heldFrame
	select {
	case h = <-held:
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

	st := c.ClientStats()
	if st.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", st.Canceled)
	}
	m := c.conns[0]
	m.mu.Lock()
	pending := len(m.pending)
	m.mu.Unlock()
	if pending != 0 {
		t.Fatalf("pending table still holds %d entries after cancel", pending)
	}

	// Deliver the response late: a real server's answer for the abandoned
	// request ID. It must be dropped and counted, not delivered.
	resp := New(Config{}).handle(h.frame)
	if resp == nil {
		t.Fatal("stub could not compute a response frame")
	}
	if err := resp.WriteFrame(h.conn); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.ClientStats().LateDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late response was never counted as dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLookupDeadlineMapsToRequestTimer: a context deadline shorter than
// the transport timeout bounds the single request without tearing down the
// connection — the next request on the same pool reuses it.
func TestLookupDeadlineMapsToRequestTimer(t *testing.T) {
	addr, held := holdServer(t)
	c, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	r := c.Lookup(ctx, "k", 1, 5, 1, interval.Infinity)
	elapsed := time.Since(start)
	if r.Found || r.Miss != MissCompulsory {
		t.Fatalf("lookup = %+v, want compulsory miss", r)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline took %v to fire, want ~50ms", elapsed)
	}
	<-held // the request did reach the server

	// The expiry is attributed to the context, not the transport timeout.
	if st := c.ClientStats(); st.Canceled != 1 || st.Timeouts != 0 {
		t.Fatalf("deadline expiry counted as Canceled=%d Timeouts=%d, want 1/0", st.Canceled, st.Timeouts)
	}
	// The connection must still be alive: no reconnect happened, and a
	// fresh request goes out on it.
	if st := c.ClientStats(); st.Reconnects != 0 {
		t.Fatalf("deadline tore the connection down: %d reconnects", st.Reconnects)
	}
	go c.Lookup(context.Background(), "k2", 1, 5, 1, interval.Infinity)
	select {
	case <-held:
	case <-time.After(2 * time.Second):
		t.Fatal("connection unusable after per-request deadline")
	}
}

// TestFlushContextHonorsDeadline: a flush against a client whose puts
// cannot drain (mute server holds nothing back — here the queue drains
// fine, so we block the sender with a full queue against a dead address)
// returns when the context expires instead of hanging.
func TestFlushContextHonorsDeadline(t *testing.T) {
	addr, held := holdServer(t)
	c, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Drain the held channel so puts don't block the stub reader.
	go func() {
		for range held {
		}
	}()

	// A flush with room to run completes.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if err := c.FlushContext(ctx); err != nil {
		t.Fatalf("FlushContext on idle queue = %v", err)
	}
	cancel()

	// An already-expired context returns its error instead of waiting.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := c.FlushContext(expired); err == nil {
		t.Fatal("FlushContext with cancelled ctx returned nil")
	}
}
