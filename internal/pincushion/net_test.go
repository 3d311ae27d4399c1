package pincushion

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"txcache/internal/clock"
	"txcache/internal/interval"
	"txcache/internal/rpc"
	"txcache/internal/rpc/rpctest"
)

// daemon is a pincushion served on a loopback listener the test can take
// down and bring back, connections included.
type daemon struct {
	t    *testing.T
	p    *Pincushion
	addr string

	mu    sync.Mutex
	l     net.Listener
	down  bool
	conns []net.Conn
}

func startDaemon(t *testing.T, p *Pincushion) *daemon {
	d := &daemon{t: t, p: p}
	d.listen("127.0.0.1:0")
	t.Cleanup(d.stop)
	return d
}

func (d *daemon) listen(addr string) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		d.t.Fatal(err)
	}
	d.mu.Lock()
	d.l, d.addr, d.down = l, l.Addr().String(), false
	d.mu.Unlock()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			d.mu.Lock()
			if d.down { // accepted as the daemon went down: it goes down too
				conn.Close()
			} else {
				d.conns = append(d.conns, conn)
				go rpc.ServeConn(conn, d.p.Handle)
			}
			d.mu.Unlock()
		}
	}()
}

// dropConns closes every accepted connection from the daemon's side.
func (d *daemon) dropConns() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
}

// stop closes the listener and every connection.
func (d *daemon) stop() {
	d.mu.Lock()
	d.down = true
	d.l.Close()
	d.mu.Unlock()
	d.dropConns()
}

// eventually polls cond until it holds, failing the test after 5 seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOverTCP(t *testing.T) {
	clk := &clock.Virtual{}
	p := New(Config{Clock: clk})
	c, err := Dial(startDaemon(t, p).addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Register is answered once the daemon has adopted the pin.
	c.Register(42, clk.Now())
	if p.Stats().Pins != 1 {
		t.Fatalf("%d pins tracked after Register returned, want 1", p.Stats().Pins)
	}
	pins := c.GetPins(context.Background(), time.Minute)
	if len(pins) != 1 || pins[0].TS != 42 {
		t.Fatalf("pins = %+v", pins)
	}
	c.Release([]interval.Timestamp{42}) // one-way: swept once it has landed
	clk.Advance(2 * time.Minute)
	eventually(t, "the released pin to be swept", func() bool { p.Sweep(); return p.Stats().Pins == 0 })
	if st := p.Stats(); st.Leaked != 0 {
		t.Fatalf("pin swept as leaked (%d): the Release was lost", st.Leaked)
	}
}

// TestStartStop runs the pincushion as the database daemon does: a pin
// registered over TCP is placed on the database, trimmed at the staleness
// bound plus a second, and stop removes every placement and places nothing
// for a Register that arrives after it on a connection still open.
func TestStartStop(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	db := &fakeDB{}
	p, stop := Start(db, 10*time.Second)
	if got := p.trimAge(); got != 11*time.Second || p.cfg.Retention != 22*time.Second {
		t.Fatalf("trim age %v, retention %v; want 11s and 22s", got, p.cfg.Retention)
	}
	go p.Serve(l)
	c, err := Dial(l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Register(42, time.Now())
	if got := db.holds(); got[42] != 1 || p.Stats().Pins != 1 {
		t.Fatalf("placements %v, %d tracked after Register; want one on 42", got, p.Stats().Pins)
	}

	stop()
	c.Register(43, time.Now())
	if got := db.holds(); len(got) != 0 || p.Stats().Pins != 0 {
		t.Fatalf("placements %v, %d tracked after stop and a late Register; want none", got, p.Stats().Pins)
	}
}

// TestOneWritePerFrame joins the two pincushion endpoints by a counted
// pipe: every frame either side sends is one Write, a frame that arrives in
// one piece is one Read, Register is one exchange and the one-way Release
// draws no reply.
func TestOneWritePerFrame(t *testing.T) {
	p := New(Config{})
	p.Register(7, time.Now())
	rc, client, server := rpctest.Pipe(t, p.Handle, opTimeout)
	c := &Client{rpc: rc}
	defer c.Close()

	getPins := func(want int) {
		t.Helper()
		if pins := c.GetPins(context.Background(), time.Minute); len(pins) != want {
			t.Fatalf("%d pins over the pipe, want %d", len(pins), want)
		}
	}
	for i := 0; i < 3; i++ {
		getPins(1)
	}
	client.Expect(t, "3 GetPins", 3, 3)
	c.Register(9, time.Now())
	client.Expect(t, "Register", 4, 4)
	c.Release([]interval.Timestamp{9, 7, 7, 7})
	client.Expect(t, "Release", 4, 5)
	getPins(2) // a reply after the one-way frame proves it was consumed first
	server.Expect(t, "6 frames in, 5 out", 6, 5)
}

// TestDroppedOneWayConnection: when the daemon's end of a connection dies,
// a Release written into it is lost without an error. What that leaks is a
// use-count, which Sweep's leak cutoff reclaims; a Register sent meanwhile
// fails and adopts nothing, and once the client has redialed both get
// through again.
func TestDroppedOneWayConnection(t *testing.T) {
	clk := &clock.Virtual{}
	db := &fakeDB{}
	p := New(Config{Clock: clk, Retention: time.Minute, DB: db})
	d := startDaemon(t, p)
	c, err := Dial(d.addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Register(5, clk.Now())
	c.GetPins(context.Background(), time.Minute) // a use of 5
	d.dropConns()
	c.Release([]interval.Timestamp{5}) // written into a dead connection: lost

	// Keep registering until the client has noticed and redialed.
	eventually(t, "the connection to be replaced", func() bool {
		c.Register(6, clk.Now())
		return p.Stats().Pins == 2
	})
	if got := db.holds(); len(got) != 2 || got[5] != 1 || got[6] != 1 {
		t.Fatalf("placements %v, want one each on 5 and 6", got)
	}

	// Past retention pin 6 goes, never used; pin 5 still counts the use whose
	// Release was lost, until the leak cutoff.
	clk.Advance(2 * time.Minute)
	if n := p.Sweep(); n != 1 || p.Stats().Pins != 1 || p.Stats().Leaked != 0 {
		t.Fatalf("sweep removed %d pins, %d left, Leaked = %d; want the unused one", n, p.Stats().Pins, p.Stats().Leaked)
	}
	clk.Advance(leakFactor * time.Minute)
	if n := p.Sweep(); n != 1 || p.Stats().Pins != 0 || p.Stats().Leaked != 1 {
		t.Fatalf("leak cutoff swept %d pins, %d left, Leaked = %d; want the one lost Release reclaimed",
			n, p.Stats().Pins, p.Stats().Leaked)
	}
	if got := db.holds(); len(got) != 0 {
		t.Fatalf("placements %v left after every pin was swept", got)
	}
}
