package pincushion

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"txcache/internal/clock"
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
	clk.Advance(2 * time.Minute)
	if n := p.Sweep(); n != 1 || p.Stats().Pins != 0 {
		t.Fatalf("sweep past retention removed %d pins, %d left", n, p.Stats().Pins)
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
	if got := p.trimAge(); got != 11*time.Second {
		t.Fatalf("trim age %v, want 11s", got)
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
// one piece is one Read, and Register is one exchange.
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
	getPins(2)
	server.Expect(t, "5 frames in, 5 out", 5, 5)
}

// TestDroppedOneWayConnection: when the daemon's end of a connection dies,
// a Register sent meanwhile fails and adopts nothing, and once the client
// has redialed it gets through again.
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
	d.dropConns()

	// Keep registering until the client has noticed and redialed.
	eventually(t, "the connection to be replaced", func() bool {
		c.Register(6, clk.Now())
		return p.Stats().Pins == 2
	})
	if got := db.holds(); len(got) != 2 || got[5] != 1 || got[6] != 1 {
		t.Fatalf("placements %v, want one each on 5 and 6", got)
	}

	clk.Advance(2 * time.Minute)
	if n := p.Sweep(); n != 2 || p.Stats().Pins != 0 {
		t.Fatalf("sweep past retention removed %d pins, %d left; want both", n, p.Stats().Pins)
	}
	if got := db.holds(); len(got) != 0 {
		t.Fatalf("placements %v left after every pin was swept", got)
	}
}
