// Package rpctest holds what the services' network tests share: a service's
// two endpoints joined by a pipe that counts each one's reads and writes,
// and a Net that puts faults between the tiers of a whole topology.
package rpctest

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/rpc"
)

// CountingConn counts the Write calls made on a connection and the Read
// calls that returned data: what the endpoint would have paid in write(2)
// and read(2) on a socket.
type CountingConn struct {
	net.Conn
	Reads, Writes atomic.Int64
}

func (c *CountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.Reads.Add(1)
	}
	return n, err
}

func (c *CountingConn) Write(p []byte) (int, error) {
	c.Writes.Add(1)
	//lint:allow deadline forwarding wrapper: the endpoint under test sets the deadline on this conn before it writes
	return c.Conn.Write(p)
}

// Expect fails the test unless the endpoint has made exactly reads and
// writes so far. The serving end counts a frame's read before it handles the
// frame, so its counts are settled once a reply to a later request is in.
func (c *CountingConn) Expect(t testing.TB, after string, reads, writes int64) {
	t.Helper()
	if r, w := c.Reads.Load(), c.Writes.Load(); r != reads || w != writes {
		t.Fatalf("after %s: %d reads and %d writes, want %d and %d", after, r, w, reads, writes)
	}
}

// Net is an rpc.Net over loopback TCP that knows each listener by its name
// and can put a fault between two tiers. A rule names the tier that dials
// and the tier it dials, and acts on the dialing end of their connections
// alone; the other direction, the other tier's dials, is untouched. The zero
// Net has no faults.
type Net struct {
	mu    sync.Mutex
	names map[string]string // listener address → tier name
	delay map[link]time.Duration
	cut   map[link]bool
	live  map[*conn]bool
}

type link struct{ from, to string }

// Listen implements rpc.Net.
func (n *Net) Listen(name string) (net.Listener, error) {
	l, err := rpc.TCP.Listen(name)
	if err == nil {
		n.locked(func() { n.names[l.Addr().String()] = name })
	}
	return l, err
}

// Dial implements rpc.Net. While from's link to the tier at addr is cut, the
// connection is closed as soon as it is made, and the dial fails.
func (n *Net) Dial(from, addr string) (net.Conn, error) {
	c, err := rpc.TCP.Dial(from, addr)
	if err != nil {
		return nil, err
	}
	fc, cut := &conn{Conn: c, n: n}, false
	n.locked(func() {
		fc.link = link{from, n.names[addr]}
		if cut = n.cut[fc.link]; !cut {
			n.live[fc] = true
		}
	})
	if cut {
		c.Close()
		return nil, fmt.Errorf("rpctest: %s → %s is cut", from, fc.to)
	}
	return fc, nil
}

// Delay hands what from reads on its connections to to d after it arrived,
// as over a slow link, while to goes on serving at full speed. 0 lifts it.
func (n *Net) Delay(from, to string, d time.Duration) {
	n.locked(func() { n.delay[link{from, to}] = d })
}

// Cut refuses from's dials to to and closes its live connections to to.
func (n *Net) Cut(from, to string) {
	n.locked(func() {
		n.cut[link{from, to}] = true
		for c := range n.live {
			if c.link == (link{from, to}) {
				delete(n.live, c)
				c.Conn.Close()
			}
		}
	})
}

// Heal lets from dial to again: its next redial reconnects.
func (n *Net) Heal(from, to string) { n.locked(func() { delete(n.cut, link{from, to}) }) }

func (n *Net) locked(f func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.names == nil {
		n.names, n.delay, n.cut, n.live = map[string]string{}, map[link]time.Duration{}, map[link]bool{}, map[*conn]bool{}
	}
	f()
}

// conn is one connection the Net dialed, at the dialing end.
type conn struct {
	net.Conn
	n *Net
	link
}

func (c *conn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	var d time.Duration
	c.n.locked(func() { d = c.n.delay[c.link] })
	time.Sleep(d)
	return k, err
}

func (c *conn) Close() error {
	c.n.locked(func() { delete(c.n.live, c) })
	return c.Conn.Close()
}

// Pipe serves h on one end of a net.Pipe, puts a one-connection rpc.Client
// on the other and returns the client with both ends, counted. A pipe hands
// each Write to the reader whole (up to the reader's buffer), so one Write
// models one segment. The caller closes the client, through the service
// client it builds on it; that ends the serve loop too.
func Pipe(t testing.TB, h rpc.Handler, timeout time.Duration) (rc *rpc.Client, client, server *CountingConn) {
	a, b := net.Pipe()
	client, server = &CountingConn{Conn: a}, &CountingConn{Conn: b}
	go rpc.ServeConn(server, h)
	dialed := false
	rc, err := rpc.NewClient("pipe", 1, timeout, func() (net.Conn, error) {
		if dialed {
			return nil, errors.New("rpctest: a pipe cannot be redialed")
		}
		dialed = true
		return client, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rc, client, server
}
