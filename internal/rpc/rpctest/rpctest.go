// Package rpctest holds what the three services' frame I/O tests share: a
// service's two endpoints joined by a pipe that counts each one's reads and
// writes, and a connection that delivers what it reads late.
package rpctest

import (
	"errors"
	"net"
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

// DelayConn hands each Read's data to its caller D after it arrived: on a
// client's dial func, every reply reaches the caller D late, as over a slow
// link, while the peer goes on serving at full speed.
type DelayConn struct {
	net.Conn
	D time.Duration
}

func (c *DelayConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	time.Sleep(c.D)
	return n, err
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
