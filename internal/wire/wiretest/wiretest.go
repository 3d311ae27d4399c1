// Package wiretest holds the connection double the three transports' frame
// I/O tests share.
package wiretest

import (
	"net"
	"sync/atomic"
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

// Pipe returns the two ends of a net.Pipe, the first one counted. A pipe
// hands each Write to the reader whole (up to the reader's buffer), so one
// Write models one segment.
func Pipe() (*CountingConn, net.Conn) {
	a, b := net.Pipe()
	return &CountingConn{Conn: a}, b
}
