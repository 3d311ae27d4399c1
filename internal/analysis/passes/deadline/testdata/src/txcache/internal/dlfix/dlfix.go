package dlfix

import (
	"io"
	"net"
	"sync"
	"time"
)

// Regression fixture: the PR 5 shape — an unbounded dial held under a
// session mutex, wedging the abort path for the kernel's connect timeout.
type session struct {
	mu sync.Mutex
	c  net.Conn
}

func (s *session) redial(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if conn, err := net.Dial("tcp", addr); err == nil { // want "unbounded net.Dial"
		s.c = conn
	}
}

func dialUnbounded(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr) // want "unbounded net.Dial"
}

// Clean: the dial fails fast on a blackholed host.
func dialBounded(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

func writeUnbounded(conn net.Conn, b []byte) error {
	_, err := conn.Write(b) // want "conn write with no preceding"
	return err
}

// Clean: deadline precedes the write in the same function.
func writeBounded(conn net.Conn, b []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	_, err := conn.Write(b)
	return err
}

// WriteFrame mirrors the wire helper: an io.Writer has no deadline to set,
// so the obligation sits with conn-holding callers.
func WriteFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

func send(conn net.Conn, frame []byte) error {
	return WriteFrame(conn, frame) // want "conn write with no preceding"
}

// Clean: the caller bounded the frame write.
func sendBounded(conn net.Conn, frame []byte) error {
	_ = conn.SetDeadline(time.Now().Add(time.Second))
	return WriteFrame(conn, frame)
}

func exchange(conn net.Conn, frame []byte) error {
	//lint:allow deadline the only caller sets the conn deadline before exchange runs
	return WriteFrame(conn, frame)
}

// Buffer mirrors wire.Buffer: the message carries its own frame header and
// sends itself in one write, so the conn is the argument, not the receiver.
type Buffer struct{ b []byte }

func (e *Buffer) WriteFrame(w io.Writer) error {
	_, err := w.Write(e.b)
	return err
}

func sendFramed(conn net.Conn, e *Buffer) error {
	return e.WriteFrame(conn) // want "conn write with no preceding"
}

// Clean: the caller bounded the framed write.
func sendFramedBounded(conn net.Conn, e *Buffer) error {
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	return e.WriteFrame(conn)
}

// Clean: a framed write into something with no deadline to set.
func encodeFramed(w io.Writer, e *Buffer) error {
	return e.WriteFrame(w)
}
