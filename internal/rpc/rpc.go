// Package rpc is the one transport under the three wire services below the
// HTTP tier: library → cache node, library → pincushion, library → database
// daemon. A service owns its opcodes and what their bodies mean; the frame
// header, the connection pool and its leases, the mapping of a caller's
// context onto the wait for a reply, the serve loop with its write
// deadline, the error and ack frames, and the stats opcode are here, once.
//
// Every frame payload is [op:1][reqID:4 LE][body]. A request carrying a
// nonzero reqID receives exactly one reply frame tagged with the same reqID;
// reqID 0 marks one-way frames, which are applied in arrival order and never
// answered. A connection carries one exchange at a time: a call leases it,
// writes its request and reads its own reply, so replies arrive in the order
// their requests went out, and the ID tells the reply a call is waiting for
// from one owed to a call that gave up on the connection before it.
package rpc

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/wire"
)

// Reply opcodes the transport owns; services number theirs from 1.
const (
	// OpErr carries the error a handler returned, as a string.
	OpErr byte = 0xFF
	// OpAck answers a request whose handler had nothing to say.
	OpAck byte = 0xFE
	// OpStats asks a service for its counters. Every service answers it, with
	// StatsReply of its Stats() value; Client.Stats sends it.
	OpStats byte = 0xFD
)

const (
	headerLen = 5 // opcode and request ID

	// dialTimeout bounds every dial, up front or a lease's. A blackholed
	// host must fail fast, not hold the dialer for the kernel's
	// multi-minute connect timeout.
	dialTimeout = 5 * time.Second
	// writeTimeout bounds one frame's write, and a tighter bound of the
	// call's or the client's bounds it further. Conn.Send's one-way frames
	// run outside any caller context — transaction bookkeeping must survive
	// cancellation — but a wedged peer must not hang the release path
	// forever either.
	writeTimeout = 5 * time.Second
	// serverWriteTimeout bounds one reply-frame write in the serve loop. A
	// client that stops reading wedges only its own connection goroutine, and
	// only this long.
	serverWriteTimeout = 10 * time.Second
)

// NewFrame starts a frame — a request or a handler's reply — with a
// request-ID placeholder that Call or the serve loop stamps.
func NewFrame(op byte) *wire.Buffer { return wire.NewBuffer(op).U32(0) }

// Handler is a service's opcode switch. It applies one request and returns
// the reply frame (started with NewFrame), nil when there is nothing to say
// — the serve loop then acks a request and, as always, answers a one-way
// frame with nothing — or an error, which travels back as the error frame.
// It must never panic on malformed input: every decode is checked and every
// count prefix is bounded by the bytes that actually remain in body, which
// is the handler's only until it returns.
type Handler func(op byte, body []byte) (*wire.Buffer, error)

// Serve accepts connections on l until l is closed. newSession is called
// once per connection and returns its handler and, for a service that keeps
// state per connection, the function that drops that state when the
// connection ends (nil otherwise).
func Serve(l net.Listener, newSession func() (Handler, func())) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		h, end := newSession()
		go func() {
			ServeConn(conn, h)
			if end != nil {
				end()
			}
		}()
	}
}

// ServeConn processes conn's frames in arrival order until it fails, then
// closes it. Handling is deliberately serial per connection: one-way frames
// (an invalidation stream, a transaction's end ahead of the next one's
// begin) must be applied in send order, and a client holds a connection for
// one exchange at a time, so concurrency comes from serving many.
func ServeConn(conn net.Conn, h Handler) {
	defer conn.Close()
	fr := wire.NewFrameReader(conn)
	var buf []byte // the last request's storage, kept for the next unless large
	for {
		req, err := fr.ReadFrameInto(buf)
		if err != nil {
			return
		}
		if cap(req) <= 4096 {
			buf = req
		}
		if resp := Dispatch(h, req); resp != nil {
			_ = conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
			if err := resp.WriteFrame(conn); err != nil {
				return
			}
		}
	}
}

// StatsReply is a handler's answer to OpStats: v, the service's Stats()
// value, as JSON. A counter added to v is on every stats surface with no
// codec to extend.
func StatsReply(v any) (*wire.Buffer, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return NewFrame(OpStats).Raw(blob), nil
}

// Dispatch applies one request frame and returns the frame to answer it
// with, addressed to the request's ID; nil for a one-way frame.
func Dispatch(h Handler, req []byte) *wire.Buffer {
	if len(req) < headerLen {
		return nil // too short to even address a reply
	}
	resp, err := h(req[0], req[headerLen:])
	id := binary.LittleEndian.Uint32(req[1:headerLen])
	switch {
	case id == 0:
		return nil
	case err != nil:
		resp = NewFrame(OpErr).Str(err.Error())
	case resp == nil:
		resp = NewFrame(OpAck)
	}
	binary.LittleEndian.PutUint32(resp.Bytes()[1:headerLen], id)
	return resp
}

// RemoteError is the error a handler returned, as the error frame carried it.
type RemoteError string

func (e RemoteError) Error() string { return string(e) }

// Transport failures of a Call or Send, besides the caller's context error.
var (
	errNotConnected = errors.New("rpc: not connected") // the frame was not sent
	errConnLost     = errors.New("rpc: connection lost")
	errTimeout      = errors.New("rpc: request timed out")
	aLongTimeAgo    = time.Unix(1, 0) // a deadline that ends a blocked read or write at once
)

// ErrClosed is what a Call or Send on a closed client returns: nothing was
// sent, and nothing more will be.
var ErrClosed = errors.New("rpc: client closed")

// Stats are a Client's transport counters.
type Stats struct {
	Timeouts   uint64 // calls abandoned after the client's default bound
	Canceled   uint64 // calls abandoned because the caller's context ended
	LateDrops  uint64 // reply frames owed to abandoned calls, skipped by the next holder
	Reconnects uint64 // connections dialed to replace ones lost to a failure
}

// Client is a pool of connections to one peer, safe for concurrent use. A
// call leases a connection no other call holds, writes its request, reads
// its own reply there and releases it. The pool starts with the connections
// dialed up front and keeps every healthy one it has dialed since, so it
// holds as many as calls have ever been in flight at once; nothing runs in
// the background.
type Client struct {
	name    string        // service and peer, for the log
	timeout time.Duration // default bound of one Call; 0 leaves it to the caller's context
	dial    func() (net.Conn, error)

	mu     sync.Mutex
	idle   []*Conn            // the connections no call holds, the last released on top
	live   map[*Conn]struct{} // every open connection, held or idle
	lost   int                // connections lost to a failure and not yet replaced
	closed bool

	timeouts, canceled, lateDrops, reconnects atomic.Uint64
}

// Conn is one connection, held by one lease at a time. Frames its holder
// writes reach the peer's handler in the order they were written, behind
// whatever earlier holders wrote.
type Conn struct {
	cl              *Client
	nc              net.Conn
	fr              *wire.FrameReader
	lastID          uint32
	writeBy, readBy time.Time     // the deadlines armed on nc; a zero readBy is none
	used            bool          // a frame has gone out on it
	broken          bool          // closed after a failure; Release forgets it
	interrupted     chan struct{} // receives once interrupt has moved the deadlines
}

// Net is how the tiers of a deployment reach each other: every listener a
// builder opens and every connection a client makes goes through one. name
// and from are tier names ("db", "cache0", "core"), so a Net
// that injects faults can name both ends of a connection; TCP ignores them.
type Net interface {
	Listen(name string) (net.Listener, error)
	Dial(from, addr string) (net.Conn, error)
}

// TCP is the Net of a real deployment: an ephemeral loopback listener, and a
// bounded connect that hands back the *net.TCPConn as it is.
var TCP Net = tcpNet{}

type tcpNet struct{}

func (tcpNet) Listen(string) (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func (tcpNet) Dial(_, addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// Dial connects n times to the service at addr through nw, as the tier
// from. timeout is the service's default bound on one Call, which a
// caller's deadline can only tighten.
func Dial(nw Net, from, service, addr string, n int, timeout time.Duration) (*Client, error) {
	return NewClient(service+" "+addr, n, timeout, func() (net.Conn, error) { return nw.Dial(from, addr) })
}

// NewClient is Dial with the connections, up front and later, made by dial.
func NewClient(name string, n int, timeout time.Duration, dial func() (net.Conn, error)) (*Client, error) {
	c := &Client{name: name, timeout: timeout, dial: dial, live: make(map[*Conn]struct{})}
	for i := 0; i < n; i++ {
		m, err := c.Lease() // dials: none is idle
		if err != nil {
			c.Close()
			return nil, err
		}
		defer c.Release(m)
	}
	return c, nil
}

// add puts a connection just dialed into the pool's count, unless the
// client has closed meanwhile.
func (c *Client) add(nc net.Conn) (*Conn, error) {
	m := &Conn{cl: c, nc: nc, fr: wire.NewFrameReader(nc), interrupted: make(chan struct{}, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		return nil, ErrClosed
	}
	c.live[m] = struct{}{}
	replaces := c.lost > 0
	if replaces {
		c.lost--
	}
	c.mu.Unlock()
	if replaces {
		c.reconnects.Add(1)
		log.Printf("rpc: %s: reconnected", c.name)
	}
	return m, nil
}

// Close closes every connection, leased ones included: a call blocked on
// one fails, and a lease released afterwards is closed with the rest.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for m := range c.live {
		m.nc.Close()
	}
	c.live, c.idle = nil, nil
}

// Counters snapshots the transport counters.
func (c *Client) Counters() Stats {
	return Stats{
		Timeouts:   c.timeouts.Load(),
		Canceled:   c.canceled.Load(),
		LateDrops:  c.lateDrops.Load(),
		Reconnects: c.reconnects.Load(),
	}
}

// Lease takes a connection no other call holds — the one released last, or
// a new one when none is idle — and never waits for one to come free. Its
// holder may Call and Send on it in any order, the peer handling its frames
// in that order, and must Release it: traffic that must stay ordered (a
// transaction's statements and its end) holds one lease.
func (c *Client) Lease() (*Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if k := len(c.idle); k > 0 {
		m := c.idle[k-1]
		c.idle = c.idle[:k-1]
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	nc, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNotConnected, err)
	}
	return c.add(nc)
}

// Release hands a leased connection back to the pool. One that failed is
// already closed and forgotten, and after Close there is no pool.
func (c *Client) Release(m *Conn) {
	c.mu.Lock()
	if !m.broken && !c.closed {
		c.idle = append(c.idle, m)
	}
	c.mu.Unlock()
}

// fail closes a connection that can carry nothing more and forgets it: the
// next lease that finds no idle connection dials its replacement. Loss is
// logged once per connection, not per call, and not when Close caused it.
func (m *Conn) fail(err error) {
	m.broken = true
	m.nc.Close()
	c := m.cl
	c.mu.Lock()
	closing := c.closed
	if !closing {
		delete(c.live, m)
		c.lost++
	}
	c.mu.Unlock()
	if !closing {
		log.Printf("rpc: %s: connection lost: %v", c.name, err)
	}
}

// bound is how long a call on ctx may wait for its reply: the client's
// default or, when it is nearer, ctx's deadline (ctxBound); 0 leaves the
// wait to ctx's cancellation alone. A ctx already done is counted and fails
// the call before anything is sent.
func (c *Client) bound(ctx context.Context) (wait time.Duration, ctxBound bool, err error) {
	if err := ctx.Err(); err != nil {
		c.canceled.Add(1)
		return 0, false, err
	}
	wait = c.timeout
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			c.canceled.Add(1)
			return 0, false, context.DeadlineExceeded
		}
		if wait == 0 || rem < wait {
			wait, ctxBound = rem, true
		}
	}
	return wait, ctxBound, nil
}

// rearm reports whether a frame written now under wait needs the write
// deadline moved, to writeBy as it returns it: writeTimeout from now, or
// wait when that is tighter. The deadline moves only when less than half of
// that is left on it, so back-to-back exchanges do not each pay for it.
func (m *Conn) rearm(wait time.Duration) bool {
	bound := writeTimeout
	if wait > 0 && wait < bound {
		bound = wait
	}
	now := time.Now()
	if m.writeBy.Sub(now) >= bound/2 {
		return false
	}
	m.writeBy = now.Add(bound)
	return true
}

// wrote is what a frame's write came to. A write that failed closes the
// connection: part of the frame may have gone out. One that ran out of time
// is a timeout, which no other connection is asked to repeat: the peer is
// there but not reading, and would cost the next one the same wait.
func (m *Conn) wrote(err error) error {
	if err == nil {
		m.used = true
		return nil
	}
	m.fail(err)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return errTimeout
	}
	return fmt.Errorf("%w: %v", errNotConnected, err)
}

// send writes one one-way frame under a write deadline of writeTimeout, or
// of wait when that is tighter (rearm).
func (m *Conn) send(frame *wire.Buffer, wait time.Duration) error {
	if m.broken {
		return errNotConnected
	}
	if m.rearm(wait) {
		_ = m.nc.SetWriteDeadline(m.writeBy)
	}
	return m.wrote(frame.WriteFrame(m.nc))
}

// interrupt ends the holder's blocked read or write at once; ctx's
// cancellation runs it.
func (m *Conn) interrupt() {
	_ = m.nc.SetDeadline(aLongTimeAgo)
	m.interrupted <- struct{}{}
}

// Call writes one request frame on the leased connection and reads its
// reply, returned as its opcode and body; an error frame comes back as a
// RemoteError. The exchange is bounded by the tighter of the client's
// default and ctx's deadline, and ends when ctx does. An abandoned call
// costs the connection nothing: it stays in the pool owing the reply, which
// the next holder skips by its request ID (Stats.LateDrops). Only a failed
// write, or a read cut short inside a frame, closes it.
func (m *Conn) Call(ctx context.Context, frame *wire.Buffer) (byte, []byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	wait, ctxBound, err := m.cl.bound(ctx)
	if err != nil {
		return 0, nil, err
	}
	if m.broken {
		return 0, nil, errNotConnected
	}
	// Both deadlines are armed before ctx's hook can move them: the client's
	// default is the read deadline, and a nearer deadline of ctx's ends the
	// exchange through interrupt instead.
	if m.rearm(wait) {
		_ = m.nc.SetWriteDeadline(m.writeBy)
	}
	var by time.Time
	if wait > 0 && !ctxBound {
		by = time.Now().Add(wait)
	}
	if by != m.readBy {
		m.readBy = by
		_ = m.nc.SetReadDeadline(by)
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, m.interrupt)
	}
	m.lastID++
	if m.lastID == 0 {
		m.lastID = 1
	}
	binary.LittleEndian.PutUint32(frame.Bytes()[1:headerLen], m.lastID)
	err = m.wrote(frame.WriteFrame(m.nc))
	var resp []byte
	if err == nil {
		resp, err = m.await()
	}
	if stop != nil && !stop() {
		// interrupt ran, or is running: wait it out, and leave the next
		// exchange to re-arm the deadlines it moved.
		<-m.interrupted
		m.writeBy, m.readBy = time.Time{}, aLongTimeAgo
	}
	switch {
	case err == nil && resp[0] == OpErr:
		return 0, nil, RemoteError(wire.NewDecoder(resp[headerLen:]).Str())
	case err == nil:
		return resp[0], resp[headerLen:], nil
	case !m.broken && (!errors.Is(err, os.ErrDeadlineExceeded) || m.fr.Torn()):
		m.fail(err)
		err = errConnLost
	}
	// A deadline between frames leaves the connection in step, owing the
	// reply; the caller's context, if it has ended, is what ended the call.
	switch {
	case ctx.Err() != nil:
		m.cl.canceled.Add(1)
		return 0, nil, ctx.Err()
	case m.broken && !errors.Is(err, errTimeout):
		return 0, nil, err
	}
	m.cl.timeouts.Add(1)
	return 0, nil, errTimeout
}

// await reads up to the reply to the request just written, skipping the
// replies owed to calls that gave up on this connection before it.
func (m *Conn) await() ([]byte, error) {
	for {
		resp, err := m.fr.ReadFrame()
		if err != nil {
			return nil, err
		}
		if len(resp) >= headerLen && binary.LittleEndian.Uint32(resp[1:headerLen]) == m.lastID {
			return resp, nil
		}
		m.cl.lateDrops.Add(1)
	}
}

// Send writes one one-way frame on the leased connection. A frame is lost
// only with its connection: one written into a connection whose far end
// had already gone is not resent.
func (m *Conn) Send(frame *wire.Buffer) error { return m.send(frame, 0) }

// Call issues the request on a leased connection. It moves to another only
// while the request cannot be sent on a connection that had carried frames
// before — one the peer may have dropped while it sat idle. Once written,
// whatever comes of it is final — a reply (an error frame included), a
// timeout, the end of the caller's context, the connection's loss —
// because the peer may have applied it, and not every request can safely
// be applied twice.
func (c *Client) Call(ctx context.Context, frame *wire.Buffer) (op byte, body []byte, err error) {
	return c.each(func(m *Conn) (byte, []byte, error) { return m.Call(ctx, frame) })
}

// each runs one exchange on a lease, and again on the next lease while the
// frame could not be written on a connection that had been used before.
func (c *Client) each(exchange func(*Conn) (byte, []byte, error)) (op byte, body []byte, err error) {
	for {
		m, err := c.Lease()
		if err != nil {
			return 0, nil, err
		}
		reused := m.used
		op, body, err = exchange(m)
		c.Release(m)
		if !reused || !errors.Is(err, errNotConnected) {
			return op, body, err
		}
	}
}

// Stats fetches the peer's counters: the JSON its handler answered OpStats
// with, for the caller to decode into the service's Stats type or pass on
// as it is.
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	op, body, err := c.Call(ctx, NewFrame(OpStats))
	if err == nil && op != OpStats {
		return nil, fmt.Errorf("rpc: %s: stats answered with opcode %d", c.name, op)
	}
	return body, err
}

// Send writes a one-way frame on a leased connection, moving on as Call
// does. The write is bounded as a Call's is by the client's default.
func (c *Client) Send(frame *wire.Buffer) error {
	_, _, err := c.each(func(m *Conn) (byte, []byte, error) { return 0, nil, m.send(frame, c.timeout) })
	return err
}
