// Package rpc is the one transport under the three wire services below the
// HTTP tier: library → cache node, library → pincushion, library → database
// daemon. A service owns its opcodes and what their bodies mean; the frame
// header, request-ID multiplexing, the mapping of a caller's context onto a
// per-request timer, redial with backoff, the serve loop with its write
// deadline, the error and ack frames, and the stats opcode are here, once.
//
// Every frame payload is [op:1][reqID:4 LE][body]. A request carrying a
// nonzero reqID receives exactly one reply frame tagged with the same reqID;
// reqID 0 marks one-way frames, which are applied in arrival order and never
// answered. Replies may be interleaved arbitrarily with other requests'
// replies, which is what lets a client pipeline many requests over one
// connection.
package rpc

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
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

	// dialTimeout bounds connection establishment (the initial dials and
	// every redial). A blackholed host must fail fast, not hold the dialer
	// for the kernel's multi-minute connect timeout.
	dialTimeout = 5 * time.Second
	// writeTimeout bounds one request-frame write. One-way frames run
	// outside any caller context — pin and transaction bookkeeping must
	// survive cancellation — but a wedged peer must not hang the release
	// path forever either.
	writeTimeout = 5 * time.Second
	// serverWriteTimeout bounds one reply-frame write in the serve loop. A
	// client that stops reading wedges only its own connection goroutine, and
	// only this long.
	serverWriteTimeout = 10 * time.Second
	// Redial backoff bounds: a peer that is down is retried from a few
	// milliseconds apart up to once a second, until it is back or the client
	// closes, so an outage costs the client no connection for good.
	redialMin = 10 * time.Millisecond
	redialMax = time.Second
)

// NewFrame starts a frame — a request or a handler's reply — with a
// request-ID placeholder that Call or the serve loop stamps.
func NewFrame(op byte) *wire.Buffer { return wire.NewBuffer(op).U32(0) }

// Handler is a service's opcode switch. It applies one request and returns
// the reply frame (started with NewFrame), nil when there is nothing to say
// — the serve loop then acks a request and, as always, answers a one-way
// frame with nothing — or an error, which travels back as the error frame.
// It must never panic on malformed input: every decode is checked and every
// count prefix is bounded by the bytes that actually remain in body.
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
// begin) must be applied in send order, and handlers only ever hold their
// service's locks briefly, so per-frame
// goroutines would buy reordering hazards without concurrency. Pipelining
// still eliminates round-trip stalls — the client does not wait for a reply
// before sending the next request — and concurrency comes from serving many
// connections.
func ServeConn(conn net.Conn, h Handler) {
	defer conn.Close()
	fr := wire.NewFrameReader(conn)
	for {
		req, err := fr.ReadFrame()
		if err != nil {
			return
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
)

// Stats are a Client's transport counters.
type Stats struct {
	Timeouts   uint64 // calls abandoned after the client's default bound
	Canceled   uint64 // calls abandoned because the caller's context ended
	LateDrops  uint64 // reply frames for abandoned request IDs, dropped
	Reconnects uint64 // connections re-established after a failure
}

// Client is a fixed set of connections to one peer, safe for concurrent
// use. Requests are multiplexed — many in flight per connection — so the set
// exists for send-side parallelism and failover, not one slot per request.
type Client struct {
	name    string        // service and peer, for the log
	timeout time.Duration // default bound of one Call; 0 leaves it to the caller's context
	dial    func() (net.Conn, error)

	conns []*Conn
	rr    atomic.Uint32 // round-robin connection cursor

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	timeouts, canceled, lateDrops, reconnects atomic.Uint64
}

// Conn is one multiplexed connection: a writer-side mutex, a pending table
// mapping request IDs to reply channels, and a reader goroutine that
// dispatches replies and redials after failures. Frames written to one Conn
// reach the peer's handler in the order they were written.
type Conn struct {
	cl      *Client
	mu      sync.Mutex // guards conn, pending, nextID, and frame writes
	conn    net.Conn   // nil while disconnected
	pending map[uint32]chan []byte
	nextID  uint32
	// live mirrors conn for Close alone: a write to a peer that stopped
	// reading holds mu until its deadline, and Close must be able to fail
	// that write rather than queue behind it.
	live atomic.Pointer[net.Conn]
}

// Net is how the tiers of a deployment reach each other: every listener a
// builder opens and every connection a client makes goes through one. name
// and from are tier names ("db", "pincushion", "cache0", "core"), so a Net
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

// NewClient is Dial with the connections, first and redialed, made by dial.
func NewClient(name string, n int, timeout time.Duration, dial func() (net.Conn, error)) (*Client, error) {
	c := &Client{name: name, timeout: timeout, dial: dial, closed: make(chan struct{})}
	for i := 0; i < n; i++ {
		conn, err := dial()
		if err != nil {
			c.Close()
			return nil, err
		}
		m := &Conn{cl: c, conn: conn, pending: make(map[uint32]chan []byte)}
		m.live.Store(&conn)
		c.conns = append(c.conns, m)
	}
	for _, m := range c.conns {
		c.wg.Add(1)
		go m.run()
	}
	return c, nil
}

// Close tears the connections down, failing all in-flight calls, and waits
// for the readers (and any redial in progress) to stop.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		for _, m := range c.conns {
			if nc := m.live.Load(); nc != nil {
				(*nc).Close()
			}
			m.drop()
		}
	})
	c.wg.Wait()
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

// Conn returns the i'th connection, for traffic that must stay ordered
// (Send after Send) or own a server-side session.
func (c *Client) Conn(i int) *Conn { return c.conns[i] }

// run is the per-connection reader: it dispatches reply frames to the
// pending table and owns redialing after a failure.
func (m *Conn) run() {
	defer m.cl.wg.Done()
	backoff := redialMin
	var fr *wire.FrameReader // on frConn; replaced when a redial replaces the connection
	var frConn net.Conn
	for {
		m.mu.Lock()
		conn := m.conn
		m.mu.Unlock()
		if conn == nil {
			select {
			case <-m.cl.closed:
				return
			case <-time.After(backoff):
			}
			nc, err := m.cl.dial()
			if err != nil {
				backoff = min(2*backoff, redialMax)
				continue
			}
			m.mu.Lock()
			select {
			case <-m.cl.closed:
				// Close ran while we were dialing; installing the new
				// connection now would leak it and block this reader (and
				// Close's wg.Wait) forever.
				m.mu.Unlock()
				nc.Close()
				return
			default:
			}
			m.conn = nc
			m.live.Store(&nc)
			m.mu.Unlock()
			m.cl.reconnects.Add(1)
			log.Printf("rpc: %s: reconnected", m.cl.name)
			backoff = redialMin
			continue
		}
		if conn != frConn {
			fr, frConn = wire.NewFrameReader(conn), conn
		}
		payload, err := fr.ReadFrame()
		if err != nil {
			select {
			case <-m.cl.closed:
				return
			default:
			}
			// Logged once per event, not once per affected request.
			m.drop()
			log.Printf("rpc: %s: connection lost: %v", m.cl.name, err)
			continue
		}
		if len(payload) >= headerLen {
			id := binary.LittleEndian.Uint32(payload[1:headerLen])
			m.mu.Lock()
			ch := m.pending[id]
			delete(m.pending, id)
			m.mu.Unlock()
			if ch != nil {
				ch <- payload
			} else if id != 0 {
				// A reply for a request nobody is waiting on: the caller
				// timed out or its context was cancelled and the pending
				// entry was reclaimed. Count it and drop it — delivering it
				// to a reused ID would cross-wire two requests.
				m.cl.lateDrops.Add(1)
			}
		}
	}
}

// drop closes the connection, if there is one, and fails every request
// pending on it; unless the client is closing, the reader loop will redial.
func (m *Conn) drop() {
	m.mu.Lock()
	if m.conn != nil {
		m.conn.Close()
		m.conn = nil
		m.live.Store(nil)
	}
	for id, ch := range m.pending {
		delete(m.pending, id)
		close(ch)
	}
	m.mu.Unlock()
}

// timerPool recycles timeout timers: one per in-flight call would
// otherwise be the hot path's only steady allocation besides frames.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// Call sends one request frame on this connection and waits for its tagged
// reply, returned as its opcode and body; an error frame comes back as a
// RemoteError. The caller's context is honored with per-request
// granularity: its deadline tightens the request timer (never the
// connection — other requests multiplexed on it are unaffected), and on
// cancellation the pending-table entry is reclaimed immediately so the
// request ID can never be answered late into someone else's hands (a late
// frame is counted in Stats.LateDrops by the reader and dropped).
func (m *Conn) Call(ctx context.Context, frame *wire.Buffer) (byte, []byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		m.cl.canceled.Add(1)
		return 0, nil, err
	}
	wait, ctxBound := m.cl.timeout, false
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			m.cl.canceled.Add(1)
			return 0, nil, context.DeadlineExceeded
		}
		if wait == 0 || rem < wait {
			wait, ctxBound = rem, true
		}
	}
	m.mu.Lock()
	conn := m.conn
	if conn == nil {
		m.mu.Unlock()
		return 0, nil, errNotConnected
	}
	m.nextID++
	if m.nextID == 0 {
		m.nextID = 1
	}
	id := m.nextID
	ch := make(chan []byte, 1)
	m.pending[id] = ch
	binary.LittleEndian.PutUint32(frame.Bytes()[1:headerLen], id)
	// The write happens under m.mu, so it must be bounded: without a
	// deadline, a peer that stops reading while the TCP window fills would
	// wedge every request on this connection with no timeout (the call
	// timer is only armed after the write). The bound is the effective
	// timeout — clamped by the caller's deadline — so a short-deadline
	// request cannot block the connection (and the writers queued behind
	// it) for the full transport timeout.
	write := writeTimeout
	if wait > 0 && wait < write {
		write = wait
	}
	_ = conn.SetWriteDeadline(time.Now().Add(write))
	if err := frame.WriteFrame(conn); err != nil {
		delete(m.pending, id)
		m.mu.Unlock()
		conn.Close() // reader notices and redials
		return 0, nil, fmt.Errorf("%w: %v", errNotConnected, err)
	}
	m.mu.Unlock()

	var expired <-chan time.Time // never, when nothing bounds the wait
	if wait > 0 {
		t := getTimer(wait)
		defer putTimer(t)
		expired = t.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return 0, nil, errConnLost
		}
		if resp[0] == OpErr {
			return 0, nil, RemoteError(wire.NewDecoder(resp[headerLen:]).Str())
		}
		return resp[0], resp[headerLen:], nil
	case <-expired:
		m.reclaim(id)
		// When the caller's deadline tightened the timer, this is the
		// context's expiry, not the transport's: attribute it to the
		// context so Canceled counts it and errors.Is(err,
		// context.DeadlineExceeded) holds for the caller. (Checked via
		// ctxBound, not ctx.Err(): the pooled timer can fire a beat
		// before the context's own deadline timer flips Err.)
		if ctxBound {
			m.cl.canceled.Add(1)
			return 0, nil, context.DeadlineExceeded
		}
		m.cl.timeouts.Add(1)
		return 0, nil, errTimeout
	case <-ctx.Done():
		m.reclaim(id)
		m.cl.canceled.Add(1)
		return 0, nil, ctx.Err()
	}
}

// reclaim forgets an abandoned request.
func (m *Conn) reclaim(id uint32) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// Send writes one one-way frame on this connection. A frame is lost only
// with its connection: one written while the connection is down, or into a
// connection whose far end had already gone, is not resent.
func (m *Conn) Send(frame *wire.Buffer) error {
	m.mu.Lock()
	conn := m.conn
	if conn == nil {
		m.mu.Unlock()
		return errNotConnected
	}
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	err := frame.WriteFrame(conn)
	m.mu.Unlock()
	if err != nil {
		conn.Close() // reader notices and redials
	}
	return err
}

// Call issues the request on a connection chosen round-robin, moving on to
// the next, each once, only while the request cannot be sent. Once it is
// written, whatever comes of it is final — a reply (an error frame
// included), a timeout, the end of the caller's context, the connection's
// loss — because the peer may have applied it, and not every request can
// safely be applied twice.
func (c *Client) Call(ctx context.Context, frame *wire.Buffer) (op byte, body []byte, err error) {
	start, err := int(c.rr.Add(1)), errNotConnected
	for i := range c.conns {
		op, body, err = c.conns[(start+i)%len(c.conns)].Call(ctx, frame)
		if !errors.Is(err, errNotConnected) {
			break
		}
	}
	return op, body, err
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

// Send writes a one-way frame on the first healthy connection, starting
// from one chosen round-robin.
func (c *Client) Send(frame *wire.Buffer) (err error) {
	start, err := int(c.rr.Add(1)), errNotConnected
	for i := range c.conns {
		if err = c.conns[(start+i)%len(c.conns)].Send(frame); err == nil {
			break
		}
	}
	return err
}
