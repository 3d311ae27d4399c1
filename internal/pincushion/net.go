package pincushion

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"txcache/internal/interval"
	"txcache/internal/wire"
)

// Service is the interface the TxCache library uses to reach the
// pincushion; *Pincushion implements it in-process and *Client over TCP.
// GetPins — the begin-path call — takes the transaction's context: the TCP
// client maps its deadline onto the round trip and a cancelled context
// returns no pins. Register and Release stay context-free: they are the
// release path of pin bookkeeping and must run even when the transaction's
// context has already been cancelled. Neither reports anything back, and
// Release must not retain tss: callers reuse it.
type Service interface {
	GetPins(ctx context.Context, staleness time.Duration) []Pin
	Register(ts interval.Timestamp, wall time.Time)
	Release(tss []interval.Timestamp)
}

var (
	_ Service = (*Pincushion)(nil)
	_ Service = (*Client)(nil)
)

// Protocol opcodes. GetPins is answered with Pins (or Err); Register and
// Release are one-way: the daemon applies them in arrival order and never
// replies, so a transaction's bookkeeping costs its caller a write, not a
// round trip.
const (
	opGetPins  byte = 1
	opPins     byte = 2
	opRegister byte = 3
	opRelease  byte = 4
	opErr      byte = 6
)

// Serve accepts connections on l until it is closed.
func (p *Pincushion) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go p.serveConn(conn)
	}
}

// serveConn handles one connection's frames in arrival order, which is what
// keeps a client's Register ahead of the Release that follows it.
func (p *Pincushion) serveConn(conn net.Conn) {
	defer conn.Close()
	fr := wire.NewFrameReader(conn)
	for {
		req, err := fr.ReadFrame()
		if err != nil {
			return
		}
		resp := p.handle(req)
		if resp == nil {
			continue
		}
		_ = conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
		if err := resp.WriteFrame(conn); err != nil {
			return
		}
	}
}

// handle applies one request frame and returns the reply, nil for the
// one-way opcodes (a malformed one-way frame is dropped: nobody is waiting
// for an error).
func (p *Pincushion) handle(req []byte) *wire.Buffer {
	d := wire.NewDecoder(req)
	switch op := d.Op(); op {
	case opGetPins:
		staleness := time.Duration(d.I64())
		if d.Err() != nil {
			return errFrame(d.Err())
		}
		//lint:allow ctxflow the wire protocol carries no context; server-side GetPins is in-memory and non-blocking
		pins := p.GetPins(context.Background(), staleness)
		e := wire.NewBuffer(opPins)
		e.U32(uint32(len(pins)))
		for _, pin := range pins {
			e.U64(uint64(pin.TS)).I64(pin.Wall.UnixNano())
		}
		return e
	case opRegister:
		ts := interval.Timestamp(d.U64())
		wall := time.Unix(0, d.I64())
		if d.Err() == nil {
			p.Register(ts, wall)
		}
		return nil
	case opRelease:
		n := d.U32()
		if int(n) > d.Len()/8 {
			return nil
		}
		tss := make([]interval.Timestamp, 0, n)
		for i := uint32(0); i < n; i++ {
			tss = append(tss, interval.Timestamp(d.U64()))
		}
		p.Release(tss)
		return nil
	default:
		return errFrame(fmt.Errorf("pincushion: unknown opcode %d", op))
	}
}

func errFrame(err error) *wire.Buffer {
	return wire.NewBuffer(opErr).Str(err.Error())
}

// Client is a TCP client for a pincushion daemon, usable concurrently.
// GetPins round-trips on a pool of connections; Register and Release are
// written, unanswered, to one further connection that carries them in
// order. Ordering is per connection, so one is all it takes for a
// transaction's Register to land before its Release; when that connection
// breaks, frames already written may be lost and the next frame, sent on
// its replacement, may overtake them. Either way a use-count leaks at the
// daemon until Sweep's leak cutoff reclaims it, which is what a Release
// that failed cost before it was one-way.
type Client struct {
	addr string
	pool chan *pconn

	owMu sync.Mutex // guards ow and orders the frames written to it
	ow   net.Conn   // nil until the first send, and after a failed write until the next

	mu   sync.Mutex    // orders put and redial against Close
	done chan struct{} // closed by Close
	wg   sync.WaitGroup
}

// pconn is one pooled request/reply connection.
type pconn struct {
	c  net.Conn
	fr *wire.FrameReader
}

var errClosed = errors.New("pincushion: client closed")

// Dial connects to a pincushion daemon with poolSize connections for
// GetPins; the connection for the one-way frames is dialed by the first of
// them.
func Dial(addr string, poolSize int) (*Client, error) {
	if poolSize <= 0 {
		poolSize = 4
	}
	c := &Client{addr: addr, pool: make(chan *pconn, poolSize), done: make(chan struct{})}
	for i := 0; i < poolSize; i++ {
		conn, err := net.DialTimeout("tcp", addr, opTimeout)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.pool <- &pconn{c: conn, fr: wire.NewFrameReader(conn)}
	}
	return c, nil
}

// Close tears down the connections and waits for pending redials to stop;
// a redial that connects after Close closes what it dialed.
func (c *Client) Close() {
	c.mu.Lock()
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	for len(c.pool) > 0 {
		(<-c.pool).c.Close()
	}
	c.mu.Unlock()
	c.owMu.Lock()
	if c.ow != nil {
		c.ow.Close()
		c.ow = nil
	}
	c.owMu.Unlock()
	c.wg.Wait()
}

// put returns a healthy connection to the pool, or closes it if the client
// closed while it was out.
func (c *Client) put(conn *pconn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.done:
		conn.c.Close()
	default:
		c.pool <- conn // never blocks: the pool has a slot per connection
	}
}

func (c *Client) roundTrip(ctx context.Context, req *wire.Buffer) ([]byte, error) {
	var conn *pconn
	select {
	case conn = <-c.pool:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
		return nil, errClosed
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.c.SetDeadline(dl)
	} else {
		_ = conn.c.SetDeadline(time.Time{})
	}
	err := req.WriteFrame(conn.c)
	var resp []byte
	if err == nil {
		resp, err = conn.fr.ReadFrame()
	}
	if err != nil {
		conn.c.Close()
		c.redial()
		return nil, err
	}
	c.put(conn)
	if len(resp) > 0 && resp[0] == opErr {
		d := wire.NewDecoder(resp)
		d.Op()
		return nil, errors.New(d.Str())
	}
	return resp, nil
}

// Redial backoff bounds: a daemon that is down is retried from a few
// milliseconds apart up to once a second, until it is back or the client
// closes, so an outage costs the pool no slot for good.
const (
	redialMin = 10 * time.Millisecond
	redialMax = time.Second
)

// redial replaces a failed pool connection in the background.
func (c *Client) redial() {
	c.mu.Lock()
	select {
	case <-c.done:
		c.mu.Unlock()
		return
	default:
	}
	c.wg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		for backoff := redialMin; ; backoff = min(2*backoff, redialMax) {
			if conn, err := net.DialTimeout("tcp", c.addr, opTimeout); err == nil {
				c.put(&pconn{c: conn, fr: wire.NewFrameReader(conn)})
				return
			}
			select {
			case <-c.done:
				return
			case <-time.After(backoff):
			}
		}
	}()
}

// send writes one one-way frame on the ordered connection, dialing it if
// need be and once more if the write fails; see Client for what a lost
// frame costs.
func (c *Client) send(req *wire.Buffer) {
	c.owMu.Lock()
	defer c.owMu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		if c.ow == nil {
			select {
			case <-c.done:
				return
			default:
			}
			conn, err := net.DialTimeout("tcp", c.addr, opTimeout)
			if err != nil {
				return
			}
			c.ow = conn
		}
		_ = c.ow.SetWriteDeadline(time.Now().Add(opTimeout))
		if err := req.WriteFrame(c.ow); err == nil {
			return
		}
		c.ow.Close()
		c.ow = nil
	}
}

// GetPins implements Service over TCP; on error (or a cancelled ctx,
// whose deadline bounds the round trip) it returns no pins, which the
// library treats as "pin a fresh snapshot".
func (c *Client) GetPins(ctx context.Context, staleness time.Duration) []Pin {
	if ctx == nil {
		ctx = context.Background()
	}
	resp, err := c.roundTrip(ctx, wire.NewBuffer(opGetPins).I64(int64(staleness)))
	if err != nil {
		return nil
	}
	d := wire.NewDecoder(resp)
	if d.Op() != opPins {
		return nil
	}
	n := d.U32()
	if int(n) > d.Len()/16 {
		return nil
	}
	pins := make([]Pin, 0, n)
	for i := uint32(0); i < n; i++ {
		pins = append(pins, Pin{TS: interval.Timestamp(d.U64()), Wall: time.Unix(0, d.I64())})
	}
	if d.Err() != nil {
		return nil
	}
	return pins
}

// opTimeout bounds dials and the one-way writes: Register and Release
// deliberately ignore the (possibly cancelled) transaction context because
// pin bookkeeping must survive cancellation, but a wedged daemon must not
// hang the release path forever either.
const opTimeout = 5 * time.Second

// serverWriteTimeout bounds one response write in the serve loop: a client
// that stops reading wedges only its own connection goroutine, briefly.
const serverWriteTimeout = 10 * time.Second

// Register implements Service over TCP as a one-way frame.
func (c *Client) Register(ts interval.Timestamp, wall time.Time) {
	c.send(wire.NewBuffer(opRegister).U64(uint64(ts)).I64(wall.UnixNano()))
}

// Release implements Service over TCP as a one-way frame, ordered after
// any Register the same goroutine sent before it. tss is encoded before
// Release returns and not retained.
func (c *Client) Release(tss []interval.Timestamp) {
	e := wire.NewBuffer(opRelease)
	e.U32(uint32(len(tss)))
	for _, ts := range tss {
		e.U64(uint64(ts))
	}
	c.send(e)
}
