package pincushion

import (
	"context"
	"fmt"
	"net"
	"time"

	"txcache/internal/interval"
	"txcache/internal/rpc"
	"txcache/internal/wire"
)

// Service is the interface the TxCache library uses to reach the
// pincushion; *Pincushion implements it in-process and *Client over TCP.
// GetPins — the begin-path call — takes the transaction's context: the TCP
// client maps its deadline onto the round trip and a cancelled context
// returns no pins. Register returns once the pincushion has pinned the
// snapshot itself, or failed to; the caller holds its own pin until then.
// Register stays context-free: pin bookkeeping must run even when the
// transaction's context has already been cancelled. Release does nothing
// (see the package comment); the library never calls it.
type Service interface {
	GetPins(ctx context.Context, staleness time.Duration) []Pin
	Register(ts interval.Timestamp, wall time.Time)
	Release(tss []interval.Timestamp) // kept for benchmark/ (ROADMAP 1)
}

var (
	_ Service = (*Pincushion)(nil)
	_ Service = (*Client)(nil)
)

// Protocol opcodes. GetPins is answered with Pins, Register with an ack once
// the snapshot is adopted. txcache-dbd answers them on its own sessions, so
// they are numbered apart from dbnet's opcodes, its begin bit (0x40) and
// rpc's reserved ones. 0x23 was Release, which no client sends any more.
const (
	opGetPins  byte = 0x20
	opPins     byte = 0x21
	opRegister byte = 0x22
)

// Owns reports whether op is one of the pincushion's opcodes: a host that
// serves another protocol on the same connections hands such a frame to
// Handle.
func Owns(op byte) bool { return op >= opGetPins && op <= opRegister }

// opTimeout bounds a GetPins round trip whose caller set no tighter
// deadline — on expiry, as on any error, the library runs in the present —
// and every Register.
const opTimeout = 5 * time.Second

// sweepEvery is how often a pincushion that Start runs sweeps at the
// least; RunSweeper sweeps sooner when an idle pin is about to expire.
const sweepEvery = 5 * time.Second

// Start runs the pincushion as the database daemon hosts it, beside the
// database it pins on: txcache-dbd and bench.StartServeStack both call it,
// with db the engine itself, so no pin or unpin crosses a network, and both
// answer its protocol on the daemon's own sessions (dbnet.Server.Pincushion).
// staleness is the largest bound an application should pass GetPins; with a
// second's margin it is the age at which a pin is trimmed, and the largest
// bound GetPins answers. The second is how far this daemon's clock may run
// ahead of an application server's (DESIGN.md "Pin-set lease"). Start runs
// the sweeper. stop stops it and unpins every
// snapshot the pincushion placed; a Register arriving after stop, on a
// connection still open, is refused.
func Start(db Pinner, staleness time.Duration) (p *Pincushion, stop func()) {
	p = New(Config{DB: db, Staleness: staleness + time.Second})
	quit, swept := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swept)
		p.RunSweeper(sweepEvery, quit)
	}()
	return p, func() {
		close(quit)
		<-swept
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.SweepAll()
	}
}

// Serve accepts connections on l until it is closed, answering the
// pincushion's protocol alone.
func (p *Pincushion) Serve(l net.Listener) error { // kept for benchmark/ (ROADMAP 1)
	return rpc.Serve(l, func() (rpc.Handler, func()) { return p.Handle, nil })
}

// Handle is the pincushion's rpc.Handler.
func (p *Pincushion) Handle(op byte, body []byte) (*wire.Buffer, error) {
	d := wire.NewDecoder(body)
	switch op {
	case opGetPins:
		staleness := time.Duration(d.I64())
		if d.Err() != nil {
			return nil, d.Err()
		}
		//lint:allow ctxflow the wire protocol carries no context; server-side GetPins is in-memory and non-blocking
		pins := p.GetPins(context.Background(), staleness)
		e := rpc.NewFrame(opPins).U32(uint32(len(pins)))
		for _, pin := range pins {
			e.U64(uint64(pin.TS)).I64(pin.Wall.UnixNano())
		}
		return e, nil
	case opRegister:
		ts := interval.Timestamp(d.U64())
		wall := time.Unix(0, d.I64())
		if d.Err() == nil {
			p.Register(ts, wall)
		}
		return nil, d.Err()
	case rpc.OpStats:
		return rpc.StatsReply(p.Stats())
	default:
		return nil, fmt.Errorf("pincushion: unknown opcode %d", op)
	}
}

// Client is a TCP client for a pincushion, usable concurrently.
// GetPins and Register round-trip on any of its connections, and a Register
// that cannot reach the daemon fails at once, leaving the caller's pin the
// caller's. Its connections are its own even where the daemon
// is txcache-dbd: a server handles one connection's frames one at a time, so
// a GetPins sharing a dbnet session would wait behind a statement or a
// commit's WAL sync.
type Client struct {
	rpc *rpc.Client
}

// Dial connects to the pincushion at addr — txcache-dbd's one address, or a
// Serve listener — over TCP with poolSize connections of its own.
func Dial(addr string, poolSize int) (*Client, error) { return DialNet(rpc.TCP, "", addr, poolSize) } // kept for benchmark/ (ROADMAP 1)

// DialNet is Dial through nw, as the tier from.
func DialNet(nw rpc.Net, from, addr string, poolSize int) (*Client, error) {
	if poolSize <= 0 {
		poolSize = 4
	}
	rc, err := rpc.Dial(nw, from, "pincushion", addr, poolSize, opTimeout)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: rc}, nil
}

// Close tears down the connections.
func (c *Client) Close() { c.rpc.Close() }

// GetPins implements Service over TCP; on error (or a cancelled ctx,
// whose deadline bounds the round trip) it returns no pins, which the
// library treats as "pin a fresh snapshot".
func (c *Client) GetPins(ctx context.Context, staleness time.Duration) []Pin {
	op, body, err := c.rpc.Call(ctx, rpc.NewFrame(opGetPins).I64(int64(staleness)))
	if err != nil || op != opPins {
		return nil
	}
	d := wire.NewDecoder(body)
	n := d.Count(16)
	pins := make([]Pin, 0, n)
	for i := 0; i < n; i++ {
		pins = append(pins, Pin{TS: interval.Timestamp(d.U64()), Wall: time.Unix(0, d.I64())})
	}
	if d.Err() != nil {
		return nil
	}
	return pins
}

// Register implements Service over TCP as a round trip bounded by opTimeout,
// answered once the daemon has adopted the pin. It ignores the (possibly
// cancelled) transaction context: bookkeeping must survive
// cancellation.
func (c *Client) Register(ts interval.Timestamp, wall time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_, _, _ = c.rpc.Call(ctx, rpc.NewFrame(opRegister).U64(uint64(ts)).I64(wall.UnixNano())) // unadopted, the pin is still only the caller's
}

// Release does nothing and sends nothing: the pincushion counts no uses.
func (c *Client) Release([]interval.Timestamp) {} // kept for benchmark/ (ROADMAP 1)
