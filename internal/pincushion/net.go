package pincushion

import (
	"context"
	"encoding/json"
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
// Register and Release stay context-free: pin bookkeeping must run even when
// the transaction's context has already been cancelled. Neither reports
// anything back, and Release must not retain tss: callers reuse it.
type Service interface {
	GetPins(ctx context.Context, staleness time.Duration) []Pin
	Register(ts interval.Timestamp, wall time.Time)
	Release(tss []interval.Timestamp)
}

var (
	_ Service = (*Pincushion)(nil)
	_ Service = (*Client)(nil)
)

// Protocol opcodes. GetPins is answered with Pins, Register with an ack once
// the snapshot is adopted. Release has nothing to report; the client sends it
// one-way, so giving a lease back costs its caller a write, not a round trip.
const (
	opGetPins  byte = 1
	opPins     byte = 2
	opRegister byte = 3
	opRelease  byte = 4
)

// opTimeout bounds a GetPins round trip whose caller set no tighter
// deadline — on expiry, as on any error, the library runs in the present —
// and every Register.
const opTimeout = 5 * time.Second

// sweepEvery is how often a pincushion that Start runs sweeps at the
// least; RunSweeper sweeps sooner when an idle pin is about to expire.
const sweepEvery = 5 * time.Second

// Start runs the pincushion as the database daemon hosts it, beside the
// database it pins on: txcache-dbd and bench.StartServeStack both call it,
// with db the engine itself, so no pin or unpin crosses a network. staleness
// is the largest bound any application passes GetPins; with a second's
// margin it is the age at which an unused pin is trimmed, and twice that the
// retention. Start serves the pincushion's protocol on l and runs the
// sweeper. stop closes l, stops the sweeper and unpins every snapshot the
// pincushion placed; a Register still arriving on a connection that l's
// close left open is refused.
func Start(l net.Listener, db Pinner, staleness time.Duration) (p *Pincushion, stop func()) {
	bound := staleness + time.Second
	p = New(Config{DB: db, Retention: 2 * bound, Staleness: bound})
	quit, swept := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swept)
		p.RunSweeper(sweepEvery, quit)
	}()
	go p.Serve(l)
	return p, func() {
		l.Close()
		close(quit)
		<-swept
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.SweepAll()
	}
}

// Serve accepts connections on l until it is closed.
func (p *Pincushion) Serve(l net.Listener) error {
	return rpc.Serve(l, func() (rpc.Handler, func()) { return p.handle, nil })
}

// handle is the daemon's rpc.Handler. A malformed Release is dropped: sent
// one-way, nobody is waiting for an error.
func (p *Pincushion) handle(op byte, body []byte) (*wire.Buffer, error) {
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
	case opRelease:
		n := d.Count(8)
		if d.Err() != nil {
			return nil, d.Err()
		}
		tss := make([]interval.Timestamp, 0, n)
		for i := 0; i < n; i++ {
			tss = append(tss, interval.Timestamp(d.U64()))
		}
		p.Release(tss)
		return nil, nil
	case rpc.OpStats:
		return rpc.StatsReply(p.Stats())
	default:
		return nil, fmt.Errorf("pincushion: unknown opcode %d", op)
	}
}

// Client is a TCP client for a pincushion daemon, usable concurrently.
// GetPins and Register round-trip on any of its connections, and a Register
// that cannot reach the daemon fails at once, leaving the caller's pin the
// caller's. Release is written, unanswered, to any healthy connection: one
// lost with its connection leaves a use-count up at the daemon until Sweep's
// leak cutoff reclaims it.
type Client struct {
	rpc *rpc.Client
}

// Dial connects to a pincushion daemon over TCP with poolSize connections.
func Dial(addr string, poolSize int) (*Client, error) { return DialNet(rpc.TCP, "", addr, poolSize) }

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

// Close tears down the connections and waits for pending redials to stop.
func (c *Client) Close() { c.rpc.Close() }

// StatsJSON fetches the daemon's Stats as the JSON it answered with.
func (c *Client) StatsJSON(ctx context.Context) (json.RawMessage, error) {
	return c.rpc.Stats(ctx)
}

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
// answered once the daemon has adopted the pin. Like Release it ignores the
// (possibly cancelled) transaction context: bookkeeping must survive
// cancellation.
func (c *Client) Register(ts interval.Timestamp, wall time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_, _, _ = c.rpc.Call(ctx, rpc.NewFrame(opRegister).U64(uint64(ts)).I64(wall.UnixNano())) // unadopted, the pin is still only the caller's
}

// Release implements Service over TCP as a one-way frame. tss is encoded
// before Release returns and not retained.
func (c *Client) Release(tss []interval.Timestamp) {
	e := rpc.NewFrame(opRelease).U32(uint32(len(tss)))
	for _, ts := range tss {
		e.U64(uint64(ts))
	}
	_ = c.rpc.Send(e) // a lost frame is a leaked use-count; see Client
}
