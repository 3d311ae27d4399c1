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

// Protocol opcodes. GetPins is answered with Pins. Register and Release
// have nothing to report; the client sends them one-way, so a
// transaction's bookkeeping costs its caller a write, not a round trip.
const (
	opGetPins  byte = 1
	opPins     byte = 2
	opRegister byte = 3
	opRelease  byte = 4
)

// opTimeout bounds a GetPins round trip whose caller set no tighter
// deadline: on expiry, as on any error, the library pins a fresh snapshot.
const opTimeout = 5 * time.Second

// Serve accepts connections on l until it is closed. A connection's frames
// are handled in arrival order, which is what keeps a client's Register
// ahead of the Release that follows it.
func (p *Pincushion) Serve(l net.Listener) error {
	return rpc.Serve(l, func() (rpc.Handler, func()) { return p.handle, nil })
}

// handle is the daemon's rpc.Handler. A malformed Register or Release is
// dropped: sent one-way, nobody is waiting for an error.
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
// GetPins round-trips on any of its connections; Register and Release are
// written, unanswered, to the first, which carries them in order. Ordering
// is per connection, so one is all it takes for a transaction's Register to
// land before its Release; while that connection is down, and for frames
// already written when it broke, they are lost, and the next frame, sent on
// its replacement, may overtake stragglers. Either way a use-count leaks at
// the daemon until Sweep's leak cutoff reclaims it, which is what a Release
// that failed cost before it was one-way.
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

// Register implements Service over TCP as a one-way frame. Like Release it
// deliberately ignores the (possibly cancelled) transaction context — pin
// bookkeeping must survive cancellation — and the transport bounds the
// write, so a wedged daemon cannot hang the release path either.
func (c *Client) Register(ts interval.Timestamp, wall time.Time) {
	_ = c.rpc.Conn(0).Send(rpc.NewFrame(opRegister).U64(uint64(ts)).I64(wall.UnixNano())) // a lost frame is a leaked use-count; see Client
}

// Release implements Service over TCP as a one-way frame, ordered after
// any Register the same goroutine sent before it. tss is encoded before
// Release returns and not retained.
func (c *Client) Release(tss []interval.Timestamp) {
	e := rpc.NewFrame(opRelease).U32(uint32(len(tss)))
	for _, ts := range tss {
		e.U64(uint64(ts))
	}
	_ = c.rpc.Conn(0).Send(e) // as in Register
}
