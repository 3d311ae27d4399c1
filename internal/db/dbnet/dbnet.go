// Package dbnet serves a db.Engine over TCP and provides the matching
// client, so application servers can use a remote database daemon exactly
// like an embedded engine. The protocol carries per-query validity
// intervals and invalidation tags piggybacked on SELECT results, the way
// the paper's modified PostgreSQL reports them to the TxCache library
// (§5.2: "this interval is reported to the TxCache library, piggybacked on
// each SELECT query result").
package dbnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/sql"
	"txcache/internal/wire"
)

// Protocol opcodes. Every request is answered by exactly one frame except
// opAbort, which is one-way: the server ends the transaction and says
// nothing, so releasing a transaction costs its caller a write, not a round
// trip. The client also ends a read-only transaction's Commit with it — a
// read-only commit publishes nothing and has nothing to report. opQueryAt
// is opQuery for a read-only transaction whose Begin has not been sent: it
// carries the snapshot, and the server begins the transaction under the
// client-chosen id before running the statement.
const (
	opBegin      byte = 1
	opBeginResp  byte = 2
	opQuery      byte = 3
	opQueryResp  byte = 4
	opExec       byte = 5
	opExecResp   byte = 6
	opCommit     byte = 7
	opCommitResp byte = 8
	opAbort      byte = 9
	opPin        byte = 10
	opPinResp    byte = 11
	opUnpin      byte = 12
	opAck        byte = 13
	opErr        byte = 14
	opStats      byte = 15
	opStatsResp  byte = 16
	opQueryAt    byte = 17
)

// lazyIDBit marks transaction ids chosen by the client for piggybacked
// begins, keeping them apart from the ids the server counts up from 1.
const lazyIDBit = 1 << 63

// ServerStats is the daemon-side counter snapshot carried by opStatsResp,
// JSON-encoded on the wire so operators (and /statsz) get it verbatim.
type ServerStats struct {
	DB         db.Stats           `json:"db"`
	Durability db.DurabilityStats `json:"durability"`
}

// Server serves one engine. Transactions are scoped to the connection that
// began them (like a SQL session); a dropped connection aborts its
// transactions.
type Server struct {
	Engine *db.Engine
}

// opTimeout bounds round trips that run outside any caller context — the
// release half of resource bookkeeping (Abort, Unpin) and pin acquisition
// (PinLatest). Without it a wedged daemon would hang those paths forever,
// exactly when cancelled requests are trying to shed load; with it the
// exchange fails, the session redials, and the daemon aborts the orphaned
// transaction with the dropped connection.
const opTimeout = 5 * time.Second

// serverWriteTimeout bounds one response write in the serve loop: a client
// that stops reading wedges only its own connection goroutine, briefly.
const serverWriteTimeout = 10 * time.Second

// Serve accepts connections until l closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	txs := make(map[uint64]*db.Tx)
	var nextID uint64
	defer func() {
		for _, tx := range txs {
			tx.Abort()
		}
	}()
	fr := wire.NewFrameReader(conn)
	for {
		req, err := fr.ReadFrame()
		if err != nil {
			return
		}
		resp := s.handle(req, txs, &nextID)
		if resp == nil {
			continue // one-way frame
		}
		_ = conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
		if err := resp.WriteFrame(conn); err != nil {
			return
		}
	}
}

// handle executes one request frame and returns the reply, nil for opAbort.
func (s *Server) handle(req []byte, txs map[uint64]*db.Tx, nextID *uint64) *wire.Buffer {
	d := wire.NewDecoder(req)
	switch op := d.Op(); op {
	case opBegin:
		ro := d.Bool()
		snap := interval.Timestamp(d.U64())
		if d.Err() != nil {
			return errFrame(d.Err())
		}
		tx, err := s.Engine.Begin(ro, snap)
		if err != nil {
			return errFrame(err)
		}
		*nextID++
		txs[*nextID] = tx
		return wire.NewBuffer(opBeginResp).U64(*nextID).U64(uint64(tx.Snapshot()))
	case opQuery, opQueryAt:
		id := d.U64()
		var snap interval.Timestamp
		if op == opQueryAt {
			snap = interval.Timestamp(d.U64())
		}
		src := d.Str()
		args, err := decodeArgs(d)
		if err != nil {
			return errFrame(err)
		}
		tx := txs[id]
		if tx == nil && op == opQueryAt {
			// The piggybacked Begin: a failure (an unpinned snapshot) is the
			// statement's error, and no transaction exists afterwards.
			if tx, err = s.Engine.Begin(true, snap); err != nil {
				return errFrame(err)
			}
			txs[id] = tx
		}
		if tx == nil {
			return errFrame(fmt.Errorf("dbnet: no transaction %d", id))
		}
		r, err := tx.Query(src, args...)
		if err != nil {
			return errFrame(err)
		}
		return encodeResult(r)
	case opExec:
		id := d.U64()
		src := d.Str()
		args, err := decodeArgs(d)
		if err != nil {
			return errFrame(err)
		}
		tx := txs[id]
		if tx == nil {
			return errFrame(fmt.Errorf("dbnet: no transaction %d", id))
		}
		n, err := tx.Exec(src, args...)
		if err != nil {
			return errFrame(err)
		}
		return wire.NewBuffer(opExecResp).U64(uint64(n))
	case opCommit:
		id := d.U64()
		tx := txs[id]
		if tx == nil {
			return errFrame(fmt.Errorf("dbnet: no transaction %d", id))
		}
		delete(txs, id)
		ts, err := tx.Commit()
		if err != nil {
			return errFrame(err)
		}
		return wire.NewBuffer(opCommitResp).U64(uint64(ts))
	case opAbort:
		id := d.U64()
		if tx := txs[id]; tx != nil {
			tx.Abort()
			delete(txs, id)
		}
		return nil
	case opPin:
		ts, wall := s.Engine.PinLatest()
		return wire.NewBuffer(opPinResp).U64(uint64(ts)).I64(wall.UnixNano())
	case opUnpin:
		s.Engine.Unpin(interval.Timestamp(d.U64()))
		return wire.NewBuffer(opAck)
	case opStats:
		blob, err := json.Marshal(ServerStats{
			DB:         s.Engine.Stats(),
			Durability: s.Engine.DurabilityStats(),
		})
		if err != nil {
			return errFrame(err)
		}
		return wire.NewBuffer(opStatsResp).Str(string(blob))
	default:
		return errFrame(fmt.Errorf("dbnet: unknown opcode %d", op))
	}
}

func decodeArgs(d *wire.Decoder) ([]sql.Value, error) {
	n := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	args := make([]sql.Value, 0, n)
	for i := uint32(0); i < n; i++ {
		v, err := sql.DecodeValue(d)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

func encodeResult(r *db.Result) *wire.Buffer {
	e := wire.NewBuffer(opQueryResp)
	e.U32(uint32(len(r.Cols)))
	for _, c := range r.Cols {
		e.Str(c)
	}
	e.U32(uint32(len(r.Rows)))
	for _, row := range r.Rows {
		for _, v := range row {
			sql.EncodeValue(e, v)
		}
	}
	e.U64(uint64(r.Validity.Lo)).U64(uint64(r.Validity.Hi))
	e.U32(uint32(len(r.Tags)))
	for _, id := range r.Tags {
		t := invalidation.TagOf(id)
		e.Str(t.Table).Str(t.Key).Bool(t.Wildcard)
	}
	return e
}

func errFrame(err error) *wire.Buffer {
	msg := err.Error()
	// Mark retryable conflicts so clients can reconstruct the sentinel.
	if errors.Is(err, db.ErrSerialization) {
		msg = "SERIALIZATION:" + msg
	}
	return wire.NewBuffer(opErr).Str(msg)
}

// Client implements core.DB over TCP. Each database transaction leases one
// pooled connection for its lifetime (the protocol is stateful per
// connection, like PostgreSQL sessions). The transaction's context maps
// onto connection deadlines: every round trip of a transaction begun with
// a deadline is bounded by it, and a round trip that fails (deadline
// included) tears down and redials the session so a half-exchanged frame
// can never poison the next lease. Frames nobody answers (see opAbort) keep
// a session in sync by construction: the next lease's reply is the next
// frame the server writes.
type Client struct {
	addr string
	pool chan *conn
}

type conn struct {
	addr string
	mu   sync.Mutex
	c    net.Conn
	fr   *wire.FrameReader
	lazy uint64 // piggybacked begins issued on this session; owned by its lessee
}

func newConn(addr string, c net.Conn) *conn {
	return &conn{addr: addr, c: c, fr: wire.NewFrameReader(c)}
}

var _ core.DB = (*Client)(nil)

// Dial connects to a database daemon with a pool of sessions.
func Dial(addr string, poolSize int) (*Client, error) {
	if poolSize <= 0 {
		poolSize = 8
	}
	cl := &Client{addr: addr, pool: make(chan *conn, poolSize)}
	for i := 0; i < poolSize; i++ {
		c, err := net.DialTimeout("tcp", addr, opTimeout)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.pool <- newConn(addr, c)
	}
	return cl, nil
}

// Close tears down the session pool.
func (cl *Client) Close() {
	for {
		select {
		case c := <-cl.pool:
			c.c.Close()
		default:
			return
		}
	}
}

// exchange is one request/response exchange bounded by ctx's deadline; the
// reply may be an opErr frame. A transport failure (including a deadline
// expiry mid-exchange) leaves the session desynchronized, so the connection
// is closed and redialed before the error returns — the next lease of this
// slot starts clean.
func (c *conn) exchange(ctx context.Context, req *wire.Buffer) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = c.c.SetDeadline(dl)
	} else {
		_ = c.c.SetDeadline(time.Time{})
	}
	err := req.WriteFrame(c.c)
	var resp []byte
	if err == nil {
		resp, err = c.fr.ReadFrame()
	}
	if err != nil {
		c.reset()
		return nil, err
	}
	return resp, nil
}

// send writes a frame nobody answers, bounded by opTimeout. A failed write
// resets the session, which ends every transaction on it server-side — all
// the lost frame asked for.
func (c *conn) send(req *wire.Buffer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.c.SetWriteDeadline(time.Now().Add(opTimeout))
	if err := req.WriteFrame(c.c); err != nil {
		c.reset()
	}
}

// reset replaces a failed session; c.mu must be held. The redial is
// bounded: an unbounded net.Dial here would let a blackholed host re-wedge
// the very release paths opTimeout exists to bound, for the kernel's
// ~2-minute connect timeout.
func (c *conn) reset() {
	c.c.Close()
	if nc, err := net.DialTimeout("tcp", c.addr, opTimeout); err == nil {
		c.c, c.fr = nc, wire.NewFrameReader(nc)
	}
}

// replyErr decodes an opErr reply into the error it carries.
func replyErr(resp []byte) error {
	if len(resp) == 0 || resp[0] != opErr {
		return nil
	}
	d := wire.NewDecoder(resp)
	d.Op()
	msg := d.Str()
	if strings.HasPrefix(msg, "SERIALIZATION:") {
		return fmt.Errorf("%w (%s)", db.ErrSerialization, strings.TrimPrefix(msg, "SERIALIZATION:"))
	}
	return errors.New(msg)
}

// roundTripCtx is exchange with an opErr reply turned into its error.
func (c *conn) roundTripCtx(ctx context.Context, req *wire.Buffer) ([]byte, error) {
	resp, err := c.exchange(ctx, req)
	if err == nil {
		err = replyErr(resp)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Begin starts a remote transaction bound to ctx, leasing a session from
// the pool until Commit or Abort. ctx's deadline bounds the begin round
// trip and every later statement of the transaction; waiting for a free
// session also respects cancellation.
//
// A read-only transaction at a given snapshot needs nothing from the
// server to begin — its snapshot is the one asked for — so its Begin costs
// no round trip: the first Query carries it (opQueryAt), and a snapshot
// that turns out not to be pinned is that Query's error. The caller must
// therefore keep snap pinned until that Query returns, not merely until
// Begin does.
func (cl *Client) Begin(ctx context.Context, readOnly bool, snap interval.Timestamp) (core.DBTx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var c *conn
	select {
	case c = <-cl.pool:
	case <-ctx.Done():
		return nil, fmt.Errorf("dbnet: begin: %w", ctx.Err())
	}
	if readOnly && snap != 0 {
		c.lazy++
		return &clientTx{cl: cl, c: c, ctx: ctx, id: lazyIDBit | c.lazy, snap: snap, ro: true, pending: true}, nil
	}
	resp, err := c.roundTripCtx(ctx, wire.NewBuffer(opBegin).Bool(readOnly).U64(uint64(snap)))
	if err != nil {
		cl.pool <- c
		return nil, err
	}
	d := wire.NewDecoder(resp)
	d.Op()
	id := d.U64()
	got := interval.Timestamp(d.U64())
	if d.Err() != nil {
		cl.pool <- c
		return nil, d.Err()
	}
	return &clientTx{cl: cl, c: c, ctx: ctx, id: id, snap: got, ro: readOnly}, nil
}

// PinLatest pins the latest snapshot on the daemon.
func (cl *Client) PinLatest() (interval.Timestamp, time.Time) {
	c := <-cl.pool
	defer func() { cl.pool <- c }()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	resp, err := c.roundTripCtx(ctx, wire.NewBuffer(opPin))
	if err != nil {
		return 0, time.Time{}
	}
	d := wire.NewDecoder(resp)
	d.Op()
	return interval.Timestamp(d.U64()), time.Unix(0, d.I64())
}

// ServerStats fetches the daemon's engine + durability counters as the
// JSON the daemon encoded (see the ServerStats type), so callers can embed
// it in their own status payloads without re-marshalling.
func (cl *Client) ServerStats(ctx context.Context) (json.RawMessage, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var c *conn
	select {
	case c = <-cl.pool:
	case <-ctx.Done():
		return nil, fmt.Errorf("dbnet: stats: %w", ctx.Err())
	}
	defer func() { cl.pool <- c }()
	resp, err := c.roundTripCtx(ctx, wire.NewBuffer(opStats))
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	if d.Op() != opStatsResp {
		return nil, errors.New("dbnet: unexpected stats response opcode")
	}
	blob := d.Str()
	return json.RawMessage(blob), d.Err()
}

// Unpin releases a pinned snapshot on the daemon; the exchange is bounded
// by opTimeout so a wedged daemon cannot hang the release path.
func (cl *Client) Unpin(ts interval.Timestamp) {
	c := <-cl.pool
	defer func() { cl.pool <- c }()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_, _ = c.roundTripCtx(ctx, wire.NewBuffer(opUnpin).U64(uint64(ts)))
}

// clientTx is a remote transaction bound to one pooled session.
type clientTx struct {
	cl   *Client
	c    *conn
	ctx  context.Context
	id   uint64
	snap interval.Timestamp
	ro   bool
	// pending is set while the server has not heard of this transaction:
	// its Begin travels with the first Query, and until a reply arrives
	// there is nothing server-side to end.
	pending bool
	done    atomic.Bool
}

// Snapshot returns the transaction's snapshot timestamp.
func (t *clientTx) Snapshot() interval.Timestamp { return t.snap }

// Query runs a remote SELECT, bounded by the transaction's context.
func (t *clientTx) Query(src string, args ...sql.Value) (*db.Result, error) {
	var e *wire.Buffer
	if t.pending {
		e = wire.NewBuffer(opQueryAt).U64(t.id).U64(uint64(t.snap))
	} else {
		e = wire.NewBuffer(opQuery).U64(t.id)
	}
	e.Str(src)
	encodeArgs(e, args)
	resp, err := t.c.exchange(t.ctx, e)
	if err != nil {
		return nil, err
	}
	// Any reply means the server ran the Begin. If it failed there is no
	// transaction to end, and ending one that does not exist is harmless.
	t.pending = false
	if err := replyErr(resp); err != nil {
		return nil, err
	}
	return decodeResult(resp)
}

// Exec runs a remote INSERT/UPDATE/DELETE, bounded by the transaction's
// context.
func (t *clientTx) Exec(src string, args ...sql.Value) (int, error) {
	if t.pending {
		return 0, db.ErrReadOnly // only read-only transactions begin lazily
	}
	e := wire.NewBuffer(opExec).U64(t.id).Str(src)
	encodeArgs(e, args)
	resp, err := t.c.roundTripCtx(t.ctx, e)
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(resp)
	d.Op()
	return int(d.U64()), d.Err()
}

// Commit commits the remote transaction and releases the session. On a
// cancelled context it aborts instead: the daemon must not publish work
// the caller has already walked away from. A read-only transaction has
// nothing to publish and nothing to learn from a reply — its timestamp is
// its snapshot — so its Commit is the same one-way frame as Abort.
func (t *clientTx) Commit() (interval.Timestamp, error) {
	if err := t.ctx.Err(); err != nil {
		t.Abort()
		return 0, fmt.Errorf("dbnet: commit: %w", err)
	}
	if !t.done.CompareAndSwap(false, true) {
		return 0, db.ErrTxDone
	}
	if t.ro {
		t.end()
		return t.snap, nil
	}
	defer func() { t.cl.pool <- t.c }()
	resp, err := t.c.roundTripCtx(t.ctx, wire.NewBuffer(opCommit).U64(t.id))
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(resp)
	d.Op()
	return interval.Timestamp(d.U64()), d.Err()
}

// Abort rolls back the remote transaction and releases the session. It
// deliberately ignores the transaction's (possibly cancelled) context —
// rollback must always be attempted so the daemon session is freed — and
// waits for nothing: the frame is written under opTimeout, so "Abort never
// blocks on the context" does not become "Abort blocks on a wedged
// daemon", and a write that fails resets the session, which aborts the
// transaction server-side anyway.
func (t *clientTx) Abort() {
	if t.done.CompareAndSwap(false, true) {
		t.end()
	}
}

// end tells the server to drop the transaction, if it ever heard of it, and
// returns the session to the pool. The next lease of the session is ordered
// behind the frame on the same connection.
func (t *clientTx) end() {
	if !t.pending {
		t.c.send(wire.NewBuffer(opAbort).U64(t.id))
	}
	t.cl.pool <- t.c
}

func encodeArgs(e *wire.Buffer, args []sql.Value) {
	e.U32(uint32(len(args)))
	for _, a := range args {
		sql.EncodeValue(e, a)
	}
}

func decodeResult(resp []byte) (*db.Result, error) {
	d := wire.NewDecoder(resp)
	if d.Op() != opQueryResp {
		return nil, errors.New("dbnet: unexpected response opcode")
	}
	r := &db.Result{}
	nc := d.U32()
	for i := uint32(0); i < nc; i++ {
		r.Cols = append(r.Cols, d.Str())
	}
	nr := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	r.Rows = make([][]sql.Value, 0, nr)
	for i := uint32(0); i < nr; i++ {
		row := make([]sql.Value, nc)
		for j := range row {
			v, err := sql.DecodeValue(d)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		r.Rows = append(r.Rows, row)
	}
	r.Validity.Lo = interval.Timestamp(d.U64())
	r.Validity.Hi = interval.Timestamp(d.U64())
	nt := d.U32()
	if d.Err() != nil {
		return r, d.Err()
	}
	r.Tags, _ = invalidation.DecodeTags(d, nt)
	return r, d.Err()
}
