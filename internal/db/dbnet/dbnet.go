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
	"sync/atomic"
	"time"

	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/rpc"
	"txcache/internal/sql"
	"txcache/internal/wire"
)

// Protocol opcodes. The client numbers its transactions, per connection,
// and a transaction's first frame (opQuery, opExec or opCommit, with begins
// set) carries its Begin — id, read-only flag and snapshot ahead of the
// statement — so whoever sent it can end the transaction whether or not a
// reply ever arrived. A begin that fails is the frame's error; the reply to
// a frame that began a transaction ends with its snapshot. Nothing is owed
// for opAbort, which the client sends one-way, also to end a read-only
// transaction's Commit: such a commit publishes nothing. opPin carries a
// timestamp: zero pins the latest snapshot and is answered with opPinResp,
// any other adds a reference to a snapshot already pinned and is acked.
const (
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

	begins byte = 0x40 // set on the opcode of a transaction's first frame
)

// ServerStats is what the daemon answers rpc.OpStats with, and what
// txcache-dbd's status file carries.
type ServerStats struct {
	DB         db.Stats           `json:"db"`
	Durability db.DurabilityStats `json:"durability"`
	Pincushion *pincushion.Stats  `json:"pincushion,omitempty"` // the hosted one's, if any
}

// Server serves one engine. Transactions are scoped to the connection that
// began them (like a SQL session); a dropped connection aborts its
// transactions.
type Server struct {
	Engine *db.Engine
	// Pincushion, if set, is the pincushion the daemon hosts: every session
	// hands it the frames whose opcodes it owns (pincushion.Owns), so its
	// clients reach it at the daemon's one address.
	Pincushion *pincushion.Pincushion
}

// opTimeout bounds round trips that run outside any caller context — the
// release half of pin bookkeeping (Unpin) and pin acquisition (PinLatest,
// Pin). Without it a wedged daemon would hang those paths forever, exactly
// when cancelled requests are trying to shed load.
const opTimeout = 5 * time.Second

// Serve accepts connections until l closes.
func (s *Server) Serve(l net.Listener) error {
	return rpc.Serve(l, func() (rpc.Handler, func()) {
		ss := &session{Server: s, txs: make(map[uint64]*db.Tx)}
		return ss.handle, ss.close
	})
}

// Stats snapshots the engine's counters, and the hosted pincushion's.
func (s *Server) Stats() ServerStats {
	st := ServerStats{DB: s.Engine.Stats(), Durability: s.Engine.DurabilityStats()}
	if s.Pincushion != nil {
		pc := s.Pincushion.Stats()
		st.Pincushion = &pc
	}
	return st
}

// session is one connection's server-side state: its open transactions.
type session struct {
	*Server
	txs map[uint64]*db.Tx
}

// close aborts what the dropped connection left open.
func (ss *session) close() {
	for _, tx := range ss.txs {
		tx.Abort()
	}
}

// begin starts transaction id, which must not be open already.
func (ss *session) begin(id uint64, readOnly bool, snap interval.Timestamp) (*db.Tx, error) {
	if ss.txs[id] != nil {
		return nil, fmt.Errorf("dbnet: transaction %d already open", id)
	}
	// The wire protocol carries no context (hence nil): what ends a
	// transaction its client walked away from is the connection dropping.
	tx, err := ss.Engine.BeginTx(nil, readOnly, snap)
	if err == nil {
		ss.txs[id] = tx
	}
	return tx, err
}

// handle is the session's rpc.Handler. The hosted pincushion's frames are
// its own, before any transaction logic.
func (ss *session) handle(op byte, body []byte) (_ *wire.Buffer, err error) {
	if ss.Pincushion != nil && pincushion.Owns(op) {
		return ss.Pincushion.Handle(op, body)
	}
	defer func() {
		// Mark retryable conflicts so clients can reconstruct the sentinel.
		if errors.Is(err, db.ErrSerialization) {
			err = fmt.Errorf("%s%w", serializationMark, err)
		}
	}()
	d := wire.NewDecoder(body)
	switch op {
	case opPin:
		switch ts := interval.Timestamp(d.U64()); {
		case d.Err() != nil:
			return nil, d.Err()
		case ts != 0:
			return nil, ss.Engine.Pin(ts)
		}
		ts, wall := ss.Engine.PinLatest()
		return rpc.NewFrame(opPinResp).U64(uint64(ts)).I64(wall.UnixNano()), nil
	case opUnpin:
		ts := interval.Timestamp(d.U64())
		if d.Err() == nil {
			ss.Engine.Unpin(ts)
		}
		return nil, d.Err()
	case rpc.OpStats:
		return rpc.StatsReply(ss.Stats())
	}
	// Every other opcode addresses a transaction, and a transaction's first
	// frame begins it: a begin that fails (an unpinned snapshot, a read/write
	// transaction in the past, an id already open) is the frame's error, and
	// no transaction exists afterwards.
	id := d.U64()
	tx := ss.txs[id]
	if op == opAbort {
		if tx != nil {
			tx.Abort()
			delete(ss.txs, id)
		}
		return nil, nil
	}
	began := op&begins != 0
	if op &^= begins; op != opQuery && op != opExec && op != opCommit {
		return nil, fmt.Errorf("dbnet: unknown opcode %d", op)
	}
	if began {
		ro, snap := d.Bool(), interval.Timestamp(d.U64())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if tx, err = ss.begin(id, ro, snap); err != nil {
			return nil, err
		}
	} else if tx == nil {
		return nil, fmt.Errorf("dbnet: no transaction %d", id)
	}
	var resp *wire.Buffer
	switch op {
	case opQuery:
		src := d.Str()
		args, err := decodeArgs(d)
		if err != nil {
			return nil, err
		}
		r, err := tx.Query(src, args...)
		if err != nil {
			return nil, err
		}
		if resp, err = encodeResult(r); err != nil {
			return nil, err
		}
	case opExec:
		src := d.Str()
		args, err := decodeArgs(d)
		if err != nil {
			return nil, err
		}
		n, err := tx.Exec(src, args...)
		if err != nil {
			return nil, err
		}
		resp = rpc.NewFrame(opExecResp).U64(uint64(n))
	case opCommit:
		delete(ss.txs, id)
		ts, err := tx.Commit()
		if err != nil {
			return nil, err
		}
		resp = rpc.NewFrame(opCommitResp).U64(uint64(ts))
	}
	if began {
		resp.U64(uint64(tx.Snapshot()))
	}
	return resp, nil
}

// decodeArgs reads a statement's arguments. The count is bounded by the
// bytes that remain — every value is at least its one-byte tag — before
// anything is allocated for it.
func decodeArgs(d *wire.Decoder) ([]sql.Value, error) {
	args := make([]sql.Value, d.Count(1))
	for i := range args {
		args[i] = sql.DecodeValue(d)
	}
	return args, d.Err()
}

// appendValues writes vals into a frame, uncounted: the reader knows how
// many to expect.
func appendValues(e *wire.Buffer, vals []sql.Value) (err error) {
	e.Append(func(b []byte) []byte {
		for _, v := range vals {
			if b, err = sql.AppendValue(b, v); err != nil {
				break
			}
		}
		return b
	})
	return err
}

func encodeResult(r *db.Result) (*wire.Buffer, error) {
	e := rpc.NewFrame(opQueryResp)
	e.U32(uint32(len(r.Cols)))
	for _, c := range r.Cols {
		e.Str(c)
	}
	e.U32(uint32(len(r.Rows)))
	for _, row := range r.Rows {
		if err := appendValues(e, row); err != nil {
			return nil, err
		}
	}
	e.U64(uint64(r.Validity.Lo)).U64(uint64(r.Validity.Hi))
	invalidation.AppendTags(e, r.Tags)
	return e, nil
}

// serializationMark prefixes the text of an error that is a
// db.ErrSerialization on the wire, where errors travel as text.
const serializationMark = "SERIALIZATION:"

// remoteErr undoes serializationMark on an error a Call returned.
func remoteErr(err error) error {
	var remote rpc.RemoteError
	if errors.As(err, &remote) {
		if msg, ok := strings.CutPrefix(string(remote), serializationMark); ok {
			return fmt.Errorf("%w (%s)", db.ErrSerialization, msg)
		}
	}
	return err
}

// Client implements core.DB over TCP. Each database transaction leases one
// connection for its lifetime, and not only because the protocol is
// stateful per connection, like PostgreSQL sessions: a serve loop handles a
// connection's frames serially and a commit sits in the WAL's fdatasync, so
// two transactions sharing a connection would serialise their commits and
// shrink the commit group. The pool starts with the sessions dialed up front
// and dials another whenever every one is leased, so it caps nothing: what
// bounds concurrent transactions is the caller (serve's MaxInFlight). Every
// round trip of a transaction is bounded by its context, and the frame
// that ends a transaction is ordered ahead of the next lease's first
// request on the same connection. PinLatest, Pin, Unpin and StatsJSON
// address no session and go out on any idle connection, or a new one,
// without waiting for a transaction to end.
type Client struct {
	rpc    *rpc.Client
	lastID atomic.Uint64 // of a transaction
}

var _ core.DB = (*Client)(nil)

// Dial connects to a database daemon over TCP, with poolSize sessions
// dialed up front; poolSize <= 0 selects 8.
func Dial(addr string, poolSize int) (*Client, error) { return DialNet(rpc.TCP, "", addr, poolSize) }

// DialNet is Dial through nw, as the tier from.
func DialNet(nw rpc.Net, from, addr string, poolSize int) (*Client, error) {
	if poolSize <= 0 {
		poolSize = 8
	}
	// Statements and commits take as long as they take: a transaction's
	// round trips are bounded by its context alone.
	rc, err := rpc.Dial(nw, from, "dbnet", addr, poolSize, 0)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: rc}, nil
}

// Close tears down every session, leased ones included: a transaction still
// open fails its next round trip, and the daemon aborts it with the
// connection.
func (cl *Client) Close() { cl.rpc.Close() }

// Begin starts a remote transaction bound to ctx, leasing a session until
// Commit or Abort; ctx's deadline bounds every later round trip. Begin
// itself sends nothing: the transaction's first frame carries it, and a
// begin that fails (an unpinned snapshot) is that frame's error, so the
// caller must keep snap pinned until the first statement returns.
func (cl *Client) Begin(ctx context.Context, readOnly bool, snap interval.Timestamp) (core.DBTx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dbnet: begin: %w", err)
	}
	conn, err := cl.rpc.Lease()
	if err != nil {
		return nil, fmt.Errorf("dbnet: begin: %w", err)
	}
	return &clientTx{cl: cl, conn: conn, ctx: ctx, id: cl.lastID.Add(1), snap: snap, ro: readOnly, pending: true}, nil
}

// caller is what a round trip goes out on: the whole pool, for one that
// addresses no session, or a transaction's leased connection.
type caller interface {
	Call(ctx context.Context, frame *wire.Buffer) (byte, []byte, error)
}

// roundTrip is one exchange whose reply must be opcode want; it returns a
// decoder on the reply's body (by value: it stays on the caller's stack).
func roundTrip(ctx context.Context, c caller, req *wire.Buffer, want byte) (wire.Decoder, error) {
	op, body, err := c.Call(ctx, req)
	if err == nil && op != want {
		err = errors.New("dbnet: unexpected response opcode")
	}
	if err != nil {
		err = remoteErr(err)
	}
	return *wire.NewDecoder(body), err
}

// PinLatest pins the latest snapshot on the daemon.
func (cl *Client) PinLatest() (interval.Timestamp, time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	d, err := roundTrip(ctx, cl.rpc, rpc.NewFrame(opPin).U64(0), opPinResp)
	if err != nil {
		return 0, time.Time{}
	}
	return interval.Timestamp(d.U64()), time.Unix(0, d.I64())
}

// Pin adds a reference to a snapshot already pinned on the daemon, or fails
// with db.ErrNotPinned's text; bounded by opTimeout.
func (cl *Client) Pin(ts interval.Timestamp) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_, err := roundTrip(ctx, cl.rpc, rpc.NewFrame(opPin).U64(uint64(ts)), rpc.OpAck)
	return err
}

// StatsJSON fetches the daemon's ServerStats as the JSON it answered with.
func (cl *Client) StatsJSON(ctx context.Context) (json.RawMessage, error) {
	return cl.rpc.Stats(ctx)
}

// Unpin releases a pinned snapshot on the daemon; the exchange is bounded
// by opTimeout so a wedged daemon cannot hang the release path.
func (cl *Client) Unpin(ts interval.Timestamp) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_, _ = roundTrip(ctx, cl.rpc, rpc.NewFrame(opUnpin).U64(uint64(ts)), rpc.OpAck)
}

// clientTx is a remote transaction bound to one leased session.
type clientTx struct {
	cl   *Client
	conn *rpc.Conn
	ctx  context.Context
	id   uint64
	snap interval.Timestamp
	ro   bool
	// pending is set while the server has not heard of this transaction:
	// its Begin travels with the first frame, and until that frame is sent
	// there is nothing server-side to end.
	pending bool
	done    atomic.Bool
}

// Snapshot returns the transaction's snapshot timestamp: the one Begin was
// given, or, for a transaction begun at the latest, 0 until the reply to
// its first frame has arrived.
func (t *clientTx) Snapshot() interval.Timestamp { return t.snap }

// frame starts the transaction's next request: op for the transaction's id,
// carrying the Begin if nothing has been sent yet.
func (t *clientTx) frame(op byte) *wire.Buffer {
	if !t.pending {
		return rpc.NewFrame(op).U64(t.id)
	}
	return rpc.NewFrame(op | begins).U64(t.id).Bool(t.ro).U64(uint64(t.snap))
}

// call sends a frame started by frame and waits for a reply of opcode
// want. Reply or none, the server may have begun the transaction; if it did
// not there is no transaction to end, and ending one that does not exist is
// harmless.
func (t *clientTx) call(e *wire.Buffer, want byte) (wire.Decoder, error) {
	began := t.pending
	t.pending = false
	d, err := roundTrip(t.ctx, t.conn, e, want)
	if began && err == nil {
		body := d.Take(d.Len() - 8) // the reply ends with the snapshot
		t.snap = interval.Timestamp(d.U64())
		d, err = *wire.NewDecoder(body), d.Err()
	}
	return d, err
}

// statement runs a Query or Exec. A finished transaction sends nothing: its
// session may be another transaction's by now.
func (t *clientTx) statement(op, want byte, src string, args []sql.Value) (wire.Decoder, error) {
	if t.done.Load() {
		return wire.Decoder{}, db.ErrTxDone
	}
	e := t.frame(op).Str(src).U32(uint32(len(args)))
	if err := appendValues(e, args); err != nil {
		return wire.Decoder{}, err
	}
	return t.call(e, want)
}

// Query runs a remote SELECT, bounded by the transaction's context.
func (t *clientTx) Query(src string, args ...sql.Value) (*db.Result, error) {
	d, err := t.statement(opQuery, opQueryResp, src, args)
	if err != nil {
		return nil, err
	}
	return decodeResult(&d)
}

// Exec runs a remote INSERT/UPDATE/DELETE, bounded by the transaction's
// context.
func (t *clientTx) Exec(src string, args ...sql.Value) (int, error) {
	d, err := t.statement(opExec, opExecResp, src, args)
	if err != nil {
		return 0, err
	}
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
	defer t.cl.rpc.Release(t.conn)
	d, err := t.call(t.frame(opCommit), opCommitResp)
	if err != nil {
		return 0, err
	}
	return interval.Timestamp(d.U64()), d.Err()
}

// Abort rolls back the remote transaction and releases the session. It
// deliberately ignores the transaction's (possibly cancelled) context —
// rollback must always be attempted so the daemon session is freed — and
// waits for nothing: the transport bounds the frame's write, so "Abort
// never blocks on the context" does not become "Abort blocks on a wedged
// daemon", and a write that fails drops the connection, which aborts the
// transaction server-side anyway.
func (t *clientTx) Abort() {
	if t.done.CompareAndSwap(false, true) {
		t.end()
	}
}

// end tells the server to drop the transaction, if it may have heard of
// it, and returns the session to the pool. The next lease of the session is
// ordered behind the frame on the same connection.
func (t *clientTx) end() {
	if !t.pending {
		_ = t.conn.Send(rpc.NewFrame(opAbort).U64(t.id)) // a failed write drops the connection, and the transaction with it
	}
	t.cl.rpc.Release(t.conn)
}

// decodeResult reads an opQueryResp body. Every count is bounded by the
// bytes that remain — a column name is at least its length prefix, a value
// its tag byte, an invalidation tag eight bytes — before anything is
// allocated for it.
func decodeResult(d *wire.Decoder) (*db.Result, error) {
	r := &db.Result{}
	nc := d.Count(4)
	for i := 0; i < nc; i++ {
		r.Cols = append(r.Cols, d.Str())
	}
	nr := d.Count(max(nc, 1))
	if d.Err() != nil {
		return nil, d.Err()
	}
	r.Rows = make([][]sql.Value, 0, nr)
	for i := 0; i < nr; i++ {
		row := make([]sql.Value, nc)
		for j := range row {
			row[j] = sql.DecodeValue(d)
		}
		r.Rows = append(r.Rows, row)
	}
	r.Validity.Lo = interval.Timestamp(d.U64())
	r.Validity.Hi = interval.Timestamp(d.U64())
	r.Tags, _ = invalidation.DecodeTags(d)
	return r, d.Err()
}
