package cacheserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/rpc"
	"txcache/internal/wire"
)

// Node is the interface the TxCache library uses to talk to one cache
// server; *Server implements it directly (in-process deployments, tests)
// and *Client implements it over TCP. The read-path methods take the
// requesting transaction's context: the TCP client maps its deadline onto
// a per-request timer and abandons the request on cancellation; the
// in-process server degrades cancelled probes to misses. Put stays
// context-free — it is fire-and-forget by design (the cache is an
// optimization; callers never wait on an install).
type Node interface {
	Lookup(ctx context.Context, key string, lo, hi, origLo, origHi interval.Timestamp) LookupResult
	LookupBatch(ctx context.Context, reqs []BatchLookup) []LookupResult // kept for benchmark/ (ROADMAP 1)
	Put(key string, data []byte, iv interval.Interval, still bool, genSnap interval.Timestamp, tags []invalidation.TagID)
	Stats() Stats
	ResetStats()
}

var (
	_ Node = (*Server)(nil)
	_ Node = (*Client)(nil)
)

// BatchLookup is one probe of LookupBatch: the same parameters as Lookup.
type BatchLookup struct { // kept for benchmark/ (ROADMAP 1)
	Key                    string
	Lo, Hi, OrigLo, OrigHi interval.Timestamp
}

// lookupEach is LookupBatch on any node: one Lookup per probe, in order.
// Once ctx is done the remaining probes are compulsory misses, and nothing
// more is asked of n.
func lookupEach(ctx context.Context, n Node, reqs []BatchLookup) []LookupResult {
	out := make([]LookupResult, len(reqs))
	for i, q := range reqs {
		if ctx.Err() != nil {
			out[i] = LookupResult{Miss: MissCompulsory}
			continue
		}
		out[i] = n.Lookup(ctx, q.Key, q.Lo, q.Hi, q.OrigLo, q.OrigHi)
	}
	return out
}

// Protocol opcodes; the frame header, its request IDs, the ack and error
// replies and the stats request are internal/rpc's. A frame sent one-way (async puts,
// unacked invalidation pushes) is applied and never answered.
const (
	opLookup     byte = 1
	opLookupResp byte = 2
	opPut        byte = 3
	opReset      byte = 5 // ResetStats
	opInval      byte = 7
)

// Serve accepts request connections on l until l is closed. A connection
// carrying invalidation messages (opInval) is the stream from the database,
// applied in send order; any connection may mix request types.
func (s *Server) Serve(l net.Listener) error {
	return rpc.Serve(l, func() (rpc.Handler, func()) { return s.handler(), nil })
}

// handler returns the node's rpc.Handler for one connection, with the buffer
// the connection's pushed messages are decoded into: apply copies a
// message's tags into the history and keeps no slice of them, so a push
// allocates nothing once the buffer fits the widest message.
func (s *Server) handler() rpc.Handler {
	var tags []invalidation.TagID
	return func(op byte, body []byte) (*wire.Buffer, error) { return s.handle(op, body, &tags) }
}

// handle processes one request, returning the response frame, or nil for a
// bare ack. tags is the connection's buffer for a pushed message's tags.
func (s *Server) handle(op byte, body []byte, tags *[]invalidation.TagID) (*wire.Buffer, error) {
	d := wire.NewDecoder(body)
	//lint:allow ctxflow the wire protocol carries no context, and one made by the serve loop could only end after the handler it was passed to had returned; lookups are in-memory and non-blocking
	ctx := context.Background()
	switch op {
	case opLookup:
		key := d.Str()
		lo := interval.Timestamp(d.U64())
		hi := interval.Timestamp(d.U64())
		origLo := interval.Timestamp(d.U64())
		origHi := interval.Timestamp(d.U64())
		if d.Err() != nil {
			return nil, d.Err()
		}
		e := rpc.NewFrame(opLookupResp)
		encodeLookupResult(e, s.Lookup(ctx, key, lo, hi, origLo, origHi))
		return e, nil
	case opPut:
		key := d.Str()
		lo := interval.Timestamp(d.U64())
		hi := interval.Timestamp(d.U64())
		still := d.Bool()
		genSnap := interval.Timestamp(d.U64())
		tags, _ := invalidation.DecodeTags(d) // d.Err() re-checked below
		data := d.Blob()
		if d.Err() != nil {
			return nil, d.Err()
		}
		// Copy data out of the request buffer before it is reused.
		s.Put(key, append([]byte(nil), data...), interval.Interval{Lo: lo, Hi: hi}, still, genSnap, tags)
		return nil, nil
	case rpc.OpStats:
		return rpc.StatsReply(s.Stats())
	case opReset:
		s.ResetStats()
		return nil, nil
	case opInval:
		m, err := invalidation.DecodeMessage(d, *tags)
		if err != nil {
			return nil, err
		}
		*tags = m.Tags
		// Sent as a request, the push is acked: the stream owner retries until
		// it sees the ack, which is what makes its at-least-once delivery
		// gapless (duplicates are deduplicated here by timestamp). Sent
		// one-way (tests, local streams) it is applied in order all the same.
		s.apply(m, true)
		return nil, nil
	default:
		return nil, fmt.Errorf("cacheserver: unknown opcode %d", op)
	}
}

func encodeLookupResult(e *wire.Buffer, r LookupResult) {
	e.Bool(r.Found).U8(byte(r.Miss))
	e.U64(uint64(r.Validity.Lo)).U64(uint64(r.Validity.Hi)).Bool(r.Still)
	invalidation.AppendTags(e, r.Tags)
	e.Blob(r.Data)
}

// decodeLookupResult parses one LookupResult.
func decodeLookupResult(d *wire.Decoder) (LookupResult, error) {
	var r LookupResult
	r.Found = d.Bool()
	r.Miss = MissKind(d.U8())
	r.Validity.Lo = interval.Timestamp(d.U64())
	r.Validity.Hi = interval.Timestamp(d.U64())
	r.Still = d.Bool()
	var err error
	if r.Tags, err = invalidation.DecodeTags(d); err != nil {
		return r, err
	}
	r.Data = append([]byte(nil), d.Blob()...)
	return r, d.Err()
}

// errClosed is what a flush of a closed client's put queue, or a stream
// pushed through one, reports.
var errClosed = errors.New("cacheserver: client closed")

// Client defaults.
const (
	// DefaultPoolSize is the number of TCP connections a Client dials to
	// its node up front; a lookup that finds none idle dials another.
	DefaultPoolSize = 4
	// DefaultCallTimeout bounds one request/response exchange. Lookups that
	// time out degrade to compulsory misses.
	DefaultCallTimeout = 2 * time.Second
	// DefaultPutQueue is the bound of the asynchronous put queue. When the
	// queue is full, puts are dropped (and counted), never blocked on: the
	// cache is an optimization.
	DefaultPutQueue = 1024
	// DefaultDrainTimeout bounds how long Close waits for the async put
	// queue to drain before tearing connections down.
	DefaultDrainTimeout = time.Second
)

// ClientStats are client-side transport counters, as opposed to Stats (the
// remote node's counters).
type ClientStats struct {
	Lookups      uint64 // lookup requests sent
	LookupErrors uint64 // lookups degraded to misses by transport errors
	PutsQueued   uint64 // puts accepted into the async queue
	PutsSent     uint64 // puts written to a connection
	PutsDropped  uint64 // puts dropped because the queue was full
	PutErrors    uint64 // puts that failed on every connection
	CallErrors   uint64 // Stats/ResetStats round trips that failed
	Timeouts     uint64 // requests abandoned after DefaultCallTimeout
	Canceled     uint64 // requests abandoned because the caller's context ended
	LateDrops    uint64 // replies owed to abandoned requests, skipped
	Reconnects   uint64 // connections dialed to replace ones lost to a failure
}

// clientCounters is the atomic backing store for the counters of
// ClientStats that the transport does not keep itself.
type clientCounters struct {
	lookups, lookupErrors                        atomic.Uint64
	putsQueued, putsSent, putsDropped, putErrors atomic.Uint64
	callErrors                                   atomic.Uint64
}

// Client is a TCP client for a cache node, safe for concurrent use: a lookup
// leases a connection of its own (internal/rpc), and puts are queued and
// written asynchronously.
type Client struct {
	rpc *rpc.Client

	putq      chan putItem
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // the put sender

	counters clientCounters
}

type putItem struct {
	frame *wire.Buffer
	ack   chan struct{} // FlushContext marker when non-nil; frame is ignored
}

// Dial connects to a cache node over TCP. poolSize <= 0 selects
// DefaultPoolSize.
func Dial(addr string, poolSize int) (*Client, error) { return DialNet(rpc.TCP, "", addr, poolSize) }

// DialNet is Dial through nw, as the tier from.
func DialNet(nw rpc.Net, from, addr string, poolSize int) (*Client, error) {
	if poolSize <= 0 {
		poolSize = DefaultPoolSize
	}
	rc, err := rpc.Dial(nw, from, "cacheserver", addr, poolSize, DefaultCallTimeout)
	if err != nil {
		return nil, err
	}
	return newClient(rc), nil
}

// newClient starts the put sender of a client on rc.
func newClient(rc *rpc.Client) *Client {
	c := &Client{rpc: rc, putq: make(chan putItem, DefaultPutQueue), closed: make(chan struct{})}
	c.wg.Add(1)
	go c.putSender()
	return c
}

// Close drains queued puts for up to DefaultDrainTimeout, then tears down
// the connection pool, failing all in-flight requests and discarding
// whatever the drain deadline left behind. It is the "drain" half of
// removing a node from a running cluster.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), DefaultDrainTimeout)
		defer cancel()
		_ = c.FlushContext(ctx) // whatever the deadline leaves behind is discarded
		close(c.closed)
	})
	c.rpc.Close()
	c.wg.Wait()
}

// ClientStats snapshots the transport counters.
func (c *Client) ClientStats() ClientStats {
	t := c.rpc.Counters()
	return ClientStats{
		Lookups:      c.counters.lookups.Load(),
		LookupErrors: c.counters.lookupErrors.Load(),
		PutsQueued:   c.counters.putsQueued.Load(),
		PutsSent:     c.counters.putsSent.Load(),
		PutsDropped:  c.counters.putsDropped.Load(),
		PutErrors:    c.counters.putErrors.Load(),
		CallErrors:   c.counters.callErrors.Load(),
		Timeouts:     t.Timeouts,
		Canceled:     t.Canceled,
		LateDrops:    t.LateDrops,
		Reconnects:   t.Reconnects,
	}
}

// Lookup implements Node over TCP. Network errors (and cancellation)
// degrade to a compulsory miss: the cache is an optimization, never
// required for correctness.
func (c *Client) Lookup(ctx context.Context, key string, lo, hi, origLo, origHi interval.Timestamp) LookupResult {
	c.counters.lookups.Add(1)
	e := rpc.NewFrame(opLookup)
	e.Str(key).U64(uint64(lo)).U64(uint64(hi)).U64(uint64(origLo)).U64(uint64(origHi))
	if op, body, err := c.rpc.Call(ctx, e); err == nil && op == opLookupResp {
		if r, err := decodeLookupResult(wire.NewDecoder(body)); err == nil {
			return r
		}
	}
	c.counters.lookupErrors.Add(1)
	return LookupResult{Miss: MissCompulsory}
}

// LookupBatch implements Node over TCP as one Lookup per probe, in order.
func (c *Client) LookupBatch(ctx context.Context, reqs []BatchLookup) []LookupResult {
	return lookupEach(ctx, c, reqs)
}

// Put implements Node over TCP. The put is asynchronous: the frame enters a
// bounded queue drained by a background sender, so the caller never blocks
// on the network. Queue overflow drops the put (PutsDropped); write
// failures on every connection count as PutErrors. Use FlushContext to wait
// for the queue to drain.
func (c *Client) Put(key string, data []byte, iv interval.Interval, still bool, genSnap interval.Timestamp, tags []invalidation.TagID) {
	e := rpc.NewFrame(opPut)
	e.Str(key).U64(uint64(iv.Lo)).U64(uint64(iv.Hi)).Bool(still).U64(uint64(genSnap))
	invalidation.AppendTags(e, tags)
	e.Blob(data)
	select {
	case c.putq <- putItem{frame: e}:
		c.counters.putsQueued.Add(1)
	default:
		c.counters.putsDropped.Add(1)
	}
}

// FlushContext blocks until every put queued before the call has been
// written (or failed and been counted), the client is closed, or ctx ends —
// returning the context error if the deadline cut the drain short (queued
// puts are not discarded — the sender keeps working; the caller just stops
// waiting).
func (c *Client) FlushContext(ctx context.Context) error {
	ack := make(chan struct{})
	select {
	case c.putq <- putItem{ack: ack}:
	case <-c.closed:
		return errClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-ack:
		return nil
	case <-c.closed:
		return errClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// putSender drains the async put queue in order, sending each put one-way
// on the first healthy connection.
func (c *Client) putSender() {
	defer c.wg.Done()
	for {
		select {
		case <-c.closed:
			return
		case it := <-c.putq:
			if it.ack != nil {
				close(it.ack)
				continue
			}
			if err := c.rpc.Send(it.frame); err != nil {
				c.counters.putErrors.Add(1)
			} else {
				c.counters.putsSent.Add(1)
			}
		}
	}
}

// StatsJSON fetches the node's Stats as the JSON it answered with.
func (c *Client) StatsJSON(ctx context.Context) (json.RawMessage, error) {
	return c.rpc.Stats(ctx)
}

// Stats implements Node over TCP. Transport errors return zero stats and
// are counted in ClientStats.CallErrors.
func (c *Client) Stats() Stats {
	// Node's Stats signature has no ctx to thread, so bound the round trip
	// here: a wedged node must not hang a monitoring poll forever.
	ctx, cancel := context.WithTimeout(context.Background(), DefaultCallTimeout)
	defer cancel()
	var st Stats
	if blob, err := c.StatsJSON(ctx); err != nil || json.Unmarshal(blob, &st) != nil {
		c.counters.callErrors.Add(1)
		return Stats{}
	}
	return st
}

// ResetStats implements Node over TCP. Failures are counted in
// ClientStats.CallErrors rather than silently discarded.
func (c *Client) ResetStats() {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultCallTimeout)
	defer cancel()
	if _, _, err := c.rpc.Call(ctx, rpc.NewFrame(opReset)); err != nil {
		c.counters.callErrors.Add(1)
	}
}

// PushInvalidation delivers one stream message to the node (used by the
// database daemon's stream fan-out) and waits for the node's ack: a nil
// return means the node applied (or had already applied) the message. A
// kernel-buffered write is not delivery, so an unacked push must be
// assumed lost — the stream owner retries it until acked; the node
// deduplicates by timestamp, so at-least-once in-order delivery is exactly
// the stream contract, and PushStream is that owner. ctx bounds one
// delivery attempt. The caller is expected to be a single goroutine per
// node, which preserves send order: each push waits for its ack, and a
// retry of one abandoned at its deadline goes out on the connection
// released last — the one the abandoned push still holds a place on.
func (c *Client) PushInvalidation(ctx context.Context, m invalidation.Message) error {
	e := rpc.NewFrame(opInval)
	m.AppendTo(e)
	_, _, err := c.rpc.Call(ctx, e)
	return err
}

// PushStream is the database side of one node's invalidation stream: it
// delivers every message of sub in order, retrying each until the node acks
// it, and returns nil once sub is closed and drained. Each attempt is
// bounded on its own, so a hung node costs an attempt, not the stream.
// Waiting and retrying also end when the client is closed — without that
// exit a message still buffered at teardown would be retried against the
// closed client forever. Run one per node; Feed does.
func (c *Client) PushStream(sub *invalidation.Subscription) error {
	const attemptTimeout, retryDelay = 5 * time.Second, 20 * time.Millisecond
	// Exactly one of in and retry is live: in while the last message is
	// acked, retry while m is waiting for another attempt.
	in := sub.C
	var retry <-chan time.Time
	var m invalidation.Message
	for {
		select {
		case <-c.closed:
			return errClosed
		case <-retry:
		case msg, ok := <-in:
			if !ok {
				return nil
			}
			m = msg
		}
		actx, cancel := context.WithTimeout(context.Background(), attemptTimeout)
		err := c.PushInvalidation(actx, m)
		cancel()
		if err == nil {
			in, retry = sub.C, nil
		} else {
			in, retry = nil, time.After(retryDelay)
		}
	}
}

// Feed is the database's half of one node's invalidation stream: it dials
// the node at addr through nw as the tier from, subscribes it to bus and
// runs PushStream on that connection. stop closes the subscription and the
// connection, in that order, and waits for the stream to end; a daemon that
// feeds its nodes for its whole life never calls it.
func Feed(nw rpc.Net, from, addr string, bus *invalidation.Bus) (stop func(), err error) {
	c, err := DialNet(nw, from, addr, 1)
	if err != nil {
		return nil, err
	}
	sub := bus.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c.PushStream(sub) // ends when stop closes sub, or c under what sub still held
	}()
	return func() { sub.Close(); c.Close(); <-done }, nil
}
