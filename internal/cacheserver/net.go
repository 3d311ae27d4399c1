package cacheserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
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
	LookupBatch(ctx context.Context, reqs []BatchLookup) []LookupResult
	Put(key string, data []byte, iv interval.Interval, still bool, genSnap interval.Timestamp, tags []invalidation.TagID)
	Stats() Stats
	ResetStats()
}

var (
	_ Node = (*Server)(nil)
	_ Node = (*Client)(nil)
)

// BatchLookup is one probe of a multi-key lookup: the same parameters as
// Lookup, resolved for a whole set of keys in one round trip.
type BatchLookup struct {
	Key                    string
	Lo, Hi, OrigLo, OrigHi interval.Timestamp
}

// Protocol opcodes. Every frame payload is [op:1][reqID:4 LE][body]. A
// request carrying a nonzero reqID receives exactly one response frame
// tagged with the same reqID; reqID 0 marks fire-and-forget frames (async
// puts, invalidation pushes) that are never answered. Responses may be
// interleaved arbitrarily with other requests' responses, which is what
// lets a client pipeline many requests over one connection.
const (
	opLookup          byte = 1
	opLookupResp      byte = 2
	opPut             byte = 3
	opAck             byte = 4
	opStats           byte = 5
	opStatsResp       byte = 6
	opInval           byte = 7
	opResetStats      byte = 8
	opErr             byte = 9
	opLookupBatch     byte = 10
	opLookupBatchResp byte = 11
	opWarmBoot        byte = 12
)

// MaxBatchLookup bounds the probes of one batched lookup so a corrupt
// count prefix cannot cause a huge allocation. The response frame is
// bounded separately: hits that would overflow the frame budget degrade to
// capacity misses.
const MaxBatchLookup = 4096

// Serve accepts request connections on l until l is closed. A connection
// carrying invalidation messages (opInval) is the stream from the database;
// any connection may mix request types.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

// serveConn processes frames in arrival order. Handling is deliberately
// serial per connection: invalidation-stream messages must be applied in
// send order, and request handlers only ever take the server mutex briefly,
// so per-frame goroutines would buy reordering hazards without concurrency.
// Pipelining still eliminates round-trip stalls — the client does not wait
// for a response before sending the next request — and concurrency comes
// from serving many connections.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	fr := wire.NewFrameReader(conn)
	for {
		req, err := fr.ReadFrame()
		if err != nil {
			return
		}
		resp := s.handle(req)
		if resp != nil {
			_ = conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
			if err := resp.WriteFrame(conn); err != nil {
				return
			}
		}
	}
}

// handle processes one request frame, returning the response frame (nil for
// fire-and-forget frames). It must never panic on malformed input: every
// decode is checked and every count prefix is bounded by the bytes that
// actually remain in the payload.
func (s *Server) handle(req []byte) *wire.Buffer {
	d := wire.NewDecoder(req)
	op := d.Op()
	id := d.U32()
	if d.Err() != nil {
		return nil // too short to even address a reply
	}
	fail := func(err error) *wire.Buffer {
		if id == 0 {
			return nil
		}
		return errFrame(id, err)
	}
	switch op {
	case opLookup, opLookupBatch, opStats:
		// Response-bearing requests need an address; with reqID 0 the reply
		// could never be matched to a caller, so the frame is dropped
		// unexecuted rather than answered in violation of the
		// fire-and-forget rule.
		if id == 0 {
			return nil
		}
	}
	switch op {
	case opLookup:
		key := d.Str()
		lo := interval.Timestamp(d.U64())
		hi := interval.Timestamp(d.U64())
		origLo := interval.Timestamp(d.U64())
		origHi := interval.Timestamp(d.U64())
		if d.Err() != nil {
			return fail(d.Err())
		}
		//lint:allow ctxflow the wire protocol carries no context; lookups are in-memory and non-blocking
		r := s.Lookup(context.Background(), key, lo, hi, origLo, origHi)
		e := wire.NewBuffer(opLookupResp)
		e.U32(id)
		encodeLookupResult(e, r)
		return e
	case opLookupBatch:
		n := d.U32()
		// Each probe is at least a 4-byte key length plus four timestamps.
		if n > MaxBatchLookup || int(n) > d.Len()/(4+32)+1 {
			return fail(fmt.Errorf("cacheserver: unreasonable batch size %d", n))
		}
		reqs := make([]BatchLookup, 0, n)
		for i := uint32(0); i < n; i++ {
			reqs = append(reqs, BatchLookup{
				Key:    d.Str(),
				Lo:     interval.Timestamp(d.U64()),
				Hi:     interval.Timestamp(d.U64()),
				OrigLo: interval.Timestamp(d.U64()),
				OrigHi: interval.Timestamp(d.U64()),
			})
		}
		if d.Err() != nil {
			return fail(d.Err())
		}
		//lint:allow ctxflow the wire protocol carries no context; lookups are in-memory and non-blocking
		rs := s.LookupBatch(context.Background(), reqs)
		e := wire.NewBuffer(opLookupBatchResp)
		e.U32(id).U32(uint32(len(rs)))
		// The response must stay under MaxFrame no matter how large the hit
		// payloads are; results that would overflow the budget degrade to
		// capacity misses (always safe — the caller just recomputes).
		budget := wire.MaxFrame / 2
		for _, r := range rs {
			if len(e.Bytes())+encodedResultSize(r) > budget {
				encodeLookupResult(e, LookupResult{Miss: MissCapacity})
				continue
			}
			encodeLookupResult(e, r)
		}
		return e
	case opPut:
		key := d.Str()
		lo := interval.Timestamp(d.U64())
		hi := interval.Timestamp(d.U64())
		still := d.Bool()
		genSnap := interval.Timestamp(d.U64())
		n := d.U32()
		// Each tag is at least two length prefixes and a wildcard byte.
		if int(n) > d.Len()/9+1 {
			return fail(fmt.Errorf("cacheserver: unreasonable tag count %d", n))
		}
		tags, _ := invalidation.DecodeTags(d, n) // d.Err() re-checked below
		data := d.Blob()
		if d.Err() != nil {
			return fail(d.Err())
		}
		// Copy data out of the request buffer before it is reused.
		s.Put(key, append([]byte(nil), data...), interval.Interval{Lo: lo, Hi: hi}, still, genSnap, tags)
		if id == 0 {
			return nil // async put: no ack
		}
		return wire.NewBuffer(opAck).U32(id)
	case opStats:
		reset := d.Bool()
		if d.Err() != nil {
			return fail(d.Err())
		}
		if reset {
			s.ResetStats()
			return wire.NewBuffer(opAck).U32(id)
		}
		st := s.Stats()
		e := wire.NewBuffer(opStatsResp)
		e.U32(id)
		e.U64(st.Lookups).U64(st.Hits)
		e.U64(st.MissCompulsory).U64(st.MissConsistency).U64(st.MissStaleness).U64(st.MissCapacity)
		e.U64(st.Puts).U64(st.Invalidations).U64(st.Invalidated)
		e.U64(st.EvictedCapacity).U64(st.EvictedStale)
		e.I64(st.BytesUsed).I64(int64(st.Versions)).I64(int64(st.Keys))
		e.U64(uint64(st.Horizon))
		return e
	case opWarmBoot:
		ts := interval.Timestamp(d.U64())
		wallNano := d.I64()
		if d.Err() != nil {
			return fail(d.Err())
		}
		s.WarmBoot(ts, time.Unix(0, wallNano))
		if id == 0 {
			return nil
		}
		return wire.NewBuffer(opAck).U32(id)
	case opInval:
		m, err := invalidation.DecodeMessage(d)
		if err != nil {
			return fail(err)
		}
		s.ApplyInvalidation(m)
		if id == 0 {
			return nil // in-order fire-and-forget push (tests, local streams)
		}
		// Acked push: the stream owner retries until it sees the ack, which
		// is what makes its at-least-once delivery gapless (duplicates are
		// deduplicated here by timestamp).
		return wire.NewBuffer(opAck).U32(id)
	default:
		return fail(fmt.Errorf("cacheserver: unknown opcode %d", op))
	}
}

// encodedResultSize bounds encodeLookupResult's output for r.
func encodedResultSize(r LookupResult) int {
	n := 2 + 8 + 8 + 1 + 4 + 4 + len(r.Data)
	for _, id := range r.Tags {
		t := invalidation.TagOf(id)
		n += 9 + len(t.Table) + len(t.Key)
	}
	return n
}

func encodeLookupResult(e *wire.Buffer, r LookupResult) {
	e.Bool(r.Found).U8(byte(r.Miss))
	e.U64(uint64(r.Validity.Lo)).U64(uint64(r.Validity.Hi)).Bool(r.Still)
	e.U32(uint32(len(r.Tags)))
	for _, id := range r.Tags {
		t := invalidation.TagOf(id)
		e.Str(t.Table).Str(t.Key).Bool(t.Wildcard)
	}
	e.Blob(r.Data)
}

// decodeLookupResult parses one LookupResult positioned after op and reqID,
// interning tags as it goes.
func decodeLookupResult(d *wire.Decoder) (LookupResult, error) {
	var r LookupResult
	r.Found = d.Bool()
	r.Miss = MissKind(d.U8())
	r.Validity.Lo = interval.Timestamp(d.U64())
	r.Validity.Hi = interval.Timestamp(d.U64())
	r.Still = d.Bool()
	n := d.U32()
	if d.Err() != nil {
		return r, d.Err()
	}
	if int(n) > d.Len()/9+1 {
		return r, fmt.Errorf("cacheserver: unreasonable tag count %d", n)
	}
	var err error
	if r.Tags, err = invalidation.DecodeTags(d, n); err != nil {
		return r, err
	}
	r.Data = append([]byte(nil), d.Blob()...)
	return r, d.Err()
}

func errFrame(id uint32, err error) *wire.Buffer {
	return wire.NewBuffer(opErr).U32(id).Str(err.Error())
}

// Client errors.
var (
	errNotConnected = errors.New("cacheserver: not connected")
	errConnLost     = errors.New("cacheserver: connection lost")
	errTimeout      = errors.New("cacheserver: request timed out")
	errClosed       = errors.New("cacheserver: client closed")
)

// Client defaults.
const (
	// DefaultPoolSize is the number of TCP connections a Client keeps per
	// node. Requests are multiplexed — many in flight per connection — so
	// the pool exists for send-side parallelism, not one-slot-per-request.
	DefaultPoolSize = 4
	// DefaultCallTimeout bounds one request/response exchange. Lookups that
	// time out degrade to compulsory misses.
	DefaultCallTimeout = 2 * time.Second
	// DefaultPutQueue is the bound of the asynchronous put queue. When the
	// queue is full, puts are dropped (and counted), never blocked on: the
	// cache is an optimization.
	DefaultPutQueue = 1024
	// DefaultDrainTimeout bounds how long Close waits for the async put
	// queue to drain before tearing connections down; CloseContext lets the
	// caller pick a different bound.
	DefaultDrainTimeout = time.Second
	// DefaultDialTimeout bounds connection establishment (initial pool fill
	// and reconnects). A blackholed node must fail fast, not hold the dialer
	// for the kernel's multi-minute connect timeout.
	DefaultDialTimeout = 5 * time.Second
	// serverWriteTimeout bounds one response-frame write in the serve loop. A
	// client that stops reading wedges only its own connection goroutine, and
	// only this long.
	serverWriteTimeout = 10 * time.Second
)

// ClientStats are client-side transport counters: how the multiplexed
// protocol is behaving, as opposed to Stats (the remote node's counters).
type ClientStats struct {
	Lookups      uint64 // single-key lookup requests sent
	LookupErrors uint64 // lookups degraded to misses by transport errors
	BatchLookups uint64 // batched lookup requests sent
	BatchKeys    uint64 // total probes carried by batched lookups
	PutsQueued   uint64 // puts accepted into the async queue
	PutsSent     uint64 // puts written to a connection
	PutsDropped  uint64 // puts dropped because the queue was full
	PutErrors    uint64 // puts that failed on every connection
	CallErrors   uint64 // Stats/ResetStats round trips that failed
	Timeouts     uint64 // requests abandoned after DefaultCallTimeout
	Canceled     uint64 // requests abandoned because the caller's context ended
	LateDrops    uint64 // response frames for abandoned request IDs, dropped
	Reconnects   uint64 // connections re-established after a failure
}

// clientCounters is the atomic backing store for ClientStats.
type clientCounters struct {
	lookups, lookupErrors, batchLookups, batchKeys atomic.Uint64
	putsQueued, putsSent, putsDropped, putErrors   atomic.Uint64
	callErrors, timeouts, reconnects               atomic.Uint64
	canceled, lateDrops                            atomic.Uint64
}

// Client is a TCP client for a cache node. It is safe for concurrent use:
// requests are tagged with IDs and multiplexed over a small pool of
// connections, so any number of lookups can be in flight at once, and puts
// are queued and written asynchronously.
type Client struct {
	addr    string
	timeout time.Duration

	conns []*mconn
	rr    atomic.Uint32 // round-robin connection cursor

	putq      chan putItem
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	counters clientCounters
}

type putItem struct {
	frame *wire.Buffer
	ack   chan struct{} // Flush marker when non-nil; frame is ignored
}

// mconn is one multiplexed connection: a writer-side mutex, a pending table
// mapping request IDs to response channels, and a reader goroutine that
// dispatches responses and redials after failures.
type mconn struct {
	cl      *Client
	mu      sync.Mutex // guards conn, pending, nextID, and frame writes
	conn    net.Conn   // nil while disconnected
	pending map[uint32]chan []byte
	nextID  uint32
}

// Dial connects to a cache node. poolSize <= 0 selects DefaultPoolSize.
func Dial(addr string, poolSize int) (*Client, error) {
	if poolSize <= 0 {
		poolSize = DefaultPoolSize
	}
	c := &Client{
		addr:    addr,
		timeout: DefaultCallTimeout,
		putq:    make(chan putItem, DefaultPutQueue),
		closed:  make(chan struct{}),
	}
	// The put sender starts before dialing so the drain step of Close works
	// (and returns immediately) even on a partially constructed client.
	c.wg.Add(1)
	go c.putSender()
	for i := 0; i < poolSize; i++ {
		conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, &mconn{cl: c, conn: conn, pending: make(map[uint32]chan []byte)})
	}
	for _, m := range c.conns {
		c.wg.Add(1)
		go m.run()
	}
	return c, nil
}

// Close drains queued puts for up to DefaultDrainTimeout, then tears down
// the connection pool, failing all in-flight requests and discarding
// whatever the drain deadline left behind. It is the "drain" half of
// removing a node from a running cluster.
func (c *Client) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDrainTimeout)
	defer cancel()
	c.CloseContext(ctx)
}

// CloseContext is Close with a caller-controlled drain deadline: queued
// puts are flushed until ctx expires, then connections come down
// regardless.
func (c *Client) CloseContext(ctx context.Context) {
	c.closeOnce.Do(func() {
		c.drain(ctx)
		close(c.closed)
		for _, m := range c.conns {
			m.mu.Lock()
			if m.conn != nil {
				m.conn.Close()
				m.conn = nil
			}
			for id, ch := range m.pending {
				delete(m.pending, id)
				close(ch)
			}
			m.mu.Unlock()
		}
	})
	c.wg.Wait()
}

// drain waits for the put queue to empty, giving up when ctx ends.
func (c *Client) drain(ctx context.Context) {
	ack := make(chan struct{})
	select {
	case c.putq <- putItem{ack: ack}:
	case <-ctx.Done():
		return
	}
	select {
	case <-ack:
	case <-ctx.Done():
	}
}

// ClientStats snapshots the transport counters.
func (c *Client) ClientStats() ClientStats {
	return ClientStats{
		Lookups:      c.counters.lookups.Load(),
		LookupErrors: c.counters.lookupErrors.Load(),
		BatchLookups: c.counters.batchLookups.Load(),
		BatchKeys:    c.counters.batchKeys.Load(),
		PutsQueued:   c.counters.putsQueued.Load(),
		PutsSent:     c.counters.putsSent.Load(),
		PutsDropped:  c.counters.putsDropped.Load(),
		PutErrors:    c.counters.putErrors.Load(),
		CallErrors:   c.counters.callErrors.Load(),
		Timeouts:     c.counters.timeouts.Load(),
		Canceled:     c.counters.canceled.Load(),
		LateDrops:    c.counters.lateDrops.Load(),
		Reconnects:   c.counters.reconnects.Load(),
	}
}

// newReq starts a request frame with a placeholder request ID that call
// patches once an ID is assigned.
func newReq(op byte) *wire.Buffer {
	e := wire.NewBuffer(op)
	e.U32(0)
	return e
}

// run is the per-connection reader: it dispatches response frames to the
// pending table and owns redialing after a failure. Connection loss is
// logged once per event, not once per affected request.
func (m *mconn) run() {
	defer m.cl.wg.Done()
	backoff := 10 * time.Millisecond
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
			nc, err := net.DialTimeout("tcp", m.cl.addr, DefaultDialTimeout)
			if err != nil {
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
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
			m.mu.Unlock()
			m.cl.counters.reconnects.Add(1)
			log.Printf("cacheserver: reconnected to %s (%d puts dropped, %d put errors so far)",
				m.cl.addr, m.cl.counters.putsDropped.Load(), m.cl.counters.putErrors.Load())
			backoff = 10 * time.Millisecond
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
			m.fail(conn, err)
			continue
		}
		if len(payload) >= 5 {
			id := binary.LittleEndian.Uint32(payload[1:5])
			m.mu.Lock()
			ch := m.pending[id]
			delete(m.pending, id)
			m.mu.Unlock()
			if ch != nil {
				ch <- payload
			} else if id != 0 {
				// A response for a request nobody is waiting on: the caller
				// timed out or its context was cancelled and the pending
				// entry was reclaimed. Count it and drop it — delivering it
				// to a reused ID would cross-wire two requests.
				m.cl.counters.lateDrops.Add(1)
			}
		}
	}
}

// fail tears down a broken connection and fails every request pending on
// it; the reader loop will redial.
func (m *mconn) fail(conn net.Conn, err error) {
	conn.Close()
	m.mu.Lock()
	if m.conn == conn {
		m.conn = nil
	}
	for id, ch := range m.pending {
		delete(m.pending, id)
		close(ch)
	}
	m.mu.Unlock()
	log.Printf("cacheserver: connection to %s lost: %v", m.cl.addr, err)
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

// call sends one request frame and waits for its tagged response. The
// caller's context is honored with per-request granularity: its deadline
// tightens the request timer (never the connection — other requests
// multiplexed on this conn are unaffected), and on cancellation the
// pending-table entry is reclaimed immediately so the request ID can never
// be answered late into someone else's hands (a late frame is counted in
// ClientStats.LateDrops by the reader and dropped).
func (m *mconn) call(ctx context.Context, frame *wire.Buffer) ([]byte, error) {
	timeout, ctxBound := m.cl.timeout, false
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			m.cl.counters.canceled.Add(1)
			return nil, err
		}
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); rem < timeout {
				timeout, ctxBound = rem, true
			}
		}
	}
	m.mu.Lock()
	conn := m.conn
	if conn == nil {
		m.mu.Unlock()
		return nil, errNotConnected
	}
	m.nextID++
	if m.nextID == 0 {
		m.nextID = 1
	}
	id := m.nextID
	ch := make(chan []byte, 1)
	m.pending[id] = ch
	binary.LittleEndian.PutUint32(frame.Bytes()[1:5], id)
	// The write happens under m.mu, so it must be bounded: without a
	// deadline, a peer that stops reading while the TCP window fills would
	// wedge every request on this connection with no timeout (the call
	// timer is only armed after the write). The bound is the effective
	// timeout — clamped by the caller's deadline — so a short-deadline
	// request cannot block the connection (and the writers queued behind
	// it) for the full transport timeout.
	_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	err := frame.WriteFrame(conn)
	if err != nil {
		delete(m.pending, id)
		m.mu.Unlock()
		conn.Close() // reader notices and redials
		return nil, err
	}
	m.mu.Unlock()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	t := getTimer(timeout)
	defer putTimer(t)
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, errConnLost
		}
		return resp, nil
	case <-t.C:
		m.mu.Lock()
		delete(m.pending, id)
		m.mu.Unlock()
		// When the caller's deadline tightened the timer, this is the
		// context's expiry, not the transport's: attribute it to the
		// context so Canceled counts it and errors.Is(err,
		// context.DeadlineExceeded) holds for the caller. (Checked via
		// ctxBound, not ctx.Err(): the pooled timer can fire a beat
		// before the context's own deadline timer flips Err.)
		if ctxBound {
			m.cl.counters.canceled.Add(1)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, context.DeadlineExceeded
		}
		m.cl.counters.timeouts.Add(1)
		return nil, errTimeout
	case <-done:
		m.mu.Lock()
		delete(m.pending, id)
		m.mu.Unlock()
		m.cl.counters.canceled.Add(1)
		return nil, ctx.Err()
	case <-m.cl.closed:
		return nil, errClosed
	}
}

// roundTrip issues the request on a connection chosen round-robin, trying
// each pool member once while connections are down. Context errors are
// terminal: a cancelled request is not retried on another connection.
func (c *Client) roundTrip(ctx context.Context, frame *wire.Buffer) ([]byte, error) {
	start := int(c.rr.Add(1))
	var lastErr error = errNotConnected
	for i := 0; i < len(c.conns); i++ {
		m := c.conns[(start+i)%len(c.conns)]
		resp, err := m.call(ctx, frame)
		if err == nil {
			if len(resp) > 0 && resp[0] == opErr {
				d := wire.NewDecoder(resp)
				d.Op()
				d.U32()
				return nil, errors.New(d.Str())
			}
			return resp, nil
		}
		lastErr = err
		if err == errClosed || err == errTimeout || (ctx != nil && ctx.Err() != nil) {
			break // no point retrying elsewhere
		}
	}
	return nil, lastErr
}

// Lookup implements Node over TCP. Network errors (and cancellation)
// degrade to a compulsory miss: the cache is an optimization, never
// required for correctness.
func (c *Client) Lookup(ctx context.Context, key string, lo, hi, origLo, origHi interval.Timestamp) LookupResult {
	c.counters.lookups.Add(1)
	e := newReq(opLookup)
	e.Str(key).U64(uint64(lo)).U64(uint64(hi)).U64(uint64(origLo)).U64(uint64(origHi))
	resp, err := c.roundTrip(ctx, e)
	if err != nil {
		c.counters.lookupErrors.Add(1)
		return LookupResult{Miss: MissCompulsory}
	}
	d := wire.NewDecoder(resp)
	if d.Op() != opLookupResp {
		c.counters.lookupErrors.Add(1)
		return LookupResult{Miss: MissCompulsory}
	}
	d.U32() // request ID, already matched by the reader
	r, err := decodeLookupResult(d)
	if err != nil {
		c.counters.lookupErrors.Add(1)
		return LookupResult{Miss: MissCompulsory}
	}
	return r
}

// LookupBatch implements Node over TCP: all probes travel in one frame and
// return in one frame, preserving order. Transport errors degrade every
// probe to a compulsory miss.
func (c *Client) LookupBatch(ctx context.Context, reqs []BatchLookup) []LookupResult {
	if len(reqs) == 0 {
		return nil
	}
	if len(reqs) > MaxBatchLookup {
		out := make([]LookupResult, 0, len(reqs))
		for len(reqs) > 0 {
			n := len(reqs)
			if n > MaxBatchLookup {
				n = MaxBatchLookup
			}
			out = append(out, c.LookupBatch(ctx, reqs[:n])...)
			reqs = reqs[n:]
		}
		return out
	}
	c.counters.batchLookups.Add(1)
	c.counters.batchKeys.Add(uint64(len(reqs)))
	e := newReq(opLookupBatch)
	e.U32(uint32(len(reqs)))
	for _, q := range reqs {
		e.Str(q.Key).U64(uint64(q.Lo)).U64(uint64(q.Hi)).U64(uint64(q.OrigLo)).U64(uint64(q.OrigHi))
	}
	miss := func() []LookupResult {
		c.counters.lookupErrors.Add(1)
		out := make([]LookupResult, len(reqs))
		for i := range out {
			out[i] = LookupResult{Miss: MissCompulsory}
		}
		return out
	}
	resp, err := c.roundTrip(ctx, e)
	if err != nil {
		return miss()
	}
	d := wire.NewDecoder(resp)
	if d.Op() != opLookupBatchResp {
		return miss()
	}
	d.U32() // request ID
	n := d.U32()
	if d.Err() != nil || int(n) != len(reqs) {
		return miss()
	}
	out := make([]LookupResult, 0, n)
	for i := uint32(0); i < n; i++ {
		r, err := decodeLookupResult(d)
		if err != nil {
			return miss()
		}
		out = append(out, r)
	}
	return out
}

// Put implements Node over TCP. The put is asynchronous: the frame enters a
// bounded queue drained by a background sender, so the caller never blocks
// on the network. Queue overflow drops the put (PutsDropped); write
// failures on every connection count as PutErrors. Use Flush to wait for
// the queue to drain.
func (c *Client) Put(key string, data []byte, iv interval.Interval, still bool, genSnap interval.Timestamp, tags []invalidation.TagID) {
	e := newReq(opPut) // request ID stays 0: fire-and-forget
	e.Str(key).U64(uint64(iv.Lo)).U64(uint64(iv.Hi)).Bool(still).U64(uint64(genSnap))
	e.U32(uint32(len(tags)))
	for _, id := range tags {
		t := invalidation.TagOf(id)
		e.Str(t.Table).Str(t.Key).Bool(t.Wildcard)
	}
	e.Blob(data)
	select {
	case c.putq <- putItem{frame: e}:
		c.counters.putsQueued.Add(1)
	default:
		c.counters.putsDropped.Add(1)
	}
}

// Flush blocks until every put queued before the call has been written (or
// failed and been counted). It returns early if the client is closed.
//
//lint:allow ctxflow compatibility wrapper; the drain is bounded by client Close, and FlushContext is the ctx-threading API
func (c *Client) Flush() { _ = c.FlushContext(context.Background()) }

// FlushContext is Flush with a drain deadline: it waits for the queue to
// drain until ctx ends, returning the context error if the deadline cut
// the drain short (queued puts are not discarded — the sender keeps
// working; the caller just stops waiting).
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

// putSender drains the async put queue in order.
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
			if err := c.sendAsync(it.frame); err != nil {
				c.counters.putErrors.Add(1)
			} else {
				c.counters.putsSent.Add(1)
			}
		}
	}
}

// sendAsync writes a fire-and-forget frame on the first healthy connection.
func (c *Client) sendAsync(frame *wire.Buffer) error {
	start := int(c.rr.Add(1))
	for i := 0; i < len(c.conns); i++ {
		m := c.conns[(start+i)%len(c.conns)]
		m.mu.Lock()
		conn := m.conn
		if conn == nil {
			m.mu.Unlock()
			continue
		}
		_ = conn.SetWriteDeadline(time.Now().Add(c.timeout))
		err := frame.WriteFrame(conn)
		m.mu.Unlock()
		if err != nil {
			conn.Close() // reader notices and redials
			continue
		}
		return nil
	}
	return errNotConnected
}

// Stats implements Node over TCP. Transport errors return zero stats and
// are counted in ClientStats.CallErrors.
func (c *Client) Stats() Stats {
	// Node's Stats signature has no ctx to thread, so bound the round trip
	// here: a wedged node must not hang a monitoring poll forever.
	ctx, cancel := context.WithTimeout(context.Background(), DefaultCallTimeout)
	defer cancel()
	resp, err := c.roundTrip(ctx, newReq(opStats).Bool(false))
	if err != nil {
		c.counters.callErrors.Add(1)
		return Stats{}
	}
	d := wire.NewDecoder(resp)
	if d.Op() != opStatsResp {
		c.counters.callErrors.Add(1)
		return Stats{}
	}
	d.U32() // request ID
	var st Stats
	st.Lookups = d.U64()
	st.Hits = d.U64()
	st.MissCompulsory = d.U64()
	st.MissConsistency = d.U64()
	st.MissStaleness = d.U64()
	st.MissCapacity = d.U64()
	st.Puts = d.U64()
	st.Invalidations = d.U64()
	st.Invalidated = d.U64()
	st.EvictedCapacity = d.U64()
	st.EvictedStale = d.U64()
	st.BytesUsed = d.I64()
	st.Versions = int(d.I64())
	st.Keys = int(d.I64())
	st.Horizon = interval.Timestamp(d.U64())
	return st
}

// WarmBoot implements the crash-recovery horizon push over TCP: the
// database daemon calls it on every cache node after recovering, before
// resuming the invalidation stream (see Server.WarmBoot for why a plain
// horizon seed is not enough after a crash). Acked like an invalidation
// push — a nil return means the node applied it.
func (c *Client) WarmBoot(ctx context.Context, ts interval.Timestamp, wall time.Time) error {
	e := newReq(opWarmBoot)
	e.U64(uint64(ts)).I64(wall.UnixNano())
	resp, err := c.roundTrip(ctx, e)
	if err != nil {
		return err
	}
	if len(resp) == 0 || resp[0] != opAck {
		return fmt.Errorf("cacheserver: unexpected warm-boot response opcode %d", resp[0])
	}
	return nil
}

// ResetStats implements Node over TCP. Failures are counted in
// ClientStats.CallErrors rather than silently discarded.
func (c *Client) ResetStats() {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultCallTimeout)
	defer cancel()
	if _, err := c.roundTrip(ctx, newReq(opStats).Bool(true)); err != nil {
		c.counters.callErrors.Add(1)
	}
}

// PushInvalidation delivers one stream message to the node (used by the
// database daemon's stream fan-out) and waits for the node's ack: a nil
// return means the node applied (or had already applied) the message. A
// kernel-buffered write is not delivery, so an unacked push must be
// assumed lost — the stream owner retries it until acked; the node
// deduplicates by timestamp, so at-least-once in-order delivery is exactly
// the stream contract. ctx bounds one delivery attempt (the fan-out's
// retry loop passes its shutdown context so a dead node cannot wedge it).
// Pushes always use the first pool connection and the caller is expected
// to be a single goroutine per node, which preserves send order.
func (c *Client) PushInvalidation(ctx context.Context, m invalidation.Message) error {
	// Splice a request-ID placeholder in after the opcode; call assigns it.
	tagged := newReq(opInval).Raw(m.Encode(opInval)[1:])
	resp, err := c.conns[0].call(ctx, tagged)
	if err != nil {
		return err
	}
	if len(resp) == 0 || resp[0] != opAck {
		if len(resp) > 0 && resp[0] == opErr {
			d := wire.NewDecoder(resp)
			d.Op()
			d.U32()
			return errors.New(d.Str())
		}
		return fmt.Errorf("cacheserver: unexpected push response opcode %d", resp[0])
	}
	return nil
}
