package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/wire"
)

// rpc_test.go covers the transport under all three wire services (DESIGN.md
// "internal/rpc"): what a Call, a Send, a lease and the serve loop do with a
// frame, with a connection that breaks, and with a caller that gives up.
// What each service makes of a reply or a failure is tested in its own
// package.

// Opcodes of the test service.
const (
	opEcho   byte = 1 // answered with opEchoed and the request's body
	opEchoed byte = 2
	opFail   byte = 3 // answered with the error frame
	opNote   byte = 4 // recorded, nothing to say
)

// service is a Handler that echoes, fails and takes notes.
type service struct {
	mu    sync.Mutex
	notes [][]byte
	fails atomic.Int64
}

func (s *service) handle(op byte, body []byte) (*wire.Buffer, error) {
	switch op {
	case opEcho:
		return NewFrame(opEchoed).Raw(body), nil
	case opFail:
		s.fails.Add(1)
		return nil, errors.New("no: " + string(body))
	case opNote:
		s.mu.Lock()
		s.notes = append(s.notes, append([]byte(nil), body...)) // body is the serve loop's again once this returns
		s.mu.Unlock()
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown opcode %d", op)
	}
}

func (s *service) noted() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.notes...)
}

// daemon serves a handler on a loopback listener the test can take down and
// bring back, connections included.
type daemon struct {
	t    testing.TB
	h    Handler
	addr string

	mu    sync.Mutex
	l     net.Listener
	down  bool
	conns []net.Conn
}

func startDaemon(t testing.TB, h Handler) *daemon {
	d := &daemon{t: t, h: h}
	d.listen("127.0.0.1:0")
	t.Cleanup(d.stop)
	return d
}

func (d *daemon) listen(addr string) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		d.t.Fatal(err)
	}
	d.mu.Lock()
	d.l, d.addr, d.down = l, l.Addr().String(), false
	d.mu.Unlock()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			d.mu.Lock()
			if d.down { // accepted as the daemon went down: it goes down too
				conn.Close()
			} else {
				d.conns = append(d.conns, conn)
				go ServeConn(conn, d.h)
			}
			d.mu.Unlock()
		}
	}()
}

// dropConns closes every accepted connection from the daemon's side; new
// dials still succeed.
func (d *daemon) dropConns() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
}

// held counts the connections the daemon has accepted and not dropped.
func (d *daemon) held() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// stop closes the listener and every connection; restart undoes it.
func (d *daemon) stop() {
	d.mu.Lock()
	d.down = true
	d.l.Close()
	d.mu.Unlock()
	d.dropConns()
}

func (d *daemon) restart() { d.listen(d.addr) }

// heldFrame is one request a holdServer read but has not answered.
type heldFrame struct {
	conn  net.Conn
	frame []byte
}

// holdServer accepts connections and parks every request frame on a channel
// instead of answering, so tests control exactly when (and whether) a reply
// arrives.
func holdServer(t *testing.T) (addr string, held <-chan heldFrame) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan heldFrame, 16) // more than any test parks at once
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					req, err := wire.ReadFrame(conn)
					if err != nil {
						return
					}
					ch <- heldFrame{conn: conn, frame: req}
				}
			}()
		}
	}()
	return ln.Addr().String(), ch
}

func dial(t testing.TB, addr string, n int, timeout time.Duration) *Client {
	t.Helper()
	c, err := Dial(TCP, "test", "test", addr, n, timeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// eventually polls cond until it holds, failing the test after 5 seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// echo checks one opEcho round trip.
func echo(ctx context.Context, c interface {
	Call(context.Context, *wire.Buffer) (byte, []byte, error)
}, msg string) error {
	op, body, err := c.Call(ctx, NewFrame(opEcho).Raw([]byte(msg)))
	if err != nil {
		return err
	}
	if op != opEchoed || string(body) != msg {
		return fmt.Errorf("echo of %q came back as opcode %d, %q", msg, op, body)
	}
	return nil
}

// lease takes a connection off c.
func lease(t testing.TB, c *Client) *Conn {
	t.Helper()
	m, err := c.Lease()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pooled counts c's idle and open connections.
func pooled(c *Client) (idle, live int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle), len(c.live)
}

// clientGoroutines returns the stack of every goroutine that is running a
// Client's or a Conn's code.
func clientGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "rpc.(*Conn).") || strings.Contains(g, "rpc.(*Client).") {
			out = append(out, g)
		}
	}
	return out
}

// slowWriteConn returns from each Write a while after the bytes went out,
// as a write into a nearly full socket buffer does.
type slowWriteConn struct {
	net.Conn
	delay time.Duration
}

func (c slowWriteConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	time.Sleep(c.delay)
	return n, err
}

// answer replies to a request a holdServer parked, as the test service.
func answer(t testing.TB, h heldFrame) {
	t.Helper()
	_ = h.conn.SetWriteDeadline(time.Now().Add(time.Second))
	if err := Dispatch((&service{}).handle, h.frame).WriteFrame(h.conn); err != nil {
		t.Error(err)
	}
}

func TestRPC(t *testing.T) {
	bg := context.Background()

	t.Run("ValidFlow", func(t *testing.T) {
		t.Run("CallSendAndAck", func(t *testing.T) {
			svc := &service{}
			c := dial(t, startDaemon(t, svc.handle).addr, 2, time.Second)
			if err := echo(bg, c, "hello"); err != nil {
				t.Fatal(err)
			}
			// A handler with nothing to say: acked when asked, silent when not.
			if op, body, err := c.Call(bg, NewFrame(opNote).Raw([]byte("called"))); err != nil || op != OpAck || len(body) != 0 {
				t.Fatalf("Call of a silent opcode = %d, %q, %v; want a bare ack", op, body, err)
			}
			m := lease(t, c)
			if err := m.Send(NewFrame(opNote).Raw([]byte("sent"))); err != nil {
				t.Fatal(err)
			}
			// A reply on the same connection proves the one-way frame was
			// consumed first, and that nothing came back for it.
			if err := echo(bg, m, "after"); err != nil {
				t.Fatal(err)
			}
			c.Release(m)
			if got := svc.noted(); len(got) != 2 || string(got[0]) != "called" || string(got[1]) != "sent" {
				t.Fatalf("handler noted %q", got)
			}
			if st := c.Counters(); st != (Stats{}) {
				t.Fatalf("a quiet run counted %+v", st)
			}
		})

		t.Run("ReconnectAndErrorCounting", func(t *testing.T) {
			svc := &service{}
			d := startDaemon(t, svc.handle)
			c := dial(t, d.addr, 2, time.Second)
			if err := echo(bg, c, "warm"); err != nil {
				t.Fatal(err)
			}
			// Dial returns once both connections are made, which may be
			// before the daemon has taken the second: one it drops must be
			// all there are.
			eventually(t, "the daemon to hold both connections", func() bool { return d.held() == 2 })
			d.dropConns()
			// A call on a connection the peer dropped fails — promptly,
			// never blocking — and closes it; once none is left the next
			// lease dials, and calls work again.
			var failed int
			eventually(t, "the client to recover", func() bool {
				if c.Send(NewFrame(opNote)) != nil {
					failed++
				}
				if echo(bg, c, "again") != nil {
					failed++
					return false
				}
				return c.Counters().Reconnects >= 1
			})
			if failed == 0 {
				t.Fatalf("the outage left no error trace: %+v", c.Counters())
			}
		})

		t.Run("PoolSurvivesOutage", func(t *testing.T) {
			before := runtime.NumGoroutine()
			const poolSize = 3
			svc := &service{}
			d := startDaemon(t, svc.handle)
			c, err := Dial(TCP, "test", "test", d.addr, poolSize, time.Second)
			if err != nil {
				t.Fatal(err)
			}

			failAll := func() {
				d.stop()
				for i := 0; i < poolSize; i++ {
					if err := echo(bg, c, "x"); err == nil {
						t.Fatal("a call on a dead connection succeeded")
					}
				}
			}
			failAll()
			// Every connection is closed, and a lease's dial fails: a call
			// fails at once, whatever its deadline.
			start := time.Now()
			if err := echo(bg, c, "x"); err == nil || time.Since(start) > time.Second {
				t.Fatalf("call with the daemon down: %v after %v", err, time.Since(start))
			}

			d.restart()
			if err := echo(bg, c, "back"); err != nil {
				t.Fatalf("first call after the outage: %v", err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 2*poolSize; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := echo(bg, c, "back"); err != nil {
						t.Errorf("after the outage: %v", err)
					}
				}()
			}
			wg.Wait()
			// The dials replaced what was lost and no more: a dial beyond
			// that is the pool growing, which is no reconnect.
			if r := c.Counters().Reconnects; r < 1 || r > poolSize {
				t.Fatalf("%d reconnects for %d lost connections", r, poolSize)
			}

			// Second outage, and Close with the daemon still down.
			failAll()
			start = time.Now()
			c.Close()
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("Close took %v with the daemon down", took)
			}
			eventually(t, "goroutines to exit after Close", func() bool { return runtime.NumGoroutine() <= before })
		})
	})

	t.Run("RejectionFlow", func(t *testing.T) {
		t.Run("HandlerErrorIsFinal", func(t *testing.T) {
			svc := &service{}
			c := dial(t, startDaemon(t, svc.handle).addr, 3, time.Second)
			_, _, err := c.Call(bg, NewFrame(opFail).Raw([]byte("thanks")))
			var remote RemoteError
			if !errors.As(err, &remote) || remote != "no: thanks" {
				t.Fatalf("Call = %v, want the handler's error", err)
			}
			if n := svc.fails.Load(); n != 1 {
				t.Fatalf("the failing request ran %d times: an error reply must not move it to the next connection", n)
			}
			if _, _, err := c.Call(bg, NewFrame(99)); !errors.As(err, &remote) {
				t.Fatalf("unknown opcode: %v", err)
			}
		})

		t.Run("LossAfterSendIsFinal", func(t *testing.T) {
			// The peer takes the request and drops the connection: it may
			// have applied it, so it must not go out again on the next one.
			addr, held := holdServer(t)
			c := dial(t, addr, 3, time.Second)
			done := make(chan error, 1)
			go func() { done <- echo(bg, c, "once") }()
			(<-held).conn.Close()
			if err := <-done; !errors.Is(err, errConnLost) {
				t.Fatalf("Call = %v, want the connection's loss", err)
			}
			select {
			case h := <-held:
				t.Fatalf("the request went out again: %x", h.frame)
			case <-time.After(20 * time.Millisecond):
			}
		})

		t.Run("CancelReclaimsPendingAndCountsLateFrame", func(t *testing.T) {
			addr, held := holdServer(t)
			c := dial(t, addr, 1, time.Second)
			ctx, cancel := context.WithCancel(bg)
			done := make(chan error, 1)
			go func() { done <- echo(ctx, c, "late") }()

			var h heldFrame
			select {
			case h = <-held:
			case <-time.After(2 * time.Second):
				t.Fatal("request never reached the server")
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Call = %v, want the context's error", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Call did not return promptly on cancel")
			}
			if st := c.Counters(); st.Canceled != 1 || st.Timeouts != 0 {
				t.Fatalf("stats after cancel: %+v", st)
			}
			if idle, live := pooled(c); idle != 1 || live != 1 {
				t.Fatalf("after cancel: %d idle of %d connections, want the one back in the pool", idle, live)
			}

			// The answer arrives late, for the abandoned request ID. The
			// next call on the connection must drop and count it, and get
			// its own.
			answer(t, h)
			go func() { answer(t, <-held) }()
			if err := echo(bg, c, "next"); err != nil {
				t.Fatal(err)
			}
			if st := c.Counters(); st.LateDrops != 1 || st.Reconnects != 0 {
				t.Fatalf("stats after the late reply: %+v", st)
			}
		})

		t.Run("CancelDuringTheWriteEndsTheCall", func(t *testing.T) {
			// The caller's context ends while the request is being written.
			// The call must end as the write does, not wait out the
			// client's default on a read deadline armed after the cancel.
			addr, _ := holdServer(t)
			c, err := NewClient("test", 1, 2*time.Second, func() (net.Conn, error) {
				nc, err := TCP.Dial("test", addr)
				return slowWriteConn{nc, 50 * time.Millisecond}, err
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			ctx, cancel := context.WithCancel(bg)
			defer time.AfterFunc(10*time.Millisecond, cancel).Stop()
			start := time.Now()
			if err := echo(ctx, c, "x"); !errors.Is(err, context.Canceled) {
				t.Fatalf("Call = %v, want the context's error", err)
			}
			if took := time.Since(start); took > 500*time.Millisecond {
				t.Fatalf("a call cancelled during its write returned after %v", took)
			}
		})

		t.Run("SendIsBoundedByTheDefault", func(t *testing.T) {
			// A peer that stopped reading costs a one-way frame the client's
			// default, and the frame is not sent again on another connection.
			addr, _ := holdServer(t) // parks sixteen frames, then reads no more
			c := dial(t, addr, 1, 200*time.Millisecond)
			big := make([]byte, 1<<20)
			for i := 0; ; i++ {
				if i == 64 {
					t.Fatal("64 MiB went out to a peer that reads none of it")
				}
				start := time.Now()
				err := c.Send(NewFrame(opNote).Raw(big))
				if took := time.Since(start); took > time.Second {
					t.Fatalf("Send took %v with a 200ms default", took)
				}
				if err != nil {
					if !errors.Is(err, errTimeout) {
						t.Fatalf("Send = %v, want the client's timeout", err)
					}
					break
				}
			}
			if idle, live := pooled(c); idle != 0 || live != 0 {
				t.Fatalf("after the timeout: %d idle of %d connections, want the one closed and none dialed", idle, live)
			}
		})

		t.Run("DeadlineMapsToRequestTimer", func(t *testing.T) {
			addr, held := holdServer(t)
			c := dial(t, addr, 1, time.Minute)
			ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := echo(ctx, c, "k")
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Call = %v, want the deadline's error", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("deadline took %v to fire, want ~50ms", elapsed)
			}
			<-held // the request did reach the server
			// The expiry is the context's, not the transport's, and the
			// connection is still alive: no reconnect happened, and a fresh
			// request goes out on it.
			if st := c.Counters(); st.Canceled != 1 || st.Timeouts != 0 || st.Reconnects != 0 {
				t.Fatalf("stats after a deadline expiry: %+v", st)
			}
			go echo(bg, c, "k2")
			select {
			case <-held:
			case <-time.After(2 * time.Second):
				t.Fatal("connection unusable after per-request deadline")
			}
			// An already-expired deadline sends nothing at all.
			expired, cancel2 := context.WithDeadline(bg, time.Now().Add(-time.Second))
			defer cancel2()
			if err := echo(expired, c, "k3"); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Call on an expired context = %v", err)
			}
			select {
			case h := <-held:
				t.Fatalf("a request went out on an expired context: %x", h.frame)
			case <-time.After(20 * time.Millisecond):
			}
		})

		t.Run("AbandonedAtDeadlineKeepsItsConnection", func(t *testing.T) {
			// The client's default bound ends a call the peer is slow to
			// answer. The connection goes back to the pool owing the reply,
			// and the next call on it skips that reply for its own.
			slow := func(op byte, body []byte) (*wire.Buffer, error) {
				if string(body) == "slow" {
					time.Sleep(100 * time.Millisecond)
				}
				return (&service{}).handle(op, body)
			}
			c := dial(t, startDaemon(t, slow).addr, 1, 20*time.Millisecond)
			if err := echo(bg, c, "slow"); !errors.Is(err, errTimeout) {
				t.Fatalf("Call = %v, want the client's timeout", err)
			}
			if idle, live := pooled(c); idle != 1 || live != 1 {
				t.Fatalf("after the timeout: %d idle of %d connections", idle, live)
			}
			time.Sleep(150 * time.Millisecond) // the late reply is in
			ctx, cancel := context.WithTimeout(bg, 5*time.Second)
			defer cancel()
			if err := echo(ctx, c, "next"); err != nil {
				t.Fatal(err)
			}
			if st := c.Counters(); st != (Stats{Timeouts: 1, LateDrops: 1}) {
				t.Fatalf("stats %+v, want one timeout and one late drop", st)
			}
		})

		t.Run("CloseFailsABlockedRead", func(t *testing.T) {
			addr, held := holdServer(t)
			c := dial(t, addr, 1, 0)
			done := make(chan error, 1)
			go func() { done <- echo(bg, c, "x") }()
			<-held
			c.Close()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("a call outlived Close with a reply")
				}
			case <-time.After(time.Second):
				t.Fatal("a call blocked in its read outlived Close")
			}
		})

		t.Run("AfterClose", func(t *testing.T) {
			svc := &service{}
			c := dial(t, startDaemon(t, svc.handle).addr, 2, time.Second)
			c.Close()
			c.Close() // twice is once
			if err := echo(bg, c, "x"); err == nil {
				t.Fatal("Call on a closed client succeeded")
			}
			if err := c.Send(NewFrame(opNote)); err == nil {
				t.Fatal("Send on a closed client succeeded")
			}
			if m, err := c.Lease(); err == nil {
				t.Fatalf("Lease on a closed client returned %p", m)
			}
		})

		t.Run("CloseFailsAWriteToAPeerThatStoppedReading", func(t *testing.T) {
			addr, _ := holdServer(t) // parks sixteen frames, then reads no more
			c := dial(t, addr, 1, 0) // no default: only writeTimeout bounds a Send
			var sends atomic.Int64
			stopped := make(chan error, 1)
			go func() {
				big := make([]byte, 1<<20)
				for {
					if err := c.Send(NewFrame(opNote).Raw(big)); err != nil {
						stopped <- err
						return
					}
					sends.Add(1)
				}
			}()
			// The writer is stuck once the socket buffers are full too.
			for n := int64(-1); n != sends.Load(); time.Sleep(200 * time.Millisecond) {
				n = sends.Load()
			}
			start := time.Now()
			c.Close()
			if took := time.Since(start); took > writeTimeout/2 {
				t.Fatalf("Close waited %v behind a write that could not finish", took)
			}
			select {
			case <-stopped:
			case <-time.After(time.Second):
				t.Fatal("the stuck Send outlived Close")
			}
		})

		t.Run("DialFailure", func(t *testing.T) {
			d := startDaemon(t, (&service{}).handle)
			d.stop()
			if c, err := Dial(TCP, "test", "test", d.addr, 2, time.Second); err == nil {
				c.Close()
				t.Fatal("Dial of a dead address succeeded")
			}
		})
	})

	t.Run("Table", func(t *testing.T) {
		t.Run("Dispatch", func(t *testing.T) {
			frame := func(op byte, id uint32, body string) []byte {
				return wire.NewBuffer(op).U32(id).Raw([]byte(body)).Bytes()
			}
			for _, tc := range []struct {
				name   string
				req    []byte
				wantOp byte   // of the reply; 0 = no reply
				want   string // its body; of an error frame, the message
			}{
				{"request is answered under its ID", frame(opEcho, 7, "abc"), opEchoed, "abc"},
				{"silent opcode is acked", frame(opNote, 8, "n"), OpAck, ""},
				{"error travels as the error frame", frame(opFail, 9, "x"), OpErr, "no: x"},
				{"unknown opcode is an error", frame(77, 9, ""), OpErr, "unknown opcode 77"},
				{"one-way request draws nothing", frame(opEcho, 0, "abc"), 0, ""},
				{"one-way failure draws nothing", frame(opFail, 0, "x"), 0, ""},
				{"header cut short", []byte{opEcho, 1, 0}, 0, ""},
				{"empty frame", nil, 0, ""},
			} {
				t.Run(tc.name, func(t *testing.T) {
					svc := &service{}
					resp := Dispatch(svc.handle, tc.req)
					if tc.wantOp == 0 {
						if resp != nil {
							t.Fatalf("answered with %x", resp.Bytes())
						}
						return
					}
					if resp == nil {
						t.Fatal("no reply")
					}
					b := resp.Bytes()
					body := string(b[headerLen:])
					if b[0] == OpErr {
						body = wire.NewDecoder(b[headerLen:]).Str()
					}
					if b[0] != tc.wantOp || !bytes.Equal(b[1:headerLen], tc.req[1:headerLen]) || body != tc.want {
						t.Fatalf("reply %x, want opcode %d, the request's ID and %q", b, tc.wantOp, tc.want)
					}
				})
			}
		})

		t.Run("CallBound", func(t *testing.T) {
			// What bounds a Call nobody answers: the tighter of the client's
			// default and the caller's deadline, and which of them is blamed.
			for _, tc := range []struct {
				name     string
				def, ctx time.Duration // 0 = none
				want     error
				wantSt   Stats
			}{
				{"default alone", 30 * time.Millisecond, 0, errTimeout, Stats{Timeouts: 1}},
				{"default tighter than the deadline", 30 * time.Millisecond, time.Minute, errTimeout, Stats{Timeouts: 1}},
				{"deadline tighter than the default", time.Minute, 30 * time.Millisecond, context.DeadlineExceeded, Stats{Canceled: 1}},
				{"deadline alone", 0, 30 * time.Millisecond, context.DeadlineExceeded, Stats{Canceled: 1}},
			} {
				t.Run(tc.name, func(t *testing.T) {
					addr, _ := holdServer(t)
					c := dial(t, addr, 1, tc.def)
					ctx := bg
					if tc.ctx != 0 {
						var cancel context.CancelFunc
						ctx, cancel = context.WithTimeout(bg, tc.ctx)
						defer cancel()
					}
					start := time.Now()
					if err := echo(ctx, c, "x"); !errors.Is(err, tc.want) {
						t.Fatalf("Call = %v, want %v", err, tc.want)
					}
					if took := time.Since(start); took > 5*time.Second {
						t.Fatalf("the bound took %v to fire", took)
					}
					if st := c.Counters(); st != tc.wantSt {
						t.Fatalf("stats %+v, want %+v", st, tc.wantSt)
					}
				})
			}
			t.Run("neither: the caller's cancel ends it", func(t *testing.T) {
				addr, held := holdServer(t)
				c := dial(t, addr, 1, 0)
				ctx, cancel := context.WithCancel(bg)
				done := make(chan error, 1)
				go func() { done <- echo(ctx, c, "x") }()
				<-held
				select {
				case err := <-done:
					t.Fatalf("an unbounded Call returned %v on its own", err)
				case <-time.After(100 * time.Millisecond):
				}
				cancel()
				if err := <-done; !errors.Is(err, context.Canceled) {
					t.Fatalf("Call = %v", err)
				}
			})
		})
	})

	t.Run("ConcurrentFlow", func(t *testing.T) {
		t.Run("ConcurrentCallsLeaseTheirOwn", func(t *testing.T) {
			// 64 calls at once on a client dialed with four connections:
			// each leases one of its own, dialed when none is idle, and the
			// client runs no goroutine for any of them.
			svc := &service{}
			d := startDaemon(t, svc.handle)
			c := dial(t, d.addr, 4, 5*time.Second)
			var wg sync.WaitGroup
			start := make(chan struct{})
			for g := 0; g < 64; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 20; i++ {
						if err := echo(bg, c, fmt.Sprintf("g%d i%d", g, i)); err != nil {
							t.Error(err) // a reply crossed over to another call
							return
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			idle, live := pooled(c)
			if live < 4 || live > 64 || idle != live {
				t.Fatalf("%d connections, %d idle: want 4 to 64, all back in the pool", live, idle)
			}
			if g := clientGoroutines(); len(g) != 0 {
				t.Fatalf("the client left goroutines running:\n%s", strings.Join(g, "\n\n"))
			}
			if st := c.Counters(); st != (Stats{}) {
				t.Fatalf("a quiet run counted %+v", st)
			}
		})

		t.Run("ClientRunsNoGoroutine", func(t *testing.T) {
			// A client with four connections, one of them waiting for a
			// reply: the one goroutine in the client's code is the caller.
			addr, held := holdServer(t)
			c := dial(t, addr, 4, 0)
			ctx, cancel := context.WithCancel(bg)
			done := make(chan error, 1)
			go func() { done <- echo(ctx, c, "x") }()
			<-held
			var g []string
			deadline := time.Now().Add(time.Second)
			for g = clientGoroutines(); len(g) != 1 || !strings.Contains(g[0], "rpc.(*Conn).await"); g = clientGoroutines() {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines in the client's code:\n%s", strings.Join(g, "\n\n"))
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
			<-done
		})

		t.Run("SendOnOneConnectionIsNeverOvertaken", func(t *testing.T) {
			// Each goroutine leases a connection and sends a numbered
			// sequence one-way on it, with calls on the same lease and on
			// the pool in between: the handler must see every goroutine's
			// notes in the order they were sent.
			const senders, each = 8, 200
			svc := &service{}
			c := dial(t, startDaemon(t, svc.handle).addr, 3, 5*time.Second)
			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					m := lease(t, c)
					defer c.Release(m)
					for i := 0; i < each; i++ {
						if err := m.Send(NewFrame(opNote).U32(uint32(g)).U32(uint32(i))); err != nil {
							t.Error(err)
							return
						}
						if i%10 == 0 {
							if err := echo(bg, c, "between"); err != nil {
								t.Error(err)
							}
						}
					}
					if err := echo(bg, m, "flush"); err != nil { // behind every note of this lease
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			next := make([]uint32, senders)
			for _, n := range svc.noted() {
				g, i := binary.LittleEndian.Uint32(n), binary.LittleEndian.Uint32(n[4:])
				if i != next[g] {
					t.Fatalf("sender %d: note %d arrived where %d was due", g, i, next[g])
				}
				next[g]++
			}
			for g, n := range next {
				if n != each {
					t.Fatalf("sender %d: %d of %d notes arrived", g, n, each)
				}
			}
		})

		t.Run("CancelAfterReplyLeavesNoPastDeadline", func(t *testing.T) {
			// The handler cancels the caller's context as it answers, so
			// the cancellation races the reply; whichever wins, the next
			// call on the one connection — nothing bounds it — must not
			// meet a deadline the cancellation left behind.
			var cancelNext atomic.Pointer[context.CancelFunc]
			h := func(op byte, body []byte) (*wire.Buffer, error) {
				if f := cancelNext.Swap(nil); f != nil {
					(*f)()
				}
				return (&service{}).handle(op, body)
			}
			c := dial(t, startDaemon(t, h).addr, 1, 0)
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithCancel(bg)
				cancelNext.Store(&cancel)
				if err := echo(ctx, c, "racing"); err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("race %d: %v", i, err)
				}
				if err := echo(bg, c, "after"); err != nil {
					t.Fatalf("the call after race %d: %v", i, err)
				}
			}
			if st := c.Counters(); st.Timeouts != 0 || st.Reconnects != 0 {
				t.Fatalf("stats %+v", st)
			}
		})

		t.Run("CallsDuringDropsFailOrSucceedNeverCross", func(t *testing.T) {
			svc := &service{}
			d := startDaemon(t, svc.handle)
			c := dial(t, d.addr, 2, time.Second)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var ok atomic.Int64
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						err := echo(bg, c, fmt.Sprintf("g%d i%d", g, i))
						var remote RemoteError
						switch {
						case err == nil:
							ok.Add(1)
						case errors.Is(err, errConnLost), errors.Is(err, errNotConnected):
						case errors.As(err, &remote):
							t.Errorf("handler error out of nowhere: %v", err)
						default:
							t.Error(err) // a mismatched echo, or a timeout: a reply was lost
						}
					}
				}()
			}
			for i := 0; i < 5; i++ {
				time.Sleep(20 * time.Millisecond)
				d.dropConns()
			}
			eventually(t, "calls to succeed again", func() bool { return echo(bg, c, "settled") == nil })
			close(stop)
			wg.Wait()
			if ok.Load() == 0 {
				t.Fatal("no call succeeded")
			}
		})
	})
}
