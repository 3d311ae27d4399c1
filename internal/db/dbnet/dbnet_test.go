package dbnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/sql"
	"txcache/internal/wire"
)

func startServer(t *testing.T) (*db.Engine, *Client) {
	t.Helper()
	engine := db.New(db.Options{})
	if err := engine.DDL(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(serve(t, engine), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return engine, cl
}

// serve serves engine on a loopback listener for the test's lifetime and
// returns the address.
func serve(t *testing.T, engine *db.Engine) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go (&Server{Engine: engine}).Serve(l)
	return l.Addr().String()
}

func TestRemoteExecQueryCommit(t *testing.T) {
	_, cl := startServer(t)

	rw, err := cl.Begin(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rw.Exec("INSERT INTO kv (k, v) VALUES (?, ?), (?, ?)", int64(1), "one", int64(2), "two")
	if err != nil || n != 2 {
		t.Fatalf("exec: %d, %v", n, err)
	}
	ts, err := rw.Commit()
	if err != nil || ts == 0 {
		t.Fatalf("commit: %d, %v", ts, err)
	}

	ro, err := cl.Begin(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Abort()
	r, err := ro.Query("SELECT v FROM kv WHERE k = ?", int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != "two" {
		t.Fatalf("rows = %v", r.Rows)
	}
	if !r.StillValid() || len(r.Tags) == 0 {
		t.Fatalf("validity metadata lost over the wire: %v %v", r.Validity, r.Tags)
	}
}

func TestRemoteSerializationError(t *testing.T) {
	_, cl := startServer(t)
	rw, _ := cl.Begin(context.Background(), false, 0)
	rw.Exec("INSERT INTO kv (k, v) VALUES (1, 'x')")
	rw.Commit()

	t1, _ := cl.Begin(context.Background(), false, 0)
	t2, _ := cl.Begin(context.Background(), false, 0)
	t1.Exec("UPDATE kv SET v = 'a' WHERE k = 1")
	t2.Exec("UPDATE kv SET v = 'b' WHERE k = 1")
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Commit(); !errors.Is(err, db.ErrSerialization) {
		t.Fatalf("want ErrSerialization over the wire, got %v", err)
	}
}

func TestRemotePinUnpin(t *testing.T) {
	engine, cl := startServer(t)
	ts, wall := cl.PinLatest()
	if wall.IsZero() {
		t.Fatal("pin failed")
	}
	if engine.PinnedCount() != 1 {
		t.Fatalf("pins = %d", engine.PinnedCount())
	}
	// A read-only transaction at the pinned snapshot works remotely.
	ro, err := cl.Begin(context.Background(), true, ts)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Snapshot() != ts {
		t.Fatalf("snapshot = %d, want %d", ro.Snapshot(), ts)
	}
	ro.Abort()
	cl.Unpin(ts)
	deadline := time.Now().Add(time.Second)
	for engine.PinnedCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if engine.PinnedCount() != 0 {
		t.Fatalf("pins after unpin = %d", engine.PinnedCount())
	}
}

func TestConnectionDropAbortsTx(t *testing.T) {
	engine := db.New(db.Options{})
	if err := engine.DDL(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go (&Server{Engine: engine}).Serve(l)

	// Speak the protocol raw so we can sever the TCP connection while a
	// transaction is open (Client.Close would not touch a leased session).
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Request 1: transaction 1's first Exec, carrying its Begin (read/write,
	// at the latest snapshot).
	first := wire.NewBuffer(opExec | begins).U32(1).U64(1).Bool(false).U64(0).
		Str("INSERT INTO kv (k, v) VALUES (1, 'one')").U32(0)
	if err := wire.WriteFrame(raw, first.Bytes()); err != nil {
		t.Fatal(err)
	}
	if reply, err := wire.ReadFrame(raw); err != nil || reply[0] != opExecResp {
		t.Fatalf("first Exec: %x, %v", reply, err)
	}
	if engine.PinnedCount() != 1 {
		t.Fatalf("expected the open transaction to pin its snapshot")
	}
	raw.Close() // drop mid-transaction

	// The engine-side pin held by the orphaned transaction must be released.
	deadline := time.Now().Add(2 * time.Second)
	for engine.PinnedCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := engine.PinnedCount(); got != 0 {
		t.Fatalf("orphaned transaction still pins %d snapshots", got)
	}
	if n := engine.Stats().Commits; n != 0 {
		t.Fatalf("the orphaned transaction's write was published (%d commits)", n)
	}
}

// openConns is a listener that counts the connections its server has
// accepted and not yet closed.
type openConns struct {
	net.Listener
	n atomic.Int64
}

func (l *openConns) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.n.Add(1)
	return &countedConn{Conn: c, l: l}, nil
}

type countedConn struct {
	net.Conn
	l    *openConns
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.l.n.Add(-1) })
	return c.Conn.Close()
}

// TestCloseClosesLeasedSessions: Close takes down the sessions transactions
// hold as well as the free ones, and a transaction that ends afterwards
// parks nothing: the daemon is left with no connection, and so no goroutine,
// of this client's.
func TestCloseClosesLeasedSessions(t *testing.T) {
	engine := db.New(db.Options{})
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &openConns{Listener: tcp}
	defer l.Close()
	go (&Server{Engine: engine}).Serve(l)
	cl, err := Dial(l.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := cl.Begin(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	tx.Abort() // its lease comes back to a closed client
	deadline := time.Now().Add(2 * time.Second)
	for l.n.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the daemon still holds %d connections after Close", l.n.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if engine.PinnedCount() != 0 {
		t.Fatalf("the dropped transaction still pins %d snapshots", engine.PinnedCount())
	}
}

// TestSessionlessOpsNeedNoLease: PinLatest and Unpin address no session, so
// they go through while transactions hold every one — the release path must
// not wait on the very transactions it is cleaning up after.
func TestSessionlessOpsNeedNoLease(t *testing.T) {
	engine := db.New(db.Options{})
	cl, err := Dial(serve(t, engine), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.Begin(context.Background(), false, 0) // holds the only session
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ts, wall := cl.PinLatest()
		if wall.IsZero() {
			t.Error("PinLatest failed")
		}
		cl.Unpin(ts)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("PinLatest and Unpin waited for a session to come free")
	}
}

// TestClientSatisfiesCoreDB exercises the dbnet client through the TxCache
// library itself.
func TestClientSatisfiesCoreDB(t *testing.T) {
	_, cl := startServer(t)
	var dbIface core.DB = cl
	tx, err := dbIface.Begin(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO kv (k, v) VALUES (9, 'nine')"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, _ := dbIface.Begin(context.Background(), true, 0)
	r, err := ro.Query("SELECT v FROM kv WHERE k = 9")
	ro.Abort()
	if err != nil || len(r.Rows) != 1 {
		t.Fatalf("query through interface: %v %v", r, err)
	}
	_ = sql.Value(nil)
}
