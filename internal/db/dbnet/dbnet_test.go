package dbnet

import (
	"context"
	"errors"
	"net"
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
	if err := wire.WriteFrame(raw, wire.NewBuffer(1 /* opBegin */).Bool(false).U64(0).Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(raw); err != nil {
		t.Fatal(err)
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
