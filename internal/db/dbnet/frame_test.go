package dbnet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/rpc/rpctest"
)

// eventuallyUnpinned waits for the engine to hold no pins: transactions end
// with one-way frames, so the server may release a snapshot a moment after
// the client's call returned.
func eventuallyUnpinned(t *testing.T, engine *db.Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for engine.PinnedCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d snapshots still pinned", engine.PinnedCount())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneWritePerFrame joins the two dbnet endpoints by a counted pipe:
// every frame either side sends is one Write, a frame that arrives in one
// piece is one Read, a one-way opAbort draws no reply, Begin sends nothing,
// and a transaction costs one exchange per statement plus, if it writes,
// one for its Commit.
func TestOneWritePerFrame(t *testing.T) {
	engine := db.New(db.Options{})
	if err := engine.DDL(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	ss := &session{Server: &Server{Engine: engine}, txs: make(map[uint64]*db.Tx)}
	rc, client, server := rpctest.Pipe(t, ss.handle, 0)
	cl := newClient(rc, 1)
	defer cl.Close()
	ctx := context.Background()

	snap, _ := cl.PinLatest()
	client.Expect(t, "PinLatest", 1, 1)
	// In every mode Begin sends nothing, and a transaction that ends before
	// its first frame has nothing to end.
	for _, m := range []struct {
		ro   bool
		snap interval.Timestamp
	}{{true, snap}, {true, 0}, {false, 0}} {
		tx, err := cl.Begin(ctx, m.ro, m.snap)
		if err != nil {
			t.Fatal(err)
		}
		client.Expect(t, "Begin", 1, 1)
		tx.Abort()
		client.Expect(t, "Begin and Abort", 1, 1)
	}

	ro, err := cl.Begin(ctx, true, snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ro.Query("SELECT v FROM kv WHERE k = ?", int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	client.Expect(t, "two queries", 3, 3)
	if ts, err := ro.Commit(); err != nil || ts != snap {
		t.Fatalf("read-only commit: %d, %v", ts, err)
	}
	client.Expect(t, "a read-only Commit", 3, 4)

	rw, err := cl.Begin(ctx, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := rw.Snapshot(); s != 0 {
		t.Fatalf("snapshot %d before the daemon has heard of the transaction", s)
	}
	if _, err := rw.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(1), "one"); err != nil {
		t.Fatal(err)
	}
	if s := rw.Snapshot(); s != engine.LastCommit() {
		t.Fatalf("snapshot %d after the first reply, want %d", s, engine.LastCommit())
	}
	if _, err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
	client.Expect(t, "a read/write Begin, Exec, Commit", 5, 6)

	// A read/write transaction that runs nothing begins with its Commit and
	// gets back what an empty commit is: its snapshot.
	rw, err = cl.Begin(ctx, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts, err := rw.Commit(); err != nil || ts != engine.LastCommit() || ts != rw.Snapshot() {
		t.Fatalf("empty commit: %d, %v; snapshot %d, latest %d", ts, err, rw.Snapshot(), engine.LastCommit())
	}
	client.Expect(t, "a read/write Begin, Commit", 6, 7)
	cl.Unpin(snap)
	client.Expect(t, "Unpin", 7, 8)
	server.Expect(t, "8 frames in, 7 out", 8, 7)
	if n := engine.PinnedCount(); n != 0 {
		t.Fatalf("%d snapshots still pinned", n)
	}
}

// TestPinAtATimestamp: opPin with a timestamp adds a reference to a snapshot
// already pinned — here by a transaction, and in the past — and is acked; the
// reference outlives the transaction until its Unpin. A past snapshot nobody
// holds is refused with the engine's error and pins nothing.
func TestPinAtATimestamp(t *testing.T) {
	engine := db.New(db.Options{})
	if err := engine.DDL(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	ss := &session{Server: &Server{Engine: engine}, txs: make(map[uint64]*db.Tx)}
	rc, client, server := rpctest.Pipe(t, ss.handle, 0)
	cl := newClient(rc, 1)
	defer cl.Close()

	ro, err := cl.Begin(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Query("SELECT v FROM kv WHERE k = ?", int64(1)); err != nil {
		t.Fatal(err)
	}
	held := ro.Snapshot()
	w, err := engine.BeginTx(context.Background(), false, 0)
	if err == nil {
		_, err = w.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(1), "one")
	}
	if err == nil {
		_, err = w.Commit()
	}
	if err != nil || engine.LastCommit() <= held {
		t.Fatalf("commit after the snapshot: %v (latest %d, held %d)", err, engine.LastCommit(), held)
	}

	if err := cl.Pin(held); err != nil {
		t.Fatalf("Pin of a snapshot a transaction holds: %v", err)
	}
	client.Expect(t, "a query and a Pin", 2, 2)
	ro.Abort()
	cl.Unpin(held)
	client.Expect(t, "Abort and Unpin", 3, 4)
	if n := engine.PinnedCount(); n != 0 {
		t.Fatalf("%d snapshots pinned after the transaction and the Pin were both undone", n)
	}
	if err := cl.Pin(held); err == nil || !strings.Contains(err.Error(), db.ErrNotPinned.Error()) {
		t.Fatalf("Pin of a past snapshot nobody holds: %v", err)
	}
	client.Expect(t, "a refused Pin", 4, 5)
	server.Expect(t, "5 frames in, 4 out", 5, 4)
	if n := engine.PinnedCount(); n != 0 {
		t.Fatalf("a refused Pin left %d snapshots pinned", n)
	}
}

// TestAbandonedBeginIsAborted: a read/write transaction whose first Exec —
// the frame that carries its Begin — outlives its deadline on a slow TCP
// link (rpctest.Net's Delay on core → db) leaves nothing behind. The client
// chose the transaction's id, so the one-way abort it sends behind the Exec
// ends the transaction the daemon began, and the session goes on to carry
// the next transaction.
func TestAbandonedBeginIsAborted(t *testing.T) {
	engine := db.New(db.Options{})
	if err := engine.DDL(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	nw := new(rpctest.Net)
	l, err := nw.Listen("db")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go (&Server{Engine: engine}).Serve(l)
	nw.Delay("core", "db", 100*time.Millisecond)
	cl, err := DialNet(nw, "core", l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	tx, err := cl.Begin(ctx, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(1), "lost"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first Exec = %v; want the deadline's error", err)
	}
	tx.Abort()
	// The next lease of the same session is ordered behind both frames.
	tx, err = cl.Begin(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(1), "kept"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	eventuallyUnpinned(t, engine)
	if st := cl.rpc.Counters(); st.LateDrops != 1 || st.Reconnects != 0 {
		t.Fatalf("the abandoned reply should have been dropped on a connection left alone: %+v", st)
	}
}

// TestFinishedTxSendsNothing: a statement on a transaction that has ended
// returns ErrTxDone and sends nothing. Its session is back in the pool, and
// a frame sent on it would begin a transaction nobody ends, pinning its
// snapshot until the connection drops.
func TestFinishedTxSendsNothing(t *testing.T) {
	engine, cl := startServer(t)
	ctx := context.Background()
	for _, c := range []struct {
		name       string
		ro, commit bool
	}{
		{"read-only, Abort", true, false},
		{"read-only, Commit", true, true},
		{"read/write, Abort", false, false},
		{"read/write, Commit", false, true},
	} {
		snap, _ := cl.PinLatest()
		at := snap
		if !c.ro {
			at = 0
		}
		tx, err := cl.Begin(ctx, c.ro, at)
		if err != nil {
			t.Fatal(err)
		}
		if !c.commit {
			tx.Abort()
		} else if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		_, qerr := tx.Query("SELECT v FROM kv WHERE k = ?", int64(1))
		_, eerr := tx.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(1), "late")
		cl.Unpin(snap)
		eventuallyUnpinned(t, engine)
		if !errors.Is(qerr, db.ErrTxDone) || !errors.Is(eerr, db.ErrTxDone) {
			t.Fatalf("%s: Query = %v, Exec = %v; want ErrTxDone", c.name, qerr, eerr)
		}
	}
}

// TestOneWayEndKeepsSessionInSync leases one session over and over, ending
// each transaction with a frame nobody answers and starting the next one
// at once: every reply must belong to the request that reads it.
func TestOneWayEndKeepsSessionInSync(t *testing.T) {
	engine, _ := startServer(t)
	cl, err := Dial(serve(t, engine), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	for i := int64(0); i < 200; i++ {
		rw, err := cl.Begin(ctx, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rw.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", i, "v"); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			rw.Abort() // one-way, then straight into the next lease
			continue
		}
		if _, err := rw.Commit(); err != nil {
			t.Fatal(err)
		}

		snap, _ := cl.PinLatest()
		ro, err := cl.Begin(ctx, true, snap)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 != 0 { // every fifth transaction ends without a statement: nothing is sent
			r, err := ro.Query("SELECT k FROM kv WHERE k = ?", i)
			if err != nil || len(r.Rows) != 1 || r.Rows[0][0] != i {
				t.Fatalf("tx %d read %+v, %v", i, r, err)
			}
		}
		if i%2 == 0 {
			ro.Abort()
		} else if ts, err := ro.Commit(); err != nil || ts != snap {
			t.Fatalf("read-only commit %d: %d, %v", i, ts, err)
		}
		cl.Unpin(snap)
	}
	eventuallyUnpinned(t, engine)
}

// TestPiggybackedBeginFailure: a Begin the daemon would refuse succeeds
// locally, and the first statement reports what the Begin would have. The
// session is none the worse for it.
func TestPiggybackedBeginFailure(t *testing.T) {
	engine, cl := startServer(t)
	ctx := context.Background()

	seed, err := cl.Begin(ctx, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(1), "one"); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	tx, err := cl.Begin(ctx, true, 1) // timestamp 1 is neither pinned nor the latest
	if err != nil {
		t.Fatalf("lazy Begin reported %v; it has nothing to report yet", err)
	}
	if _, err := tx.Query("SELECT v FROM kv WHERE k = ?", int64(1)); err == nil || !strings.Contains(err.Error(), db.ErrNotPinned.Error()) {
		t.Fatalf("first statement at an unpinned snapshot: %v", err)
	}
	if _, err := tx.Exec("DELETE FROM kv WHERE k = ?", int64(1)); err == nil {
		t.Fatal("Exec in a read-only transaction succeeded")
	}
	tx.Abort()

	// So is a read/write transaction asked to run in the past.
	tx, err = cl.Begin(ctx, false, 1)
	if err != nil {
		t.Fatalf("lazy Begin reported %v; it has nothing to report yet", err)
	}
	if _, err := tx.Exec("DELETE FROM kv WHERE k = ?", int64(1)); err == nil {
		t.Fatal("a read/write transaction began at a past snapshot")
	}
	tx.Abort()

	// A statement that fails after a good Begin leaves a transaction behind
	// for Abort to end.
	snap, _ := cl.PinLatest()
	tx, err = cl.Begin(ctx, true, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Query("SELECT v FROM nosuch WHERE k = ?", int64(1)); err == nil {
		t.Fatal("query on a missing table succeeded")
	}
	if r, err := tx.Query("SELECT v FROM kv WHERE k = ?", int64(1)); err != nil || len(r.Rows) != 1 {
		t.Fatalf("statement after a failed one: %+v, %v", r, err)
	}
	tx.Abort()

	// A cancelled context before the first statement: nothing was sent and
	// nothing needs ending.
	cctx, cancel := context.WithCancel(ctx)
	tx, err = cl.Begin(cctx, true, snap)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := tx.Query("SELECT v FROM kv WHERE k = ?", int64(1)); err == nil {
		t.Fatal("query on a cancelled context succeeded")
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("commit on a cancelled context succeeded")
	}
	cl.Unpin(snap)
	eventuallyUnpinned(t, engine)
}

// commitAfterBegin is a dbnet client with a writer that always wins the
// race: a commit lands between every read-only Begin and the statement
// that follows it, so the transaction's snapshot is no longer the latest by
// the time the daemon hears of the transaction.
type commitAfterBegin struct {
	*Client
	t      *testing.T
	engine *db.Engine
	n      int64
}

func (d *commitAfterBegin) Begin(ctx context.Context, readOnly bool, snap interval.Timestamp) (core.DBTx, error) {
	tx, err := d.Client.Begin(ctx, readOnly, snap)
	if readOnly {
		d.n++
		w, werr := d.engine.BeginTx(context.Background(), false, 0)
		if werr != nil {
			d.t.Fatal(werr)
		}
		if _, werr := w.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", 1000+d.n, "w"); werr != nil {
			d.t.Fatal(werr)
		}
		if _, werr := w.Commit(); werr != nil {
			d.t.Fatal(werr)
		}
	}
	return tx, err
}

// TestLibraryWithoutPincushion runs the library over dbnet with nothing
// tracking its pins: a read-only transaction runs in the present on the
// snapshot its own session pins when the piggybacked Begin reaches the daemon
// — later commits notwithstanding — and releases it when it ends.
func TestLibraryWithoutPincushion(t *testing.T) {
	engine, cl := startServer(t)
	client := core.NewClient(core.Config{DB: &commitAfterBegin{Client: cl, t: t, engine: engine}})
	ctx := context.Background()
	_, err := client.ReadWrite(ctx, func(tx *core.Tx) error {
		_, err := tx.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(1), "one")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tx, err := client.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tx.Query("SELECT v FROM kv WHERE k = ?", int64(1))
		if err != nil || len(r.Rows) != 1 {
			t.Fatalf("read %d: %+v, %v", i, r, err)
		}
		if i%2 == 0 {
			tx.Abort()
		} else if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	eventuallyUnpinned(t, engine)
}
