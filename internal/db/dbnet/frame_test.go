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
	"txcache/internal/wire"
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
// piece is one Read, a one-way opAbort draws no reply, and a read-only
// transaction at a given snapshot costs one exchange per statement and
// nothing else.
func TestOneWritePerFrame(t *testing.T) {
	engine := db.New(db.Options{})
	if err := engine.DDL(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	ss := &session{Server: &Server{Engine: engine}, txs: make(map[uint64]*db.Tx)}
	rc, client, server := rpctest.Pipe(t, ss.handle, 0)
	cl := newClient(rc, 1)
	defer cl.Close()

	snap, _ := cl.PinLatest()
	client.Expect(t, "PinLatest", 1, 1)
	ro, err := cl.Begin(context.Background(), true, snap)
	if err != nil {
		t.Fatal(err)
	}
	client.Expect(t, "a read-only Begin at a snapshot", 1, 1)
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

	rw, err := cl.Begin(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(1), "one"); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
	client.Expect(t, "a read/write Begin, Exec, Commit", 6, 7)

	rw, err = cl.Begin(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	rw.Abort()
	client.Expect(t, "Begin and Abort", 7, 9)
	cl.Unpin(snap)
	client.Expect(t, "Unpin", 8, 10)
	server.Expect(t, "10 frames in, 8 out", 10, 8)
	if n := engine.PinnedCount(); n != 0 {
		t.Fatalf("%d snapshots still pinned", n)
	}
}

// TestAbandonedBeginIsAborted: a read/write Begin whose caller gives up
// before the reply arrives leaves nothing behind. The client chose the
// transaction's id, so the one-way abort it sends behind the Begin ends the
// transaction the server went on to begin, and the session stays usable.
func TestAbandonedBeginIsAborted(t *testing.T) {
	engine := db.New(db.Options{})
	ss := &session{Server: &Server{Engine: engine}, txs: make(map[uint64]*db.Tx)}
	slowBegin := func(op byte, body []byte) (*wire.Buffer, error) {
		if op == opBegin {
			time.Sleep(50 * time.Millisecond)
		}
		return ss.handle(op, body)
	}
	rc, _, _ := rpctest.Pipe(t, slowBegin, 0)
	cl := newClient(rc, 1)
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if tx, err := cl.Begin(ctx, false, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Begin = %v, %v; want the deadline's error", tx, err)
	}
	// The next lease of the same session is ordered behind both frames; once
	// it has ended too, nothing pins the snapshot the two shared.
	tx, err := cl.Begin(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	eventuallyUnpinned(t, engine)
	if st := rc.Counters(); st.LateDrops != 1 || st.Reconnects != 0 {
		t.Fatalf("the abandoned reply should have been dropped on a connection left alone: %+v", st)
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

// TestPiggybackedBeginFailure: a read-only Begin at a snapshot that is not
// pinned succeeds locally, and the first statement reports what the Begin
// would have. The session is none the worse for it.
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
// tracking its pins: the snapshot a read-only transaction pins for itself
// must stay pinned until the piggybacked Begin has reached the daemon —
// later commits notwithstanding — and be released when the transaction
// ends.
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
