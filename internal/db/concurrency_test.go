package db

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/sql"
)

// concurrency_test.go exercises the per-table locking architecture and the
// pipelined commit sequencer under -race: disjoint and overlapping commit
// write sets, readers overlapping vacuum and commits, cross-table snapshot
// atomicity, and invalidation-stream ordering.

// newShardedEngine builds an engine with n single-column-keyed tables
// shard0..shard{n-1}.
func newShardedEngine(t testing.TB, n int, bus *invalidation.Bus) *Engine {
	t.Helper()
	e := New(Options{Bus: bus})
	for i := 0; i < n; i++ {
		if err := e.DDL(fmt.Sprintf(`CREATE TABLE shard%d (id BIGINT PRIMARY KEY, v BIGINT)`, i)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestParallelCommitsDisjointTables(t *testing.T) {
	const (
		workers = 8
		perW    = 50
	)
	bus := invalidation.NewBus(true)
	e := newShardedEngine(t, workers, bus)
	base := e.LastCommit()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf("INSERT INTO shard%d (id, v) VALUES (?, ?)", w)
			for i := 0; i < perW; i++ {
				tx, err := e.BeginTx(context.Background(), false, 0)
				if err != nil {
					errs <- err
					return
				}
				if _, err := tx.Exec(src, int64(i), int64(i)); err != nil {
					tx.Abort()
					errs <- err
					return
				}
				ts, err := tx.Commit()
				if err != nil {
					errs <- err
					return
				}
				// Read-your-writes: a snapshot taken after Commit returns
				// must include the commit.
				if got := e.LastCommit(); got < ts {
					errs <- fmt.Errorf("commit %d returned before it was published (watermark %d)", ts, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Disjoint commits must never conflict, and every commit must have
	// gotten a distinct timestamp with no gaps.
	if c := e.Stats().Conflicts; c != 0 {
		t.Fatalf("disjoint-table commits reported %d conflicts", c)
	}
	want := base + workers*perW
	if got := e.LastCommit(); got != want {
		t.Fatalf("last commit = %d, want %d (dense timestamps)", got, want)
	}
	for w := 0; w < workers; w++ {
		r := queryAt(t, e, 0, fmt.Sprintf("SELECT COUNT(*) FROM shard%d", w))
		if r.Rows[0][0] != int64(perW) {
			t.Fatalf("shard%d has %v rows, want %d", w, r.Rows[0][0], perW)
		}
	}

	// The invalidation stream must carry exactly one message per commit,
	// strictly ordered by timestamp with no gaps.
	sub := bus.Subscribe() // history replays: bus was created with keepHistory
	defer sub.Close()
	for ts := base + 1; ts <= want; ts++ {
		m := <-sub.C
		if m.TS != ts {
			t.Fatalf("invalidation stream out of order: got ts %d, want %d", m.TS, ts)
		}
	}
}

func TestParallelCommitsOverlappingTables(t *testing.T) {
	const (
		workers = 8
		perW    = 30
	)
	e := newShardedEngine(t, 1, nil)
	mustExec(t, e, "INSERT INTO shard0 (id, v) VALUES (1, 0)")

	var committed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// First-committer-wins: retry until our increment lands.
				for {
					tx, err := e.BeginTx(context.Background(), false, 0)
					if err != nil {
						errs <- err
						return
					}
					r, err := tx.Query("SELECT v FROM shard0 WHERE id = 1")
					if err != nil {
						tx.Abort()
						errs <- err
						return
					}
					next := r.Rows[0][0].(int64) + 1
					if _, err := tx.Exec("UPDATE shard0 SET v = ? WHERE id = 1", next); err != nil {
						tx.Abort()
						errs <- err
						return
					}
					_, err = tx.Commit()
					if err == nil {
						committed.Add(1)
						break
					}
					if !errors.Is(err, ErrSerialization) {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every successful increment must be serialized: the counter equals
	// the number of successful commits, with no lost updates.
	want := int64(workers * perW)
	if got := committed.Load(); got != want {
		t.Fatalf("committed %d increments, want %d", got, want)
	}
	r := queryAt(t, e, 0, "SELECT v FROM shard0 WHERE id = 1")
	if r.Rows[0][0] != want {
		t.Fatalf("counter = %v, want %d (lost update)", r.Rows[0][0], want)
	}
}

// TestSnapshotAtomicAcrossTables verifies that a reader never observes a
// half-published multi-table commit: a writer keeps two tables equal in
// one transaction, and a joining reader must always see them equal.
func TestSnapshotAtomicAcrossTables(t *testing.T) {
	e := newShardedEngine(t, 2, nil)
	mustExec(t, e, "INSERT INTO shard0 (id, v) VALUES (1, 0)")
	mustExec(t, e, "INSERT INTO shard1 (id, v) VALUES (1, 0)")

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	readerDone := make(chan error, 1)
	go func() {
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			tx, err := e.BeginTx(context.Background(), false, 0)
			if err != nil {
				writerDone <- err
				return
			}
			if _, err := tx.Exec("UPDATE shard0 SET v = ? WHERE id = 1", i); err != nil {
				tx.Abort()
				writerDone <- err
				return
			}
			if _, err := tx.Exec("UPDATE shard1 SET v = ? WHERE id = 1", i); err != nil {
				tx.Abort()
				writerDone <- err
				return
			}
			if _, err := tx.Commit(); err != nil {
				writerDone <- err
				return
			}
		}
	}()
	go func() {
		for i := 0; i < 300; i++ {
			tx, err := e.BeginTx(context.Background(), true, 0)
			if err != nil {
				readerDone <- err
				return
			}
			r, err := tx.Query("SELECT a.v, b.v FROM shard0 a JOIN shard1 b ON a.id = b.id")
			tx.Abort()
			if err != nil {
				readerDone <- err
				return
			}
			if len(r.Rows) != 1 || !sql.Equal(r.Rows[0][0], r.Rows[0][1]) {
				readerDone <- fmt.Errorf("torn snapshot: %v", r.Rows)
				return
			}
		}
		readerDone <- nil
	}()
	rerr := <-readerDone // bounded: always finishes
	close(stop)
	werr := <-writerDone
	if rerr != nil {
		t.Fatal(rerr)
	}
	if werr != nil {
		t.Fatal(werr)
	}
}

// TestReadersDuringVacuumAndCommits runs pinned and latest-snapshot
// readers against one table while commits churn it and another table, and
// Vacuum sweeps continuously.
func TestReadersDuringVacuumAndCommits(t *testing.T) {
	e := newShardedEngine(t, 2, nil)
	mustExec(t, e, "INSERT INTO shard0 (id, v) VALUES (1, 0), (2, 0), (3, 0)")

	const readers = 4
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bgErrs := make(chan error, 2) // writer and vacuum report only failures
	readerErrs := make(chan error, readers)

	// Writer: churn both tables so vacuum has versions to reclaim.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := e.BeginTx(context.Background(), false, 0)
			if err != nil {
				bgErrs <- err
				return
			}
			tx.Exec("UPDATE shard0 SET v = ? WHERE id = ?", i, i%3+1)
			tx.Exec("INSERT INTO shard1 (id, v) VALUES (?, ?)", i, i)
			if _, err := tx.Commit(); err != nil {
				bgErrs <- err
				return
			}
		}
	}()
	// Vacuum loop.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Vacuum()
			time.Sleep(time.Millisecond)
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			for i := 0; i < 400; i++ {
				// Pin a snapshot the way the cache library does, query at
				// it, then release.
				snap, _ := e.PinLatest()
				tx, err := e.BeginTx(context.Background(), true, snap)
				if err != nil {
					e.Unpin(snap)
					readerErrs <- err
					return
				}
				res, err := tx.Query("SELECT COUNT(*) FROM shard0 WHERE v >= 0")
				tx.Abort()
				e.Unpin(snap)
				if err != nil {
					readerErrs <- err
					return
				}
				if res.Rows[0][0] != int64(3) {
					readerErrs <- fmt.Errorf("reader saw %v rows of shard0, want 3", res.Rows[0][0])
					return
				}
			}
			readerErrs <- nil
		}()
	}

	var firstErr error
	for i := 0; i < readers; i++ {
		if err := <-readerErrs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	close(stop)
	bg.Wait()
	close(bgErrs)
	for err := range bgErrs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}

// TestCreateIndexDuringTraffic backfills an index while readers and a
// writer use the table; afterwards the index must serve lookups.
func TestCreateIndexDuringTraffic(t *testing.T) {
	e := newShardedEngine(t, 1, nil)
	for i := 0; i < 20; i++ {
		mustExec(t, e, "INSERT INTO shard0 (id, v) VALUES (?, ?)", int64(i), int64(i%5))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(100); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := e.BeginTx(context.Background(), false, 0)
			if err != nil {
				errs <- err
				return
			}
			if _, err := tx.Exec("INSERT INTO shard0 (id, v) VALUES (?, ?)", i, i%5); err != nil {
				tx.Abort()
				errs <- err
				return
			}
			if _, err := tx.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := e.BeginTx(context.Background(), true, 0)
			if err != nil {
				errs <- err
				return
			}
			if _, err := tx.Query("SELECT COUNT(*) FROM shard0 WHERE v = 3"); err != nil {
				tx.Abort()
				errs <- err
				return
			}
			tx.Abort()
		}
	}()
	if err := e.DDL(`CREATE INDEX shard0_v ON shard0 (v)`); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	r := queryAt(t, e, 0, "SELECT COUNT(*) FROM shard0 WHERE v = 3")
	if r.Rows[0][0].(int64) < 4 {
		t.Fatalf("indexed lookup after concurrent backfill = %v", r.Rows[0][0])
	}
	// The lookup must have used the new index: key tag, not wildcard.
	if len(r.Tags) != 1 || invalidation.IsWildcard(r.Tags[0]) {
		t.Fatalf("expected key tag from new index, got %v", r.Tags)
	}
}

// TestSequencerGroupsUnderBurst drives a burst of tiny commits through the
// sequencer and checks the published watermark ends dense and ordered even
// when commit groups batch.
func TestSequencerGroupsUnderBurst(t *testing.T) {
	const workers = 16
	bus := invalidation.NewBus(true)
	e := newShardedEngine(t, workers, bus)
	base := e.LastCommit()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf("INSERT INTO shard%d (id, v) VALUES (?, 0)", w)
			for i := 0; i < 25; i++ {
				tx, err := e.BeginTx(context.Background(), false, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tx.Exec(src, int64(i)); err != nil {
					t.Error(err)
					return
				}
				if _, err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	want := base + workers*25
	if got := e.LastCommit(); got != want {
		t.Fatalf("watermark = %d, want %d", got, want)
	}
	sub := bus.Subscribe()
	defer sub.Close()
	var prev interval.Timestamp
	var prevWall time.Time
	for ts := base + 1; ts <= want; ts++ {
		m := <-sub.C
		if m.TS <= prev {
			t.Fatalf("stream regressed: ts %d after %d", m.TS, prev)
		}
		if m.WallTime.Before(prevWall) {
			t.Fatalf("stream wall time regressed at ts %d", m.TS)
		}
		prev, prevWall = m.TS, m.WallTime
	}
}

// TestPublishNeverWaitsForATableLock holds the sequencer's head open with a
// hand-stamped slot, parks a real commit on table shard0 behind it, and
// then holds shard0's lock shared, as a long scan would, while the slot
// finishes and a commit on shard1 follows. Publish takes no table lock —
// shard0's index entries went in at apply — so both commits become visible
// with the reader still in place.
func TestPublishNeverWaitsForATableLock(t *testing.T) {
	e := newShardedEngine(t, 2, nil)
	head := e.seq.allocate()

	commit := func(table string, done chan<- error) {
		tx, err := e.BeginTx(context.Background(), false, 0)
		if err == nil {
			if _, err = tx.Exec("INSERT INTO " + table + " (id, v) VALUES (1, 1)"); err == nil {
				_, err = tx.Commit()
			}
		}
		done <- err
	}
	doneT, doneU := make(chan error, 1), make(chan error, 1)
	go commit("shard0", doneT)
	for e.seq.last.Load() != uint64(head)+1 {
		time.Sleep(time.Millisecond) // not stamped yet
	}
	// Stamping happens under the table lock, so once this is granted the
	// commit has applied, unlocked, and is parked behind the head slot.
	e.tables["shard0"].mu.RLock()
	defer e.tables["shard0"].mu.RUnlock()

	go e.finishCommit(head, nil, nil)
	go commit("shard1", doneU)
	for name, done := range map[string]chan error{"shard0": doneT, "shard1": doneU} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("commit on %s: %v", name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("commit on %s is not visible after 1s with a reader holding shard0: "+
				"publish waited for a table lock (watermark %d, head slot %d)", name, e.LastCommit(), head)
		}
	}
	if got, want := e.LastCommit(), head+2; got != want {
		t.Fatalf("watermark = %d, want %d", got, want)
	}
}

// TestUniqueUnderConcurrentCommits races 16 committers on one unique key,
// round after round, on an engine with a synced WAL: a committer that
// applied sits unpublished for the length of a sync while the others
// validate, and what they validate against is the tree alone. Exactly one
// commit per key succeeds and the index ends with one posting for it.
func TestUniqueUnderConcurrentCommits(t *testing.T) {
	const (
		committers = 16
		rounds     = 12
	)
	e, _, err := Open(Options{VacuumEvery: -1, Durability: &DurabilityOptions{Dir: t.TempDir(), CheckpointBytes: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustDDL(t, e, `CREATE TABLE u (id BIGINT PRIMARY KEY, who BIGINT)`)

	for key := int64(0); key < rounds; key++ {
		var wg sync.WaitGroup
		var won atomic.Int64
		start := make(chan struct{})
		for g := 0; g < committers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				tx, err := e.BeginTx(context.Background(), false, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tx.Exec("INSERT INTO u (id, who) VALUES (?, ?)", key, int64(g)); err != nil {
					t.Error(err)
					return
				}
				<-start
				switch _, err := tx.Commit(); {
				case err == nil:
					won.Add(1)
				case !errors.Is(err, ErrUnique):
					t.Errorf("key %d: want nil or ErrUnique, got %v", key, err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if n := won.Load(); n != 1 {
			t.Fatalf("key %d: %d commits succeeded, want exactly 1", key, n)
		}
		if rows := queryInts(t, e, "SELECT who FROM u WHERE id = ?", key); len(rows) != 1 {
			t.Fatalf("key %d: rows %v, want one", key, rows)
		}
		tb := e.tables["u"]
		tb.mu.RLock()
		posts := len(tb.indexes["id"].tree.Get(sql.EncodeKey(nil, key)))
		tb.mu.RUnlock()
		if posts != 1 {
			t.Fatalf("key %d: index holds %d postings, want 1", key, posts)
		}
	}
}
