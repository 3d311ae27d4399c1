package txcache_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"txcache"
	"txcache/internal/bench"
	"txcache/internal/db"
	"txcache/internal/rubis"
	"txcache/internal/serve"
)

// integration_test.go stands up the complete distributed topology of the
// paper's Figure 1 — database daemon, two cache nodes, pincushion, all over
// real TCP, built by bench.StartServeStack — and checks the system's
// headline guarantee end to end: no read-only transaction ever observes a
// state that violates an invariant the write transactions preserve.

// startStack boots the topology, RUBiS loaded, with bench.StartServeStack
// and stops it when the test ends, insisting on no leaked pin.
func startStack(t *testing.T) *bench.ServeStack {
	t.Helper()
	st, err := bench.StartServeStack(bench.ServeStackConfig{Seed: 20, Serve: serve.Config{Staleness: 30 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := st.Stop(ctx); err != nil {
			t.Errorf("teardown: %v", err)
		}
	})
	return st
}

func TestDistributedConsistencyOverTCP(t *testing.T) {
	st := startStack(t)
	engine, client := st.Engine, st.App.C
	const nAcct = 8
	const total = int64(nAcct * 100)

	if err := engine.DDL(`CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance BIGINT)`); err != nil {
		t.Fatal(err)
	}
	rw, err := client.Begin(context.Background(), txcache.WithReadWrite())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nAcct; i++ {
		if _, err := rw.Exec("INSERT INTO accounts (id, balance) VALUES (?, ?)", int64(i), int64(100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
	// The dataset was loaded and attached just before, so the pincushion
	// already holds pins from before the accounts existed. A reader's bound
	// is the time since they were seeded: every pin placed since is in
	// reach, and none of those.
	seeded := time.Now()
	time.Sleep(20 * time.Millisecond) // drain the invalidation stream

	getBalance := txcache.MakeCacheable(client, "it.getBalance",
		func(tx *txcache.Tx, args ...txcache.Value) (int64, error) {
			r, err := tx.Query("SELECT balance FROM accounts WHERE id = ?", args...)
			if err != nil || len(r.Rows) == 0 {
				return 0, err
			}
			return r.Rows[0][0].(int64), nil
		})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 32)
	loaded := engine.Stats().Commits

	// One writer moving money (conserving the total) over TCP.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			from, to := int64(i%nAcct), int64((i+3)%nAcct)
			if from == to {
				continue
			}
			// The ReadWrite runner owns begin/commit/abort and the
			// serialization-conflict retry loop the old RetryRW idiom
			// hand-rolled.
			_, err := client.ReadWrite(context.Background(), func(rw *txcache.Tx) error {
				r, err := rw.Query("SELECT balance FROM accounts WHERE id = ?", from)
				if err != nil || len(r.Rows) == 0 {
					return err
				}
				bal := r.Rows[0][0].(int64)
				if bal < 10 {
					return nil // nothing to move; the empty commit is free
				}
				r2, err := rw.Query("SELECT balance FROM accounts WHERE id = ?", to)
				if err != nil || len(r2.Rows) == 0 {
					return err
				}
				rw.Exec("UPDATE accounts SET balance = ? WHERE id = ?", bal-10, from)
				rw.Exec("UPDATE accounts SET balance = ? WHERE id = ?", r2.Rows[0][0].(int64)+10, to)
				return nil
			})
			if err != nil && !errors.Is(err, db.ErrSerialization) {
				errs <- err
				return
			}
		}
	}()

	// Readers summing through cacheable functions over TCP.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := client.Begin(context.Background(), txcache.WithStaleness(time.Since(seeded)))
				if err != nil {
					errs <- err
					return
				}
				var sum int64
				bad := false
				for id := int64(0); id < nAcct; id++ {
					v, err := getBalance(tx, id)
					if err != nil {
						errs <- err
						bad = true
						break
					}
					sum += v
				}
				tx.Commit()
				if !bad && sum != total {
					errs <- fmt.Errorf("reader %d iter %d: inconsistent sum %d != %d", g, i, sum, total)
					return
				}
			}
		}(g)
	}

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if client.Stats().Hits() == 0 {
		t.Fatal("distributed run never hit the cache")
	}
	if engine.Stats().Commits-loaded < 10 {
		t.Fatalf("writer barely ran: %+v", engine.Stats())
	}
}

// TestDistributedRUBiSOverTCP runs a short RUBiS burst against the TCP
// topology — the one examples/auction runs, as a regression test.
func TestDistributedRUBiSOverTCP(t *testing.T) {
	st := startStack(t)
	res := rubis.RunEmulator(st.App, rubis.EmulatorConfig{
		Clients: 6, Staleness: 30 * time.Second, Duration: time.Second, Seed: 3,
	})
	if res.Errors > 0 {
		t.Fatalf("errors: %+v", res)
	}
	if res.Requests < 100 {
		t.Fatalf("too slow over loopback TCP: %+v", res)
	}
	if st.App.C.Stats().Hits() == 0 {
		t.Fatal("no cache hits over TCP")
	}
}
