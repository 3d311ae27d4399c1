package txcache_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"txcache"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/rubis"
)

// integration_test.go stands up the complete distributed topology of the
// paper's Figure 1 — database daemon, two cache nodes, pincushion, all over
// real TCP — and checks the system's headline guarantee end to end: no
// read-only transaction ever observes a state that violates an invariant
// the write transactions preserve.

type cluster struct {
	engine *txcache.Engine
	client *txcache.Client
}

func startCluster(t *testing.T) *cluster {
	t.Helper()
	bus := txcache.NewBus(false)
	engine := txcache.NewEngine(txcache.EngineOptions{Bus: bus})

	listen := func() net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}

	// Cache nodes.
	nodes := map[string]txcache.CacheNode{}
	for i := 0; i < 2; i++ {
		node := txcache.NewCacheServer(txcache.CacheConfig{CapacityBytes: 4 << 20})
		sub := bus.Subscribe()
		go node.ConsumeStream(sub)
		t.Cleanup(sub.Close)
		l := listen()
		go node.Serve(l)
		cn, err := txcache.DialCache(l.Addr().String(), 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cn.Close)
		nodes[fmt.Sprintf("node%d", i)] = cn
	}

	// Database daemon.
	dbL := listen()
	go (&dbnet.Server{Engine: engine}).Serve(dbL)
	dbClient, err := dbnet.Dial(dbL.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dbClient.Close)

	// Pincushion daemon.
	pcDB, err := dbnet.Dial(dbL.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pcDB.Close)
	pc := txcache.NewPincushion(txcache.PincushionConfig{DB: pcDB, Retention: 10 * time.Second})
	pcL := listen()
	go pc.Serve(pcL)
	pcClient, err := txcache.DialPincushion(pcL.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pcClient.Close)

	client := core.NewClient(core.Config{
		DB:         dbClient,
		Nodes:      nodes,
		Pincushion: pcClient,
	})
	return &cluster{engine: engine, client: client}
}

func TestDistributedConsistencyOverTCP(t *testing.T) {
	cl := startCluster(t)
	const nAcct = 8
	const total = int64(nAcct * 100)

	if err := cl.engine.DDL(`CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance BIGINT)`); err != nil {
		t.Fatal(err)
	}
	rw, err := cl.client.Begin(context.Background(), txcache.WithReadWrite())
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
	time.Sleep(20 * time.Millisecond) // drain the invalidation stream

	getBalance := txcache.MakeCacheable(cl.client, "it.getBalance",
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
			_, err := cl.client.ReadWrite(context.Background(), func(rw *txcache.Tx) error {
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
				tx, err := cl.client.Begin(context.Background(), txcache.WithStaleness(30*time.Second))
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
	if cl.client.Stats().Hits() == 0 {
		t.Fatal("distributed run never hit the cache")
	}
	if cl.engine.Stats().Commits < 10 {
		t.Fatalf("writer barely ran: %+v", cl.engine.Stats())
	}
}

// TestDistributedRUBiSOverTCP runs a short RUBiS burst against the TCP
// cluster — the same topology as examples/auction, as a regression test.
func TestDistributedRUBiSOverTCP(t *testing.T) {
	cl := startCluster(t)
	ds, err := rubis.Load(cl.engine, rubis.TestScale, 21)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	app := rubis.NewApp(cl.client, ds)
	res := rubis.RunEmulator(app, rubis.EmulatorConfig{
		Clients: 6, Staleness: 30 * time.Second, Duration: time.Second, Seed: 3,
	})
	if res.Errors > 0 {
		t.Fatalf("errors: %+v", res)
	}
	if res.Requests < 100 {
		t.Fatalf("too slow over loopback TCP: %+v", res)
	}
	if cl.client.Stats().Hits() == 0 {
		t.Fatal("no cache hits over TCP")
	}
}
