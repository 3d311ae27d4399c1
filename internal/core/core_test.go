package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/sql"
)

// rig is a complete in-process TxCache deployment: engine, bus, one or more
// cache nodes, pincushion, and a library client.
type rig struct {
	clk    *clock.Virtual
	engine *db.Engine
	bus    *invalidation.Bus
	nodes  []*cacheserver.Server
	pc     *pincushion.Pincushion
	client *Client
}

func newRig(t *testing.T, numNodes int, cfgMod func(*Config)) *rig {
	t.Helper()
	clk := &clock.Virtual{}
	bus := invalidation.NewBus(false)
	engine := db.New(db.Options{Clock: clk, Bus: bus})
	pc := pincushion.New(pincushion.Config{Clock: clk, DB: engine, Retention: time.Minute})

	nodes := make([]*cacheserver.Server, numNodes)
	nodeMap := make(map[string]cacheserver.Node, numNodes)
	for i := range nodes {
		nodes[i] = cacheserver.New(cacheserver.Config{Clock: clk})
		sub := bus.Subscribe()
		go nodes[i].ConsumeStream(sub)
		t.Cleanup(sub.Close)
		nodeMap[fmt.Sprintf("node%d", i)] = nodes[i]
	}
	cfg := Config{
		DB:         EngineDB{engine},
		Nodes:      nodeMap,
		Pincushion: pc,
		Clock:      clk,
	}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	return &rig{clk: clk, engine: engine, bus: bus, nodes: nodes, pc: pc, client: NewClient(cfg)}
}

// beginRO begins a read-only transaction on a context that is never
// cancelled, which cannot fail.
func beginRO(c *Client, opts ...TxOption) *Tx {
	tx, err := c.Begin(context.Background(), opts...)
	if err != nil {
		panic(err)
	}
	return tx
}

// settle waits until every cache node has processed the invalidation stream
// up to the engine's last commit.
func (r *rig) settle(t *testing.T) {
	t.Helper()
	want := r.engine.LastCommit()
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range r.nodes {
		for n.LastInvalidation() < want {
			if time.Now().After(deadline) {
				t.Fatalf("node never caught up to %d (at %d)", want, n.LastInvalidation())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func (r *rig) exec(t *testing.T, src string, args ...sql.Value) interval.Timestamp {
	t.Helper()
	tx, err := r.client.Begin(context.Background(), WithReadWrite())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(src, args...); err != nil {
		t.Fatal(err)
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	return ts
}

func setupAccounts(t *testing.T, r *rig, n int, each int64) {
	t.Helper()
	if err := r.engine.DDL(`CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance BIGINT)`); err != nil {
		t.Fatal(err)
	}
	tx, err := r.client.Begin(context.Background(), WithReadWrite())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tx.Exec("INSERT INTO accounts (id, balance) VALUES (?, ?)", int64(i), each); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
}

func getBalanceFn(r *rig) Cacheable[int64] {
	return MakeCacheable(r.client, "getBalance", func(tx *Tx, args ...sql.Value) (int64, error) {
		res, err := tx.Query("SELECT balance FROM accounts WHERE id = ?", args...)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) == 0 {
			return 0, fmt.Errorf("no account %v", args[0])
		}
		return res.Rows[0][0].(int64), nil
	})
}

func TestMemoization(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 4, 100)
	get := getBalanceFn(r)

	tx := beginRO(r.client, WithStaleness(time.Minute))
	v, err := get(tx, int64(1))
	if err != nil || v != 100 {
		t.Fatalf("get = %d, %v", v, err)
	}
	tx.Commit()

	q0 := r.client.Stats().DBQueries.Load()
	tx = beginRO(r.client, WithStaleness(time.Minute))
	if v, err = get(tx, int64(1)); err != nil || v != 100 {
		t.Fatalf("second get = %d, %v", v, err)
	}
	tx.Commit()
	if got := r.client.Stats().DBQueries.Load(); got != q0 {
		t.Fatalf("second call hit the database (%d -> %d queries)", q0, got)
	}
	if r.client.Stats().CacheHits.Load() == 0 {
		t.Fatal("no cache hit recorded")
	}
	// Distinct arguments are distinct cache keys.
	tx = beginRO(r.client, WithStaleness(time.Minute))
	if v, _ := get(tx, int64(2)); v != 100 {
		t.Fatalf("get(2) = %d", v)
	}
	tx.Commit()
	if got := r.client.Stats().DBQueries.Load(); got == q0 {
		t.Fatal("get(2) should have queried the database")
	}
}

// TestDeterministicConsistency replays the classic anomaly scenario and
// checks TxCache prevents it while the no-consistency comparator exhibits it.
func TestDeterministicConsistency(t *testing.T) {
	run := func(noCon bool) (sum int64, hits uint64) {
		r := newRig(t, 1, func(c *Config) { c.NoConsistency = noCon })
		setupAccounts(t, r, 2, 50)
		get := getBalanceFn(r)

		// Warm the cache with A's balance at the initial snapshot.
		tx := beginRO(r.client, WithStaleness(time.Minute))
		if _, err := get(tx, int64(0)); err != nil {
			t.Fatal(err)
		}
		tx.Commit()

		// Transfer 10 from A to B.
		rw, _ := r.client.Begin(context.Background(), WithReadWrite())
		if _, err := rw.Exec("UPDATE accounts SET balance = 40 WHERE id = 0"); err != nil {
			t.Fatal(err)
		}
		if _, err := rw.Exec("UPDATE accounts SET balance = 60 WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		if _, err := rw.Commit(); err != nil {
			t.Fatal(err)
		}
		r.settle(t)

		// Warm the cache with B's balance at the new snapshot. Advance the
		// clock past the fresh-pin threshold so a new snapshot is pinned.
		r.clk.Advance(10 * time.Second)
		tx = beginRO(r.client, WithStaleness(time.Minute))
		if _, err := get(tx, int64(1)); err != nil {
			t.Fatal(err)
		}
		tx.Commit()

		// Now both versions are cached: A at the old snapshot (validity
		// closed by the transfer), B at the new one (still valid). A
		// transaction reading both must see a consistent sum.
		tx = beginRO(r.client, WithStaleness(time.Minute))
		a, err := get(tx, int64(0))
		if err != nil {
			t.Fatal(err)
		}
		b, err := get(tx, int64(1))
		if err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		return a + b, r.client.Stats().CacheHits.Load()
	}

	if sum, _ := run(false); sum != 100 {
		t.Fatalf("TxCache mode saw inconsistent sum %d", sum)
	}
	if sum, hits := run(true); sum != 110 {
		// The comparator deliberately mixes snapshots: stale A (50) + fresh
		// B (60). If this ever fails because both were served from one
		// snapshot, the scenario lost its bite — check hit accounting.
		t.Fatalf("no-consistency mode: sum = %d (hits %d), want the 110 anomaly", sum, hits)
	}
}

func TestRWBypassesCache(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 50)
	get := getBalanceFn(r)

	// Warm cache.
	tx := beginRO(r.client, WithStaleness(time.Minute))
	get(tx, int64(0))
	tx.Commit()
	l0 := r.nodes[0].Stats().Lookups

	rw, _ := r.client.Begin(context.Background(), WithReadWrite())
	v, err := get(rw, int64(0))
	if err != nil || v != 50 {
		t.Fatalf("get in RW = %d, %v", v, err)
	}
	if _, err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := r.nodes[0].Stats().Lookups; got != l0 {
		t.Fatal("read/write transaction must not touch the cache")
	}
	// RW sees its own uncommitted writes through cacheable functions.
	rw, _ = r.client.Begin(context.Background(), WithReadWrite())
	rw.Exec("UPDATE accounts SET balance = 77 WHERE id = 0")
	if v, _ := get(rw, int64(0)); v != 77 {
		t.Fatalf("RW read own write through cacheable fn: %d", v)
	}
	rw.Abort()
}

func TestInvalidationClosesEntry(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 50)
	get := getBalanceFn(r)

	tx := beginRO(r.client, WithStaleness(time.Minute))
	get(tx, int64(0))
	tx.Commit()

	r.exec(t, "UPDATE accounts SET balance = 99 WHERE id = 0")
	r.clk.Advance(10 * time.Second) // age the pre-update pin beyond the limit below

	// A staleness limit tighter than the pin's age excludes the old
	// snapshot, so the invalidated entry cannot satisfy this transaction.
	tx = beginRO(r.client, WithStaleness(5*time.Second))
	v, err := get(tx, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := tx.Commit()
	if v != 99 {
		t.Fatalf("read %d after invalidation at fresh snapshot %d", v, ts)
	}
}

func TestStaleReadWithinLimit(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 50)
	get := getBalanceFn(r)

	tx := beginRO(r.client, WithStaleness(time.Minute))
	get(tx, int64(0))
	tx.Commit()

	r.exec(t, "UPDATE accounts SET balance = 99 WHERE id = 0")

	// Within the staleness limit the invalidated entry is still usable:
	// the old pin is fresh, so the transaction serializes in the past.
	q0 := r.client.Stats().DBQueries.Load()
	tx = beginRO(r.client, WithStaleness(time.Minute))
	v, err := get(tx, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if v != 50 {
		t.Fatalf("stale-tolerant read = %d, want 50", v)
	}
	if r.client.Stats().DBQueries.Load() != q0 {
		t.Fatal("stale hit should not touch the database")
	}

	// Once wall time passes, a zero staleness limit excludes the old pin.
	r.clk.Advance(time.Second)
	tx = beginRO(r.client, WithStaleness(0))
	v, _ = get(tx, int64(0))
	tx.Commit()
	if v != 99 {
		t.Fatalf("staleness-0 read = %d, want 99", v)
	}
}

func TestNestedCacheableCalls(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 3, 10)
	get := getBalanceFn(r)
	sumAll := MakeCacheable(r.client, "sumAll", func(tx *Tx, args ...sql.Value) (int64, error) {
		var total int64
		for i := int64(0); i < 3; i++ {
			v, err := get(tx, i)
			if err != nil {
				return 0, err
			}
			total += v
		}
		return total, nil
	})

	tx := beginRO(r.client, WithStaleness(time.Minute))
	total, err := sumAll(tx)
	if err != nil || total != 30 {
		t.Fatalf("sumAll = %d, %v", total, err)
	}
	tx.Commit()

	// The outer result and each inner result are cached under separate
	// keys; a second transaction hits the outer one directly.
	q0 := r.client.Stats().DBQueries.Load()
	tx = beginRO(r.client, WithStaleness(time.Minute))
	if total, _ = sumAll(tx); total != 30 {
		t.Fatalf("sumAll second = %d", total)
	}
	tx.Commit()
	if r.client.Stats().DBQueries.Load() != q0 {
		t.Fatal("outer hit should answer without the database")
	}
	// An inner value is reusable on its own.
	tx = beginRO(r.client, WithStaleness(time.Minute))
	if v, _ := get(tx, int64(1)); v != 10 {
		t.Fatalf("inner reuse = %d", v)
	}
	tx.Commit()
	if r.client.Stats().DBQueries.Load() != q0 {
		t.Fatal("inner hit should answer without the database")
	}

	// Updating one account invalidates both the inner entry and the outer
	// entry (the outer function inherited the inner tags, §6.3).
	r.exec(t, "UPDATE accounts SET balance = 20 WHERE id = 1")
	r.clk.Advance(10 * time.Second)
	tx = beginRO(r.client, WithStaleness(0)) // force freshness
	if total, err = sumAll(tx); err != nil || total != 40 {
		t.Fatalf("sumAll after update = %d, %v", total, err)
	}
	tx.Commit()
}

func TestCommitTimestampCausality(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 50)
	get := getBalanceFn(r)

	// Warm cache at the old state.
	tx := beginRO(r.client, WithStaleness(time.Minute))
	get(tx, int64(0))
	tx.Commit()

	rw, _ := r.client.Begin(context.Background(), WithReadWrite())
	rw.Exec("UPDATE accounts SET balance = 99 WHERE id = 0")
	wts, err := rw.Commit()
	if err != nil {
		t.Fatal(err)
	}
	r.settle(t)

	// A plain stale-tolerant transaction may still see 50, but one bounded
	// by the write's timestamp must see 99.
	tx = beginRO(r.client, WithStaleness(time.Minute), WithMinTimestamp(wts))
	v, err := get(tx, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	rts, _ := tx.Commit()
	if v != 99 {
		t.Fatalf("causal read = %d at ts %d, want 99 (write at %d)", v, rts, wts)
	}
	if rts < wts {
		t.Fatalf("causal commit ts %d < write ts %d", rts, wts)
	}
}

func TestPinSetInvariants(t *testing.T) {
	r := newRig(t, 2, nil)
	setupAccounts(t, r, 8, 100)
	get := getBalanceFn(r)
	rng := rand.New(rand.NewSource(11))

	for round := 0; round < 60; round++ {
		// Mutate sometimes.
		if rng.Intn(3) == 0 {
			id := int64(rng.Intn(8))
			r.exec(t, "UPDATE accounts SET balance = ? WHERE id = ?", int64(rng.Intn(1000)), id)
		}
		if rng.Intn(4) == 0 {
			r.clk.Advance(time.Duration(rng.Intn(7)) * time.Second)
		}
		tx := beginRO(r.client, WithStaleness(30*time.Second))
		reads := rng.Intn(5) + 1
		for i := 0; i < reads; i++ {
			if _, err := get(tx, int64(rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
			// Invariant 2: the pin set never empties once data is observed.
			if len(tx.pinSet) == 0 && !tx.star {
				t.Fatalf("round %d read %d: pin set emptied: %s", round, i, tx.String())
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if r.client.Stats().MissDefensive.Load() != 0 {
		t.Fatalf("defensive misses should not occur with a healthy pincushion: %d",
			r.client.Stats().MissDefensive.Load())
	}
}

// TestConcurrentConsistencyStress is the end-to-end serializability check:
// writers move money between accounts (conserving the total), while
// read-only transactions sum all balances through cacheable functions. Any
// mixing of snapshots would break conservation.
func TestConcurrentConsistencyStress(t *testing.T) {
	r := newRig(t, 2, nil)
	const nAcct = 10
	const total = int64(nAcct) * 100
	setupAccounts(t, r, nAcct, 100)
	get := getBalanceFn(r)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				from, to := int64(rng.Intn(nAcct)), int64(rng.Intn(nAcct))
				if from == to {
					continue
				}
				amt := int64(rng.Intn(20))
				rw, err := r.client.Begin(context.Background(), WithReadWrite())
				if err != nil {
					errs <- err
					return
				}
				res, err := rw.Query("SELECT balance FROM accounts WHERE id = ?", from)
				if err != nil || len(res.Rows) == 0 {
					rw.Abort()
					continue
				}
				bal := res.Rows[0][0].(int64)
				if bal < amt {
					rw.Abort()
					continue
				}
				res2, err := rw.Query("SELECT balance FROM accounts WHERE id = ?", to)
				if err != nil || len(res2.Rows) == 0 {
					rw.Abort()
					continue
				}
				rw.Exec("UPDATE accounts SET balance = ? WHERE id = ?", bal-amt, from)
				rw.Exec("UPDATE accounts SET balance = ? WHERE id = ?", res2.Rows[0][0].(int64)+amt, to)
				if _, err := rw.Commit(); err != nil && !errors.Is(err, db.ErrSerialization) {
					errs <- err
					return
				}
			}
		}(int64(w + 1))
	}

	// Readers summing through the cache.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed * 77))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := beginRO(r.client, WithStaleness(time.Duration(rng.Intn(30))*time.Second))
				var sum int64
				ok := true
				for id := int64(0); id < nAcct; id++ {
					v, err := get(tx, id)
					if err != nil {
						errs <- err
						ok = false
						break
					}
					sum += v
				}
				tx.Commit()
				if ok && sum != total {
					errs <- fmt.Errorf("reader %d iteration %d: sum %d != %d (CONSISTENCY VIOLATION)", seed, i, sum, total)
					return
				}
			}
		}(int64(g + 1))
	}

	// Clock mover: ages pins so fresh snapshots get created.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.clk.Advance(time.Second)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r.client.Stats().CacheHits.Load() == 0 {
		t.Fatal("stress run never hit the cache; scenario is vacuous")
	}
}

func TestBaselineNoCacheNodes(t *testing.T) {
	r := newRig(t, 0, nil)
	setupAccounts(t, r, 2, 5)
	get := getBalanceFn(r)
	tx := beginRO(r.client, WithStaleness(time.Minute))
	v, err := get(tx, int64(0))
	if err != nil || v != 5 {
		t.Fatalf("baseline get = %d, %v", v, err)
	}
	tx.Commit()
	if r.client.Stats().CacheHits.Load() != 0 || r.client.Stats().CachePuts.Load() != 0 {
		t.Fatal("baseline must not use the cache")
	}
}

func TestErrorsFromCacheableFunctionsAreNotCached(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 5)
	calls := 0
	failing := MakeCacheable(r.client, "failer", func(tx *Tx, args ...sql.Value) (int64, error) {
		calls++
		return 0, errors.New("boom")
	})
	for i := 0; i < 2; i++ {
		tx := beginRO(r.client, WithStaleness(time.Minute))
		if _, err := failing(tx); err == nil {
			t.Fatal("expected error")
		}
		tx.Commit()
	}
	if calls != 2 {
		t.Fatalf("error result must not be cached (calls = %d)", calls)
	}
}

func TestUsingFinishedTx(t *testing.T) {
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 1, 5)
	tx := beginRO(r.client, WithStaleness(time.Minute))
	tx.Commit()
	if _, err := tx.Query("SELECT balance FROM accounts WHERE id = 0"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("want ErrTxDone, got %v", err)
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
	tx.Abort() // no panic
}

// TestWriteFreeDeploymentKeepsItsCache: with no commits at all the latest
// snapshot never changes, so every re-pin returns the same timestamp with a
// later wall time. The pincushion must take the later time — the snapshot
// was still the latest then — or the only pin ages out of the staleness
// window, GetPins returns nothing, and no lookup is ever attempted again.
func TestWriteFreeDeploymentKeepsItsCache(t *testing.T) {
	const staleness = 10 * time.Second
	r := newRig(t, 1, nil)
	setupAccounts(t, r, 4, 100)
	get := getBalanceFn(r)

	// Each transaction asks the database something directly before it reads
	// through the cache: a transaction that has seen nothing yet may still
	// run in the present, and that is where the library re-pins once the
	// newest pin is older than FreshPinThreshold.
	run := func(step int) {
		t.Helper()
		tx, err := r.client.Begin(context.Background(), WithStaleness(staleness))
		if err != nil {
			t.Fatal(err)
		}
		if step > 0 && len(tx.pinSet) == 0 {
			t.Fatalf("%ds after the last commit no pinned snapshot is fresh", step)
		}
		if _, err := tx.Query("SELECT balance FROM accounts WHERE id = ?", int64(0)); err != nil {
			t.Fatal(err)
		}
		if v, err := get(tx, int64(step%4)); err != nil || v != 100 {
			t.Fatalf("step %d: get = %d, %v", step, v, err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run(0) // the first transaction finds an empty pincushion and pins
	base := r.client.Stats().MissNoPins.Load()
	for step := 1; step <= 3*int(staleness/time.Second); step++ {
		r.clk.Advance(time.Second)
		r.pc.Sweep()
		run(step)
	}
	if got := r.client.Stats().MissNoPins.Load(); got != base {
		t.Fatalf("MissNoPins grew from %d to %d with no commits", base, got)
	}
	if r.client.Stats().CacheHits.Load() == 0 {
		t.Fatal("the cache was never hit")
	}
}
