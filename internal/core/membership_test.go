package core

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
)

// join brings a fresh node into the running cluster the way a deployment
// does: whoever owns the bus gives the node its stream, the client puts it in
// the ring. leave takes it out again and ends the stream.
func (r *rig) join(name string) (n *cacheserver.Server, leave func()) {
	n = cacheserver.New(cacheserver.Config{Clock: r.clk})
	sub := r.bus.Subscribe()
	go n.ConsumeStream(sub)
	r.client.AddNode(name, n)
	return n, func() {
		r.client.RemoveNode(name)
		sub.Close()
	}
}

// TestAddNodeJoinsLiveCluster: a node added to a running client must join
// the ring and start absorbing the keys remapped onto it, and the stream its
// owner gave it must reach it — all without wrong answers during the
// transition.
func TestAddNodeJoinsLiveCluster(t *testing.T) {
	r := newRig(t, 2, nil)
	setupAccounts(t, r, 16, 100)
	get := getBalanceFn(r)

	warm := func() {
		for i := 0; i < 16; i++ {
			tx := beginRO(r.client, WithStaleness(time.Minute))
			if v, err := get(tx, int64(i)); err != nil || v != 100 {
				t.Fatalf("get(%d) = %d, %v", i, v, err)
			}
			tx.Commit()
		}
	}
	warm()

	n2, leave := r.join("node2")
	t.Cleanup(leave)
	if got := len(r.client.NodeNames()); got != 3 {
		t.Fatalf("cluster size = %d, want 3", got)
	}

	// A commit's invalidation message has to reach node2.
	r.exec(t, "UPDATE accounts SET balance = 100 WHERE id = 0")
	want := r.engine.LastCommit()
	deadline := time.Now().Add(5 * time.Second)
	for n2.LastInvalidation() < want {
		if time.Now().After(deadline) {
			t.Fatalf("joined node never saw the stream (at %d, want %d)", n2.LastInvalidation(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Rewarm: keys remapped to the cold node recompute and install there.
	warm()
	if n2.Stats().Puts == 0 {
		t.Fatal("no keys remapped onto the joined node")
	}
	if r.client.Stats().NodesAdded.Load() != 1 {
		t.Fatalf("NodesAdded = %d", r.client.Stats().NodesAdded.Load())
	}
}

// TestJoinerPutBeforeItsFirstMessage: a node is in the ring, and takes puts,
// before the database's stream reaches it (a txcached the database has not
// dialled yet). A commit in between never reaches it, so when its first
// message arrives it cannot keep what it holds open.
func TestJoinerPutBeforeItsFirstMessage(t *testing.T) {
	clk := &clock.Virtual{}
	bus := invalidation.NewBus(false) // a late subscriber gets no replay
	engine := db.New(db.Options{Clock: clk, Bus: bus})
	pc := pincushion.New(pincushion.Config{Clock: clk, DB: engine, Retention: time.Minute})
	r := &rig{clk: clk, engine: engine, bus: bus, pc: pc,
		client: NewClient(Config{DB: EngineDB{engine}, Pincushion: pc, Clock: clk})}
	setupAccounts(t, r, 2, 100)
	get := getBalanceFn(r)

	n := cacheserver.New(cacheserver.Config{Clock: clk})
	r.client.AddNode("joiner", n)
	tx := beginRO(r.client, WithStaleness(time.Minute))
	if v, err := get(tx, int64(0)); err != nil || v != 100 {
		t.Fatalf("get(0) = %d, %v", v, err)
	}
	tx.Commit()
	if n.Stats().Puts != 1 {
		t.Fatalf("the joiner took %d puts, want 1", n.Stats().Puts)
	}
	r.exec(t, "UPDATE accounts SET balance = 1 WHERE id = 0") // the node never hears of it

	sub := bus.Subscribe()
	t.Cleanup(sub.Close)
	go n.ConsumeStream(sub)
	r.nodes = append(r.nodes, n)
	first := r.exec(t, "UPDATE accounts SET balance = 2 WHERE id = 1") // unrelated; waits for the node

	if got := n.Lookup(context.Background(), CacheKey("getBalance", int64(0)), first, first, 0, interval.Infinity); got.Found {
		t.Errorf("served at the node's first message %d, past an invalidation it never saw: %v still=%v", first, got.Validity, got.Still)
	}
	// Every pin ages out, one reader pins the present, the next one looks the
	// entry up there.
	clk.Advance(2 * time.Minute)
	tx = beginRO(r.client, WithStaleness(30*time.Second))
	if _, err := tx.Query("SELECT balance FROM accounts WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx = beginRO(r.client, WithStaleness(30*time.Second))
	v, err := get(tx, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tx.Query("SELECT balance FROM accounts WHERE id = 0")
	if err != nil || res.Rows[0][0].(int64) != v {
		t.Fatalf("%v: getBalance(0) = %d but the database says %v (%v)", tx, v, res.Rows, err)
	}
	if at, _ := tx.Commit(); at != first {
		t.Fatalf("the reader ran at %d, want the new pin %d", at, first)
	}
}

// TestRemoveNodeDrains: removing nodes — down to an empty cluster — must
// never produce wrong answers, and an empty cluster degrades to the
// no-cache baseline.
func TestRemoveNodeDrains(t *testing.T) {
	r := newRig(t, 2, nil)
	setupAccounts(t, r, 8, 100)
	get := getBalanceFn(r)

	check := func() {
		for i := 0; i < 8; i++ {
			tx := beginRO(r.client, WithStaleness(time.Minute))
			if v, err := get(tx, int64(i)); err != nil || v != 100 {
				t.Fatalf("get(%d) = %d, %v", i, v, err)
			}
			tx.Commit()
		}
	}
	check()
	if !r.client.RemoveNode("node0") {
		t.Fatal("node0 was a member")
	}
	if r.client.RemoveNode("node0") {
		t.Fatal("second remove must be a no-op")
	}
	check()
	if !r.client.RemoveNode("node1") {
		t.Fatal("node1 was a member")
	}
	if r.client.CacheEnabled() {
		t.Fatal("empty cluster still reports cache enabled")
	}
	check() // no-cache baseline path
	if got := r.client.Stats().NodesRemoved.Load(); got != 2 {
		t.Fatalf("NodesRemoved = %d", got)
	}

	// A node whose server stopped reading: its queued puts can never be
	// written, and removing it must give up on them when the client's drain
	// time is up, not wait out a write timeout for each.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept() // accepted, never read
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	stuck, err := cacheserver.Dial(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r.client.AddNode("stuck", stuck)
	payload := make([]byte, 1<<20)
	for i := 0; i < 64; i++ { // far more than loopback socket buffers hold
		stuck.Put(fmt.Sprint("k", i), payload, interval.Interval{Lo: 1, Hi: 2}, false, 0, nil)
	}
	start := time.Now()
	if !r.client.RemoveNode("stuck") {
		t.Fatal("stuck was a member")
	}
	if took := time.Since(start); took > cacheserver.DefaultDrainTimeout+2*time.Second {
		t.Fatalf("RemoveNode of a node that stopped reading took %v, want about DefaultDrainTimeout (%v)", took, cacheserver.DefaultDrainTimeout)
	}
	if st := stuck.ClientStats(); st.PutsSent == st.PutsQueued {
		t.Fatalf("every put was written (%+v): the server read after all and this case tested nothing", st)
	}
}

// TestMembershipChurnUnderLoad runs readers, a writer, and continuous node
// churn concurrently (meant for -race): every read must return the correct
// value no matter how the ring is shifting underneath it.
func TestMembershipChurnUnderLoad(t *testing.T) {
	r := newRig(t, 2, nil)
	setupAccounts(t, r, 9, 100)
	get := getBalanceFn(r)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writer churns account 0 (readers only touch 1..8, whose balances
	// never change).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := r.client.Begin(context.Background(), WithReadWrite())
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := tx.Exec("UPDATE accounts SET balance = ? WHERE id = 0", int64(i)); err != nil {
				t.Error(err)
				tx.Abort()
				return
			}
			if _, err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := int64(rng.Intn(8) + 1)
				tx := beginRO(r.client, WithStaleness(time.Minute))
				v, err := get(tx, id)
				tx.Commit()
				if err != nil || v != 100 {
					t.Errorf("get(%d) = %d, %v", id, v, err)
					return
				}
			}
		}(w)
	}
	// Churner: joins a fresh node, then drains it, repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, leave := r.join(fmt.Sprintf("churn%d", i))
			time.Sleep(2 * time.Millisecond)
			leave()
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if r.client.Stats().NodesAdded.Load() == 0 || r.client.Stats().CacheHits.Load() == 0 {
		t.Fatalf("vacuous churn run: %d added, %d hits",
			r.client.Stats().NodesAdded.Load(), r.client.Stats().CacheHits.Load())
	}
}

// TestPrefetchBatchesProbes: Tx.Prefetch resolves a key set in batched
// round trips and the following cacheable calls consume the staged results
// without touching the database or the nodes again.
func TestPrefetchBatchesProbes(t *testing.T) {
	r := newRig(t, 2, nil)
	setupAccounts(t, r, 6, 100)
	get := getBalanceFn(r)

	for i := 0; i < 4; i++ {
		tx := beginRO(r.client, WithStaleness(time.Minute))
		if _, err := get(tx, int64(i)); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}

	keys := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		keys = append(keys, CacheKey("getBalance", int64(i)))
	}
	q0 := r.client.Stats().DBQueries.Load()
	tx := beginRO(r.client, WithStaleness(time.Minute))
	if found := tx.Prefetch(keys...); found != 4 {
		t.Fatalf("Prefetch found %d of 4 warm keys", found)
	}
	if got := r.client.Stats().Prefetches.Load(); got == 0 || got > 2 {
		t.Fatalf("Prefetches = %d, want 1..2 (one per responsible node)", got)
	}
	for i := 0; i < 4; i++ {
		if v, err := get(tx, int64(i)); err != nil || v != 100 {
			t.Fatalf("get(%d) = %d, %v", i, v, err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := r.client.Stats().PrefetchHits.Load(); got != 4 {
		t.Fatalf("PrefetchHits = %d, want 4", got)
	}
	if got := r.client.Stats().DBQueries.Load(); got != q0 {
		t.Fatalf("prefetched reads still queried the database (%d -> %d)", q0, got)
	}

	// A prefetched miss is consumed as a miss; the call recomputes.
	tx = beginRO(r.client, WithStaleness(time.Minute))
	if found := tx.Prefetch(CacheKey("getBalance", int64(5))); found != 0 {
		t.Fatalf("cold key reported found=%d", found)
	}
	if v, err := get(tx, int64(5)); err != nil || v != 100 {
		t.Fatalf("get(5) = %d, %v", v, err)
	}
	tx.Commit()
	if got := r.client.Stats().DBQueries.Load(); got == q0 {
		t.Fatal("cold prefetch consumed without recompute")
	}
}
