package core

import (
	"context"
	"fmt"
	"net"
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

// TestJoinerPutBeforeItsFirstMessage: a node is in the client's Config.Nodes,
// and takes puts, before the database's stream reaches it (a txcached the
// database has not dialled yet, or one that restarted). A commit in between never reaches it, so when its first
// message arrives it cannot keep what it holds open.
func TestJoinerPutBeforeItsFirstMessage(t *testing.T) {
	clk := &clock.Virtual{}
	bus := invalidation.NewBus(false) // a late subscriber gets no replay
	engine := db.New(db.Options{Clock: clk, Bus: bus})
	pc := pincushion.New(pincushion.Config{Clock: clk, DB: engine, Retention: time.Minute})
	n := cacheserver.New(cacheserver.Config{Clock: clk})
	r := &rig{clk: clk, engine: engine, bus: bus, pc: pc, client: NewClient(Config{
		DB: EngineDB{engine}, Nodes: map[string]cacheserver.Node{"joiner": n}, Pincushion: pc, Clock: clk})}
	setupAccounts(t, r, 2, 100)
	get := getBalanceFn(r)

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

	if got := n.Lookup(context.Background(), cacheKey("getBalance", []sql.Value{int64(0)}), first, first, 0, interval.Infinity); got.Found {
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

// TestCloseDrainsWithinBound: a node whose server stopped reading costs a
// put no more than a lookup's bound, DefaultCallTimeout, and the put that
// ran out of it counts as an error. The client's Close, and a second one,
// return at once: nothing is left queued to drain.
func TestCloseDrainsWithinBound(t *testing.T) {
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
	client := NewClient(Config{Nodes: map[string]cacheserver.Node{"stuck": stuck}})
	payload := make([]byte, 1<<20)
	for i := 0; stuck.ClientStats().PutErrors == 0; i++ {
		if i == 64 { // far more than loopback socket buffers hold
			t.Fatalf("every put was written (%+v): the server read after all and this case tested nothing", stuck.ClientStats())
		}
		start := time.Now()
		stuck.Put(fmt.Sprint("k", i), payload, interval.Interval{Lo: 1, Hi: 2}, false, 0, nil)
		if took := time.Since(start); took > cacheserver.DefaultCallTimeout+time.Second {
			t.Fatalf("a put to a node that stopped reading took %v, want at most DefaultCallTimeout (%v)", took, cacheserver.DefaultCallTimeout)
		}
	}
	for i := 0; i < 2; i++ {
		start := time.Now()
		client.Close()
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Fatalf("Close %d took %v, want an immediate return", i+1, took)
		}
	}
}
