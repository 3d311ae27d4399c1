package txcache_test

import (
	"context"
	"testing"
	"time"

	"txcache"
)

// TestFacadeEndToEnd drives a full deployment purely through the public
// facade: engine, bus, cache node, pincushion, client, cacheable function,
// invalidation, causality — all through the context-first Begin API.
func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	bus := txcache.NewBus(true)
	engine := txcache.NewEngine(txcache.EngineOptions{Bus: bus})
	node := txcache.NewCacheServer(txcache.CacheConfig{})
	go node.ConsumeStream(bus.Subscribe())
	pc := txcache.NewPincushion(txcache.PincushionConfig{DB: engine})
	client := txcache.NewClient(txcache.Config{
		DB:         txcache.WrapEngine(engine),
		Nodes:      map[string]txcache.CacheNode{"n1": node},
		Pincushion: pc,
	})

	if err := engine.DDL(`CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReadWrite(ctx, func(rw *txcache.Tx) error {
		_, err := rw.Exec("INSERT INTO t (id, v) VALUES (1, 'hello')")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	waitForHorizon(t, node, engine)

	getV := txcache.MakeCacheable(client, "getV",
		func(tx *txcache.Tx, args ...txcache.Value) (string, error) {
			r, err := tx.Query("SELECT v FROM t WHERE id = ?", args...)
			if err != nil || len(r.Rows) == 0 {
				return "", err
			}
			return r.Rows[0][0].(string), nil
		})

	for i := 0; i < 2; i++ {
		tx, err := client.Begin(ctx, txcache.WithStaleness(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		v, err := getV(tx, int64(1))
		if err != nil || v != "hello" {
			t.Fatalf("getV = %q, %v", v, err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if client.Stats().Hits() == 0 {
		t.Fatal("no cache hit through the facade")
	}

	// Update + causal read.
	ts, err := client.ReadWrite(ctx, func(rw *txcache.Tx) error {
		_, err := rw.Exec("UPDATE t SET v = 'world' WHERE id = 1")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	waitForHorizon(t, node, engine)
	tx, err := client.Begin(ctx, txcache.WithStaleness(30*time.Second), txcache.WithMinTimestamp(ts))
	if err != nil {
		t.Fatal(err)
	}
	v, err := getV(tx, int64(1))
	tx.Commit()
	if err != nil || v != "world" {
		t.Fatalf("causal read = %q, %v", v, err)
	}
}

func waitForHorizon(t *testing.T, node *txcache.CacheServer, engine *txcache.Engine) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for node.LastInvalidation() < engine.LastCommit() {
		if time.Now().After(deadline) {
			t.Fatal("invalidation stream never caught up")
		}
		time.Sleep(time.Millisecond)
	}
}
