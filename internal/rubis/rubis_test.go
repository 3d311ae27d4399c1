package rubis

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
)

// testSite builds an in-process site: engine + 2 cache nodes + pincushion.
func testSite(t testing.TB, withCache bool) (*App, *db.Engine, *clock.Virtual) {
	t.Helper()
	clk := &clock.Virtual{}
	bus := invalidation.NewBus(true)
	engine := db.New(db.Options{Clock: clk, Bus: bus})
	pc := pincushion.New(pincushion.Config{Clock: clk, DB: engine, Retention: time.Minute})

	ds, err := Load(engine, TestScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]cacheserver.Node{}
	if withCache {
		for i := 0; i < 2; i++ {
			n := cacheserver.New(cacheserver.Config{Clock: clk})
			sub := bus.Subscribe()
			go n.ConsumeStream(sub)
			t.Cleanup(sub.Close)
			nodes[fmt.Sprintf("cache%d", i)] = n
		}
	}
	client := core.NewClient(core.Config{
		DB: core.EngineDB{Engine: engine}, Nodes: nodes, Pincushion: pc, Clock: clk,
	})
	return NewApp(client, ds), engine, clk
}

// settle waits for cache nodes to catch up; with the in-process bus the
// stream drains in microseconds.
func settle(app *App, engine *db.Engine) {
	time.Sleep(2 * time.Millisecond)
	_ = app
	_ = engine
}

func TestLoadDeterministic(t *testing.T) {
	clk := &clock.Virtual{}
	e1 := db.New(db.Options{Clock: clk})
	e2 := db.New(db.Options{Clock: clk})
	if _, err := Load(e1, TestScale, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(e2, TestScale, 7); err != nil {
		t.Fatal(err)
	}
	q := "SELECT COUNT(*), MAX(max_bid), MIN(start_date) FROM items WHERE category = 3"
	tx1, _ := e1.BeginTx(context.Background(), true, 0)
	tx2, _ := e2.BeginTx(context.Background(), true, 0)
	defer tx1.Abort()
	defer tx2.Abort()
	r1, err := tx1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := tx2.Query(q)
	if fmt.Sprint(r1.Rows) != fmt.Sprint(r2.Rows) {
		t.Fatalf("same seed, different data: %v vs %v", r1.Rows, r2.Rows)
	}
}

func TestLoadCounts(t *testing.T) {
	clk := &clock.Virtual{}
	e := db.New(db.Options{Clock: clk})
	ds, err := Load(e, TestScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := e.BeginTx(context.Background(), true, 0)
	defer tx.Abort()
	check := func(q string, want int64) {
		t.Helper()
		r, err := tx.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Rows[0][0].(int64); got != want {
			t.Fatalf("%s = %d, want %d", q, got, want)
		}
	}
	check("SELECT COUNT(*) FROM users WHERE id >= 0", int64(TestScale.Users))
	check("SELECT COUNT(*) FROM categories WHERE id >= 0", int64(TestScale.Categories))
	check("SELECT COUNT(*) FROM regions WHERE id >= 0", int64(TestScale.Regions))
	check("SELECT COUNT(*) FROM items WHERE id >= 0", int64(TestScale.ActiveItems))
	check("SELECT COUNT(*) FROM old_items WHERE id >= 0", int64(TestScale.OldItems))
	if ds.NewItemID() != int64(TestScale.ActiveItems+TestScale.OldItems)+1 {
		t.Fatal("item ID allocator misaligned with generated data")
	}
}

// beginRO begins a read-only transaction on a context that is never
// cancelled, which cannot fail.
func beginRO(c *core.Client, opts ...core.TxOption) *core.Tx {
	tx, err := c.Begin(context.Background(), opts...)
	if err != nil {
		panic(err)
	}
	return tx
}

func TestPagesRender(t *testing.T) {
	app, _, _ := testSite(t, true)
	tx := beginRO(app.C, core.WithStaleness(time.Minute))
	defer tx.Abort()

	home, err := app.Home(tx)
	if err != nil || !strings.Contains(home, "category-0") {
		t.Fatalf("home: %v %q", err, home)
	}
	item, err := app.ViewItem(tx, 0)
	if err != nil || !strings.Contains(item, "item-0") {
		t.Fatalf("view item: %v", err)
	}
	hist, err := app.ViewBidHistory(tx, 0)
	if err != nil || !strings.Contains(hist, "Bid history") {
		t.Fatalf("bid history: %v", err)
	}
	ui, err := app.ViewUserInfo(tx, 3)
	if err != nil || !strings.Contains(ui, "user3") {
		t.Fatalf("user info: %v", err)
	}
	sc, err := app.SearchItemsInCategory(tx, 1, 0)
	if err != nil || !strings.Contains(sc, "category") {
		t.Fatalf("search: %v", err)
	}
	about, err := app.AboutMe(tx, 3)
	if err != nil || !strings.Contains(about, "Your bids") {
		t.Fatalf("about me: %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuth(t *testing.T) {
	app, _, _ := testSite(t, true)
	tx := beginRO(app.C, core.WithStaleness(time.Minute))
	defer tx.Abort()
	page, err := app.PutBidAuth(tx, "user5", "password5", 0)
	if err != nil || strings.Contains(page, "failed") {
		t.Fatalf("valid login rejected: %v %q", err, page)
	}
	page, err = app.PutBidAuth(tx, "user5", "wrong", 0)
	if err != nil || !strings.Contains(page, "failed") {
		t.Fatalf("invalid login accepted: %v", err)
	}
	tx.Commit()
}

func TestStoreBidUpdatesItemAndInvalidates(t *testing.T) {
	app, engine, clk := testSite(t, true)

	// Warm the item page into the cache.
	tx := beginRO(app.C, core.WithStaleness(time.Minute))
	before, err := app.ViewItem(tx, 1)
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	if _, err := app.StoreBid(context.Background(), 2, 1, 99999, clk.Now().Unix()); err != nil {
		t.Fatal(err)
	}
	settle(app, engine)
	clk.Advance(10 * time.Second)

	// A freshness-bounded transaction must see the new maximum bid.
	tx = beginRO(app.C, core.WithStaleness(time.Second))
	after, err := app.ViewItem(tx, 1)
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if before == after {
		t.Fatal("item page did not change after bid")
	}
	if !strings.Contains(after, "99999") {
		t.Fatalf("new bid missing from page: %q", after)
	}
}

func TestStoreBuyNowDecrementsQuantity(t *testing.T) {
	app, engine, clk := testSite(t, true)
	tx, _ := engine.BeginTx(context.Background(), true, 0)
	r, err := tx.Query("SELECT quantity FROM items WHERE id = 2")
	if err != nil || len(r.Rows) == 0 {
		t.Fatalf("setup: %v", err)
	}
	q0 := r.Rows[0][0].(int64)
	tx.Abort()

	if _, err := app.StoreBuyNow(context.Background(), 3, 2, 1, clk.Now().Unix()); err != nil {
		t.Fatal(err)
	}
	tx, _ = engine.BeginTx(context.Background(), true, 0)
	r, _ = tx.Query("SELECT quantity FROM items WHERE id = 2")
	tx.Abort()
	if got := r.Rows[0][0].(int64); got != q0-1 {
		t.Fatalf("quantity = %d, want %d", got, q0-1)
	}
}

func TestRegisterUserThenLogin(t *testing.T) {
	app, engine, clk := testSite(t, true)
	_, _, err := app.RegisterUser(context.Background(), "brandnew", "s3cret", 1, clk.Now().Unix())
	if err != nil {
		t.Fatal(err)
	}
	settle(app, engine)
	clk.Advance(10 * time.Second)
	tx := beginRO(app.C, core.WithStaleness(time.Second))
	page, err := app.PutBidAuth(tx, "brandnew", "s3cret", 0)
	tx.Commit()
	if err != nil || strings.Contains(page, "failed") {
		t.Fatalf("new user cannot log in: %v", err)
	}
}

func TestEmulatorSmoke(t *testing.T) {
	app, engine, _ := testSite(t, true)
	res := RunEmulator(app, EmulatorConfig{
		Clients:   4,
		Staleness: 30 * time.Second,
		Duration:  400 * time.Millisecond,
		Seed:      99,
	})
	if res.Requests < 50 {
		t.Fatalf("emulator too slow: %+v", res)
	}
	if res.Errors > 0 {
		t.Fatalf("emulator errors: %+v", res)
	}
	// The mix should be roughly 85/15; allow wide tolerance on a short run.
	frac := float64(res.ReadWrite) / float64(res.Requests)
	if frac < 0.05 || frac > 0.30 {
		t.Fatalf("read/write fraction = %.2f, want ~0.15", frac)
	}
	if engine.Stats().Commits == 0 {
		t.Fatal("no commits recorded")
	}
	hits := app.C.Stats().Hits()
	if hits == 0 {
		t.Fatal("cache never hit during emulation")
	}
}

func TestEmulatorBaselineNoCache(t *testing.T) {
	app, _, _ := testSite(t, false)
	res := RunEmulator(app, EmulatorConfig{
		Clients:   2,
		Staleness: 30 * time.Second,
		Duration:  200 * time.Millisecond,
		Seed:      7,
	})
	if res.Errors > 0 {
		t.Fatalf("baseline errors: %+v", res)
	}
	if app.C.Stats().CachePuts.Load() != 0 {
		t.Fatal("baseline must not touch the cache")
	}
}

func TestInteractionNamesComplete(t *testing.T) {
	if numInteractions != 26 {
		t.Fatalf("RUBiS defines 26 interactions, got %d", numInteractions)
	}
	for i, n := range InteractionName {
		if n == "" {
			t.Fatalf("interaction %d unnamed", i)
		}
	}
}
