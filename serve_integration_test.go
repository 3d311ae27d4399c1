package txcache_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/bench"
	"txcache/internal/cacheserver"
	"txcache/internal/interval"
	"txcache/internal/rpc/rpctest"
	"txcache/internal/serve"
)

// serve_integration_test.go drives the full application tier end to end:
// HTTP clients → txcache-serve → {cache nodes, database daemon, pincushion},
// every hop over real loopback TCP, under open-loop load — arrivals on a
// wall-clock schedule that does not slow down when the server does. It
// checks the two properties a production deployment needs beyond raw
// correctness: consistency holds under bursty concurrent load, and shutdown
// under fire shed-or-finishes every request with nothing lost or leaked.

// TestServeOpenLoopEndToEnd boots the whole topology, applies a bursty
// open-loop workload, and then asks the server's consistency oracle to
// re-audit the data. Teardown must leave zero pinned snapshots and no
// stray goroutines.
func TestServeOpenLoopEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	st, err := bench.StartServeStack(bench.ServeStackConfig{WikiPages: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			st.Stop(ctx)
		}
	}()

	ds := probeDataset(t, st.URL)
	if ds.WikiPages != 5 {
		t.Fatalf("probed wiki pages = %d, want 5", ds.WikiPages)
	}

	// Bursts of 800/s for 200 ms out of every 400 ms, silent between.
	res := openLoop(context.Background(), st.URL, ds, loadShape{
		perSec: 800, period: 400 * time.Millisecond, duty: 200 * time.Millisecond, dur: 4 * time.Second,
	}, 64, 10*time.Second, 3)
	t.Logf("open-loop burst: %+v", *res)
	if !res.clean() {
		t.Fatalf("burst run not clean: %+v", *res)
	}
	if res.completed < 100 {
		t.Fatalf("too few requests completed: %+v", *res)
	}

	audit(t, st, ds)
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := st.Stop(sctx); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	stopped = true
	settled(t, before)
}

// TestServeStackStatsz: the builder's /statsz is the deployment's, as
// txcache-serve's is — every tier's counters under its name, each fetched
// over that tier's own connection, the hosted pincushion's inside the db's.
func TestServeStackStatsz(t *testing.T) {
	st, err := bench.StartServeStack(bench.ServeStackConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := st.Stop(ctx); err != nil {
			t.Errorf("teardown: %v", err)
		}
	}()
	page := statsz(t, st.URL)
	if page["pincushion"] != nil {
		t.Errorf("/statsz has a pincushion tier: %s", page["pincushion"])
	}
	var db struct{ Pincushion map[string]any }
	if err := json.Unmarshal(page["db"], &db); err != nil || len(db.Pincushion) == 0 {
		t.Errorf("/statsz db = %s (%v); want the hosted pincushion's counters inside", page["db"], err)
	}
	want := []string{"db"}
	for _, addr := range st.Deployment.Caches {
		want = append(want, "cache "+addr)
	}
	for _, tier := range want {
		var body map[string]any
		if err := json.Unmarshal(page[tier], &body); err != nil || len(body) == 0 || body["error"] != nil {
			t.Errorf("/statsz %q = %s (%v); want the tier's counters", tier, page[tier], err)
		}
	}
}

// TestServeSurvivesCutPushStream cuts the database's invalidation stream to
// one node for two seconds under open-loop load, over the whole TCP
// topology: only that stream breaks — the library's connections to the node
// stay up — and then it heals. The node serves on with a horizon that stops
// moving, so the requests must all succeed and the consistency oracle must
// pass; within three seconds of the heal (a redial's backoff is up to one)
// the node must have caught up with every commit, and teardown must leak no
// pin and no goroutine.
func TestServeSurvivesCutPushStream(t *testing.T) {
	before := runtime.NumGoroutine()
	nw := new(rpctest.Net)
	st, err := bench.StartServeStack(bench.ServeStackConfig{Seed: 6, Net: nw})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			st.Stop(ctx)
		}
	}()
	ds := probeDataset(t, st.URL)
	// cache0's entry on /statsz is fetched over the library's own connection
	// to the node, so it also says that core → cache0 is up.
	horizon := func() interval.Timestamp {
		var node struct {
			Horizon interval.Timestamp
			Error   string
		}
		if err := json.Unmarshal(statsz(t, st.URL)["cache "+st.Deployment.Caches[0]], &node); err != nil || node.Error != "" {
			t.Fatalf("cache0's counters on /statsz: %v %s", err, node.Error)
		}
		return node.Horizon
	}

	resc := make(chan *loadCounts, 1)
	go func() {
		resc <- openLoop(context.Background(), st.URL, ds, loadShape{perSec: 400, dur: 4 * time.Second}, 32, 10*time.Second, 6)
	}()
	time.Sleep(time.Second)
	nw.Cut("db", "cache0")
	time.Sleep(2 * time.Second)
	if h, last := horizon(), st.Engine.LastCommit(); h >= last {
		t.Fatalf("cache0's horizon %d kept up with commit %d through the cut", h, last)
	}
	nw.Heal("db", "cache0")
	healed := time.Now()
	res := <-resc
	t.Logf("open loop across the cut: %+v", *res)
	if !res.clean() {
		t.Fatalf("run across the cut not clean: %+v", *res)
	}
	for h := horizon(); h != st.Engine.LastCommit(); h = horizon() {
		if time.Since(healed) > 3*time.Second {
			t.Fatalf("cache0's horizon %d, 3s after the heal; last commit %d", h, st.Engine.LastCommit())
		}
		time.Sleep(20 * time.Millisecond)
	}
	audit(t, st, ds)

	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := st.Stop(sctx); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	stopped = true
	settled(t, before)
}

// TestServeSurvivesCutPincushion cuts the library's link to the database
// daemon, which hosts the pincushion at the same address, for two seconds —
// four lease terms — under open-loop load, then heals it. No lease can be
// fetched across the cut (PinFetchEmpty must rise), and only cached pages
// can be served. No snapshot may stay pinned once the stack is stopped
// (whoever placed a pin removes it), the consistency oracle must pass, and
// no goroutine may be left behind. A request may fail only as an error
// response within its deadline.
func TestServeSurvivesCutPincushion(t *testing.T) {
	t.Run("CoreToDB", func(t *testing.T) {
		before := runtime.NumGoroutine()
		nw := new(rpctest.Net)
		st, err := bench.StartServeStack(bench.ServeStackConfig{Seed: 10, Net: nw})
		if err != nil {
			t.Fatal(err)
		}
		stopped := false
		defer func() {
			if !stopped {
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				defer cancel()
				st.Stop(ctx)
			}
		}()
		ds := probeDataset(t, st.URL)

		// The load outlasts the heal by two seconds, so every connection the
		// cut broke has been redialed (a backoff is at most one) before the
		// oracle runs.
		resc := make(chan *loadCounts, 1)
		go func() {
			resc <- openLoop(context.Background(), st.URL, ds, loadShape{perSec: 400, dur: 5 * time.Second}, 32, 10*time.Second, 10)
		}()
		time.Sleep(time.Second)
		empty := st.App.C.Stats().PinFetchEmpty.Load()
		nw.Cut("core", "db")
		time.Sleep(2 * time.Second)
		nw.Heal("core", "db")
		empty = st.App.C.Stats().PinFetchEmpty.Load() - empty
		res := <-resc
		placed, swept := st.App.C.Stats().PinsPlaced.Load(), st.App.C.Stats().SweptRetries.Load()
		audit(t, st, ds)

		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		stopErr := st.Stop(sctx)
		stopped = true
		t.Logf("core → db cut for 2s: %+v; pinFetchEmpty +%d across the cut; pinsPlaced %d; sweptRetries %d; %d snapshots pinned after Stop",
			*res, empty, placed, swept, st.Engine.PinnedCount())
		if stopErr != nil {
			t.Fatalf("teardown: %v", stopErr)
		}
		if empty == 0 {
			t.Fatal("no lease fetch came back empty across the cut: the pincushion was still reachable")
		}
		if res.errors > 0 || res.timeouts > 0 || res.dropped > 0 {
			t.Fatalf("run across the cut: %+v", *res)
		}
		settled(t, before)
	})
}

// TestServeSurvivesStreamOverflow cuts cache0's invalidation stream while more
// commits go by than the bus keeps for a subscriber (16,384 messages), so the
// partition outlasts what the database holds for the node. cache1, whose
// stream stays up, is paced so it never falls that far behind, and crosses no
// gap. After the heal cache0 crosses exactly one gap and is current within
// three seconds (a redial's backoff is up to one); every timestamp published
// since the cut was either applied by cache0 or counted as dropped by the
// bus; the consistency oracle passes; and teardown leaks no pin and no
// goroutine. It logs how long cache0 took to be current and its hit ratio
// over the two seconds of load that follow the heal.
func TestServeSurvivesStreamOverflow(t *testing.T) {
	const commits = 16<<10 + 1000
	before := runtime.NumGoroutine()
	nw := new(rpctest.Net)
	st, err := bench.StartServeStack(bench.ServeStackConfig{Seed: 8, Net: nw})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			st.Stop(ctx)
		}
	}()
	ds := probeDataset(t, st.URL)
	node := func(i int) cacheserver.Stats {
		var node struct {
			cacheserver.Stats
			Error string
		}
		if err := json.Unmarshal(statsz(t, st.URL)["cache "+st.Deployment.Caches[i]], &node); err != nil || node.Error != "" {
			t.Fatalf("cache%d's counters on /statsz: %v %s", i, err, node.Error)
		}
		return node.Stats
	}
	// current waits until node i has applied every commit, and returns its
	// counters then.
	current := func(i int, within time.Duration) cacheserver.Stats {
		deadline := time.Now().Add(within)
		for {
			s := node(i)
			if s.Horizon == st.Engine.LastCommit() {
				return s
			}
			if time.Now().After(deadline) {
				t.Fatalf("cache%d's horizon %d, last commit %d", i, s.Horizon, st.Engine.LastCommit())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	commit := func(src string, v int64) {
		tx, err := st.Engine.BeginTx(context.Background(), false, 0)
		if err == nil {
			_, err = tx.Exec(src, v)
		}
		if err == nil {
			_, err = tx.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	// Warm both nodes, then give the partition a table of its own, so what it
	// commits names nothing the pages cached.
	if res := openLoop(context.Background(), st.URL, ds, loadShape{perSec: 400, dur: time.Second}, 32, 10*time.Second, 8); !res.clean() {
		t.Fatalf("warm-up not clean: %+v", *res)
	}
	if err := st.Engine.DDL("CREATE TABLE partition (id BIGINT PRIMARY KEY, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	commit("INSERT INTO partition (id, v) VALUES (1, ?)", 0)
	from, other := current(0, 5*time.Second), current(1, 5*time.Second)
	cut, dropped := st.Engine.LastCommit(), st.Engine.Stats().StreamDropped

	var logged lockedBuffer
	log.SetOutput(io.MultiWriter(os.Stderr, &logged))
	defer log.SetOutput(os.Stderr)
	nw.Cut("db", "cache0")
	for i := 1; i <= commits; i++ {
		commit("UPDATE partition SET v = ? WHERE id = 1", int64(i))
		for i%256 == 0 && st.Engine.LastCommit()-node(1).Horizon > 4096 {
			time.Sleep(time.Millisecond)
		}
	}
	if s := current(1, 5*time.Second); s.Invalidations-other.Invalidations != commits {
		t.Fatalf("cache1 applied %d of the %d messages published while cache0 was cut", s.Invalidations-other.Invalidations, commits)
	}
	if n := strings.Count(logged.String(), "invalidation stream gap"); n != 0 {
		t.Fatalf("%d gaps crossed before the heal, want none:\n%s", n, logged.String())
	}

	atHeal, last := node(0), st.Engine.LastCommit()
	nw.Heal("db", "cache0")
	healed := time.Now()
	resc := make(chan *loadCounts, 1)
	go func() {
		resc <- openLoop(context.Background(), st.URL, ds, loadShape{perSec: 400, dur: 2 * time.Second}, 32, 10*time.Second, 9)
	}()
	for h := node(0).Horizon; h < last; h = node(0).Horizon {
		if time.Since(healed) > 3*time.Second {
			t.Fatalf("cache0's horizon %d, 3s after the heal; %d at the heal", h, last)
		}
		time.Sleep(5 * time.Millisecond)
	}
	caughtUp := time.Since(healed)
	if res := <-resc; !res.clean() {
		t.Fatalf("run after the heal not clean: %+v", *res)
	}
	after := node(0)
	end := current(0, 3*time.Second-time.Since(healed))
	applied, skipped := end.Invalidations-from.Invalidations, st.Engine.Stats().StreamDropped-dropped
	t.Logf("cache0 current %v after the heal; hit ratio %.3f over the 2s after it (%d lookups); since the cut %d messages applied + %d dropped, %d published",
		caughtUp.Round(time.Millisecond), float64(after.Hits-atHeal.Hits)/float64(after.Lookups-atHeal.Lookups),
		after.Lookups-atHeal.Lookups, applied, skipped, end.Horizon-cut)
	if applied+skipped != uint64(end.Horizon-cut) {
		t.Fatalf("cache0 applied %d and the bus dropped %d of the %d messages published since the cut", applied, skipped, end.Horizon-cut)
	}
	if n := strings.Count(logged.String(), "invalidation stream gap"); n != 1 {
		t.Fatalf("%d gaps crossed, want one:\n%s", n, logged.String())
	}
	audit(t, st, ds)

	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := st.Stop(sctx); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	stopped = true
	settled(t, before)
}

// lockedBuffer is a log destination a test reads while the stack writes to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// audit is the consistency oracle: /check re-reads a random item through
// the cache and its bid table around the cache in one snapshot, and fails
// the request if the cached aggregates disagree with the ground truth. 30
// calls must pass, and the server must have counted no violation at all.
func audit(t *testing.T, st *bench.ServeStack, ds dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/check?item=%d", st.URL, rng.Int63n(ds.Items)))
		if err != nil {
			t.Fatalf("consistency check %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("consistency check %d: %s: %s", i, resp.Status, body)
		}
	}
	if v := st.Srv.Stats().Violations.Load(); v > 0 {
		t.Fatalf("%d consistency violations under open-loop load", v)
	}
}

// settled waits for the goroutine population to return to (about) its
// pre-boot level once everything is torn down — a stuck server loop, push
// stream, or connection handler would hold it up.
func settled(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+8 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after teardown\n%s",
				before, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestServeDrainUnderFire overloads a deliberately tiny server (2 in-flight
// slots, 8 queue slots) and drains it mid-storm. The contract: drain
// completes within its bound, every queued request is shed, the server's
// Shed and Canceled counters agree exactly, and every shed surfaces at a
// client as a 503 or a connection error — no request just vanishes.
//
// Saturation is deliberate, not hoped for: at ~0.2 ms per request two slots
// clear 3000 req/s with an empty queue most of the time, so two gate
// requests park in both slots until the drain has emptied the queue. With
// the slots held the storm fills the queue within milliseconds and nothing
// but the drain can empty it again.
func TestServeDrainUnderFire(t *testing.T) {
	const maxInFlight, maxQueue = 2, 8
	st, err := bench.StartServeStack(bench.ServeStackConfig{Seed: 7, Serve: serve.Config{
		MaxInFlight:    maxInFlight,
		MaxQueue:       maxQueue,
		RequestTimeout: 5 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := st.Stop(ctx); err != nil {
			t.Errorf("teardown: %v", err)
		}
	}()

	entered := make(chan struct{}, maxInFlight)
	release := make(chan struct{})
	st.Srv.HandleFunc("/gate", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return ctx.Err()
		}
		_, err := io.WriteString(w, "ok")
		return err
	})

	ds := probeDataset(t, st.URL)

	// Open-loop fire hose at ~3000/s nominal. The client-side timeout (8s)
	// exceeds the server's request timeout (5s), so every response the server
	// writes — including every shed 503 — is read and accounted by the load
	// generator, never abandoned first.
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	resCh := make(chan *loadCounts, 1)
	go func() {
		resCh <- openLoop(lctx, st.URL, ds, loadShape{perSec: 3000, dur: time.Minute}, 128, 8*time.Second, 7) // cut short by lcancel
	}()

	// Let the storm establish itself (and complete some requests) first.
	stats := st.Srv.Stats()
	deadline := time.Now().Add(20 * time.Second)
	for stats.Requests.Load() < 300 {
		if time.Now().After(deadline) {
			t.Fatal("load never ramped up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Park a gate request in every slot. A gate request that loses the race
	// for the queue is shed like any other; it counts on the client side of
	// the shed accounting below and tries again.
	var gateSheds atomic.Uint64
	var gates sync.WaitGroup
	for i := 0; i < maxInFlight; i++ {
		gates.Add(1)
		go func() {
			defer gates.Done()
			for {
				resp, err := http.Get(st.URL + "/gate")
				if err != nil {
					t.Errorf("gate request: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.Header.Get("X-Txcache-Shed") == "" {
					return
				}
				gateSheds.Add(1)
			}
		}()
	}
	for i := 0; i < maxInFlight; i++ {
		select {
		case <-entered:
		case <-time.After(20 * time.Second):
			t.Fatal("gate requests never reached their slots")
		}
	}
	for st.Srv.Queued() < maxQueue {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled behind the gates: %d waiting", st.Srv.Queued())
		}
		time.Sleep(time.Millisecond)
	}

	// Drain with both slots held and the queue full: Drain cannot return
	// before the gates do, so it runs beside the test, which opens the gates
	// once the drain has shed every waiter.
	preShed := stats.Shed.Load()
	start := time.Now()
	drained := make(chan error, 1)
	go func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		drained <- st.Srv.Drain(dctx)
	}()
	for st.Srv.Queued() > 0 {
		if time.Since(start) > 3*time.Second {
			t.Fatalf("drain left %d requests queued behind held slots", st.Srv.Queued())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain under fire: %v", err)
	}
	gates.Wait()
	t.Logf("drained in %v (%d shed before, %d after)", time.Since(start), preShed, stats.Shed.Load())
	if got := stats.Shed.Load() - preShed; got < maxQueue {
		t.Fatalf("drain shed %d requests, want at least the %d that were queued", got, maxQueue)
	}

	// Give workers a beat to read any already-written responses, then stop
	// the arrival schedule; post-drain arrivals see connection-refused and
	// count as plain errors, which is exactly what a dead listener earns.
	time.Sleep(300 * time.Millisecond)
	lcancel()
	res := <-resCh
	t.Logf("load result: %+v", *res)

	shed, canceled := stats.Shed.Load(), stats.Canceled.Load()
	if shed != canceled {
		t.Fatalf("accounting broken: server shed %d but canceled %d", shed, canceled)
	}
	// Every server-side shed must surface on a client as either the 503 or
	// a broken connection — during shutdown a RST can beat a buffered 503 to
	// the client — and never as a silent hang: a shed whose client saw
	// nothing would show up as a timeout (client patience far exceeds every
	// server bound here).
	seen := res.sheds + gateSheds.Load()
	if res.sheds == 0 || seen > shed {
		t.Fatalf("shed accounting: server shed %d, clients observed %d", shed, seen)
	}
	if lost := shed - seen; lost > res.errors+res.failed {
		t.Fatalf("%d sheds unaccounted for: server shed %d, clients saw %d sheds and %d errors",
			lost, shed, seen, res.errors+res.failed)
	}
	if res.timeouts != 0 {
		t.Fatalf("requests timed out client-side (shed responses went missing): %+v", *res)
	}
	if res.completed == 0 {
		t.Fatalf("nothing completed before the drain: %+v", *res)
	}
}

// dataset is what /statsz says exists, so generated requests hit real rows.
type dataset struct{ Users, Items, Categories, Regions, WikiPages int64 }

func probeDataset(t *testing.T, base string) dataset {
	t.Helper()
	var d dataset
	if err := json.Unmarshal(statsz(t, base)["dataset"], &d); err != nil || d.Items == 0 {
		t.Fatalf("statsz dataset %+v: %v", d, err)
	}
	return d
}

// statsz reads /statsz: each of its entries, by name.
func statsz(t *testing.T, base string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

// request draws one request of a RUBiS-shaped mix: page reads — the /check
// oracle among them, riding inside the load — and 12% bids. One in twenty
// arrives on a fresh connection, as new users do.
func (d dataset) request(ctx context.Context, base string, rng *rand.Rand) *http.Request {
	id := func(n int64) string { return fmt.Sprint(rng.Int63n(n)) }
	item := id(d.Items)
	pages := []string{"/", "/item?id=" + item, "/bids?item=" + item, "/check?item=" + item,
		"/user?id=" + id(d.Users), "/search/category?page=0&cat=" + id(d.Categories),
		"/search/region?region=" + id(d.Regions) + "&cat=" + id(d.Categories)}
	if d.WikiPages > 0 {
		pages = append(pages, "/wiki?title=page-"+id(d.WikiPages))
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+pages[rng.Intn(len(pages))], nil)
	if rng.Intn(100) < 12 {
		bid := url.Values{"user": {id(d.Users)}, "item": {item}, "amount": {id(200)}}
		req, _ = http.NewRequestWithContext(ctx, http.MethodPost, base+"/bid", strings.NewReader(bid.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	req.Close = rng.Intn(20) == 0
	return req
}

// loadShape is an arrival process: Poisson at perSec for dur — during the
// first duty of every period, silent for the rest, when period is set.
type loadShape struct {
	perSec            float64
	period, duty, dur time.Duration
}

// loadCounts are the outcomes of an open-loop run, added to atomically:
// errors are requests that got no response, failed those answered with a
// server error other than a shed or a conflict's 503.
type loadCounts struct{ completed, errors, failed, sheds, timeouts, dropped uint64 }

// clean reports a run in which every request was answered, and none with a
// failure.
func (c *loadCounts) clean() bool { return c.errors+c.failed+c.timeouts+c.dropped == 0 }

// openLoop offers requests on shape's schedule until it ends or ctx does.
// Arrivals go on a queue that workers take them from, so the schedule never
// waits for a reply — the load does not slow down when the server does —
// and one that finds the queue full is dropped and counted.
func openLoop(ctx context.Context, base string, d dataset, shape loadShape, workers int, timeout time.Duration, seed int64) *loadCounts {
	var c loadCounts
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	jobs := make(chan struct{}, 1<<12) // the backlog arrivals may wait in: seconds of the fastest schedule
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for range jobs {
				rctx, cancel := context.WithTimeout(ctx, timeout)
				c.record(rctx, client, d.request(rctx, base, rng))
				cancel()
			}
		}(rand.New(rand.NewSource(seed + int64(w) + 1)))
	}
	rng, start := rand.New(rand.NewSource(seed)), time.Now()
arrivals:
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / shape.perSec * float64(time.Second))
		if shape.period > 0 && at%shape.period >= shape.duty {
			at += shape.period - at%shape.period
		}
		if at >= shape.dur {
			break
		}
		select {
		case <-ctx.Done():
			break arrivals
		case <-time.After(time.Until(start.Add(at))):
		}
		select {
		case jobs <- struct{}{}:
		default:
			atomic.AddUint64(&c.dropped, 1)
		}
	}
	close(jobs)
	wg.Wait()
	return &c
}

// record issues req and files its outcome. A 404 or a serialization
// conflict's 503 is the server answering, not failing.
func (c *loadCounts) record(ctx context.Context, client *http.Client, req *http.Request) {
	resp, err := client.Do(req)
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			atomic.AddUint64(&c.timeouts, 1)
		} else {
			atomic.AddUint64(&c.errors, 1)
		}
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.Header.Get("X-Txcache-Shed") != "":
		atomic.AddUint64(&c.sheds, 1)
	case resp.StatusCode < 500 || resp.StatusCode == http.StatusServiceUnavailable:
		atomic.AddUint64(&c.completed, 1)
	default:
		atomic.AddUint64(&c.failed, 1)
	}
}
