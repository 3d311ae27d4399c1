package txcache_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/bench"
	"txcache/internal/rubis"
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

	st, err := bench.StartServeStack(bench.ServeStackConfig{
		Scale: rubis.TestScale, WikiPages: 5, Seed: 3,
	})
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
	if res.errors > 0 || res.timeouts > 0 || res.dropped > 0 {
		t.Fatalf("burst run not clean: %+v", *res)
	}
	if res.completed < 100 {
		t.Fatalf("too few requests completed: %+v", *res)
	}

	// The consistency oracle: /check re-reads a random item through the
	// cache and its bid table around the cache in one snapshot, and fails
	// the request if the cached aggregates disagree with the ground truth.
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

	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := st.Stop(sctx); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	stopped = true

	// Everything torn down: the goroutine population must return to (about)
	// its pre-boot level — a stuck server loop, push stream, or connection
	// handler would hold it up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+8 {
			break
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
	st, err := bench.StartServeStack(bench.ServeStackConfig{
		Scale:          rubis.TestScale,
		MaxInFlight:    maxInFlight,
		MaxQueue:       maxQueue,
		RequestTimeout: 5 * time.Second,
		Seed:           7,
	})
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
	if lost := shed - seen; lost > res.errors {
		t.Fatalf("%d sheds unaccounted for: server shed %d, clients saw %d sheds and %d errors",
			lost, shed, seen, res.errors)
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
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Dataset dataset }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Dataset.Items == 0 {
		t.Fatalf("statsz dataset %+v: %v", body.Dataset, err)
	}
	return body.Dataset
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

// loadCounts are the outcomes of an open-loop run, added to atomically.
type loadCounts struct{ completed, errors, sheds, timeouts, dropped uint64 }

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
		atomic.AddUint64(&c.errors, 1)
	}
}
