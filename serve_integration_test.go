package txcache_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/bench"
	"txcache/internal/loadgen"
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

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	ranges, err := loadgen.ProbeRanges(ctx, st.URL)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if ranges.WikiPages != 5 {
		t.Fatalf("probed wiki pages = %d, want 5", ranges.WikiPages)
	}

	target := loadgen.NewHTTPTarget(st.URL, ranges, 64, 20)
	defer target.Close()
	res := loadgen.Run(target, loadgen.Config{
		Schedule: loadgen.Burst{Peak: 800, Period: 400 * time.Millisecond, Duty: 200 * time.Millisecond},
		Duration: 4 * time.Second,
		Warmup:   500 * time.Millisecond,
		Workers:  64,
		Timeout:  10 * time.Second,
		Seed:     3,
	})
	t.Logf("open-loop burst: %v", res)
	if res.Errors > 0 || res.Timeouts > 0 || res.Dropped > 0 {
		t.Fatalf("burst run not clean: %v", res)
	}
	if res.Completed < 100 {
		t.Fatalf("too few requests completed: %v", res)
	}

	// The consistency oracle: /check re-reads a random item through the
	// cache and its bid table around the cache in one snapshot, and fails
	// the request if the cached aggregates disagree with the ground truth.
	check := loadgen.NewHTTPTarget(st.URL, ranges, 1, 0)
	check.CheckOnly = true
	defer check.Close()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := check.Do(ctx, rng, 0)
		cancel()
		if err != nil {
			t.Fatalf("consistency check %d: %v", i, err)
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

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	ranges, err := loadgen.ProbeRanges(ctx, st.URL)
	cancel()
	if err != nil {
		t.Fatal(err)
	}

	// Open-loop fire hose at ~3000/s nominal. The client-side timeout (8s)
	// exceeds the server's request timeout (5s), so every response the server
	// writes — including every shed 503 — is read and accounted by the load
	// generator, never abandoned first.
	target := loadgen.NewHTTPTarget(st.URL, ranges, 128, 0)
	defer target.Close()
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	resCh := make(chan *loadgen.Result, 1)
	go func() {
		resCh <- loadgen.Run(target, loadgen.Config{
			Schedule: loadgen.Poisson{PerSec: 3000},
			Duration: 60 * time.Second, // cut short by lcancel
			Workers:  128,
			Timeout:  8 * time.Second,
			Seed:     7,
			Ctx:      lctx,
		})
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
	t.Logf("load result: %v", res)

	shed, canceled := stats.Shed.Load(), stats.Canceled.Load()
	if shed != canceled {
		t.Fatalf("accounting broken: server shed %d but canceled %d", shed, canceled)
	}
	// Every server-side shed must surface on a client as either the 503 or
	// a broken connection — during shutdown a RST can beat a buffered 503 to
	// the client — and never as a silent hang: a shed whose client saw
	// nothing would show up as a timeout (client patience far exceeds every
	// server bound here).
	seen := res.Sheds + gateSheds.Load()
	if res.Sheds == 0 || seen > shed {
		t.Fatalf("shed accounting: server shed %d, clients observed %d", shed, seen)
	}
	if lost := shed - seen; lost > res.Errors {
		t.Fatalf("%d sheds unaccounted for: server shed %d, clients saw %d sheds and %d errors",
			lost, shed, seen, res.Errors)
	}
	if res.Timeouts != 0 {
		t.Fatalf("requests timed out client-side (shed responses went missing): %v", res)
	}
	if res.Completed == 0 {
		t.Fatalf("nothing completed before the drain: %v", res)
	}
}
