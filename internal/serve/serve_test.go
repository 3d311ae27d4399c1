package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"txcache/internal/clock"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/pincushion"
	"txcache/internal/rubis"
)

// fixture is an in-process site behind a real HTTP listener.
type fixture struct {
	srv  *Server
	url  string
	app  *rubis.App
	done chan error
}

func startFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	clk := clock.Real{}
	engine := db.New(db.Options{Clock: clk})
	// The pages run at core's default bound, 30 s; a pincushion trimming
	// sooner would answer them with no pins at all.
	pc := pincushion.New(pincushion.Config{Clock: clk, DB: engine, Staleness: 30 * time.Second})
	client := core.NewClient(core.Config{DB: core.EngineDB{Engine: engine}, Pincushion: pc, Clock: clk})
	ds, err := rubis.Load(engine, rubis.TestScale, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadWiki(engine, 5, time.Now().Unix()); err != nil {
		t.Fatal(err)
	}
	app := rubis.NewApp(client, ds)
	wiki, err := AttachWiki(context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{App: app, Wiki: wiki}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{srv: srv, url: "http://" + l.Addr().String(), app: app, done: make(chan error, 1)}
	go func() { f.done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
		client.Close()
	})
	return f
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func post(t *testing.T, u string, form url.Values) (*http.Response, string) {
	t.Helper()
	resp, err := http.PostForm(u, form)
	if err != nil {
		t.Fatalf("POST %s: %v", u, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// TestRoutes drives every route once over a real socket and checks status
// codes, error mapping, and the commit-timestamp headers.
func TestRoutes(t *testing.T) {
	f := startFixture(t, nil)

	for _, path := range []string{
		"/", "/browse/categories", "/browse/regions",
		"/search/category?cat=0&page=0", "/search/region?region=0&cat=0",
		"/item?id=0", "/user?id=0", "/bids?item=0", "/about?user=0",
		"/auth?nick=user0&pass=password0&item=0", "/check?item=0",
		"/wiki?title=page-0", "/healthz", "/statsz",
	} {
		resp, body := get(t, f.url+path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d (%s)", path, resp.StatusCode, strings.TrimSpace(body))
		}
	}

	// Vanished entities are 404s, not errors.
	if resp, _ := get(t, f.url+"/item?id=99999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET missing item = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, f.url+"/wiki?title=nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET missing wiki page = %d, want 404", resp.StatusCode)
	}
	// Unparsable parameters are 400s.
	if resp, _ := get(t, f.url+"/item?id=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET bad id = %d, want 400", resp.StatusCode)
	}

	// A write returns its commit timestamp.
	resp, body := post(t, f.url+"/bid", url.Values{
		"user": {"1"}, "item": {"0"}, "amount": {"999.50"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /bid = %d (%s)", resp.StatusCode, body)
	}
	commitTS := resp.Header.Get("X-Txcache-Commit")
	if commitTS == "" || commitTS == "0" {
		t.Fatalf("POST /bid returned no commit timestamp (header %q)", commitTS)
	}

	// Session causality over HTTP: a read threading min_ts=commit must see
	// the bid, no matter which snapshot staleness would otherwise allow.
	resp, body = get(t, f.url+"/item?id=0&min_ts="+commitTS)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /item min_ts = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "999.50") {
		t.Errorf("read-your-writes failed: item page after bid does not show the new max bid:\n%s", body)
	}
	// And the oracle agrees the post-write state is consistent.
	if resp, body := get(t, f.url+"/check?item=0&min_ts="+commitTS); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /check after bid = %d (%s)", resp.StatusCode, body)
	}

	st := f.srv.Stats().Snapshot()
	if st.Violations != 0 {
		t.Fatalf("consistency violations recorded: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("server errors recorded: %+v", st)
	}
}

// TestWikiEditInvalidatesRender checks the cross-table invalidation the wiki
// exists to exercise: after an edit, a causally-later read of the cached
// render shows the new body.
func TestWikiEditInvalidatesRender(t *testing.T) {
	f := startFixture(t, nil)

	// Warm the cached render.
	if resp, _ := get(t, f.url+"/wiki?title=page-1"); resp.StatusCode != http.StatusOK {
		t.Fatal("warm read failed")
	}
	resp, body := post(t, f.url+"/wiki", url.Values{
		"title": {"page-1"}, "body": {"EDITED-BODY-42"}, "editor": {"3"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /wiki = %d (%s)", resp.StatusCode, body)
	}
	ts := resp.Header.Get("X-Txcache-Commit")
	resp, body = get(t, f.url+"/wiki?title=page-1&min_ts="+ts)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /wiki after edit = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "EDITED-BODY-42") {
		t.Errorf("cached render survived the edit:\n%s", body)
	}
}

// TestDrainShedsQueuedKeepsInFlight is the deterministic drain choreography:
// with two slots held by blocking handlers and three more requests queued,
// Drain must shed exactly the queued three with marked 503s, let the two
// in-flight finish, and leave Shed == Canceled == 3 across the two layers
// that count them.
func TestDrainShedsQueuedKeepsInFlight(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	f := startFixture(t, func(cfg *Config) {
		cfg.MaxInFlight = 2
		cfg.RequestTimeout = 10 * time.Second
	})
	// Safe to mount here: the fixture has served no request yet, so nothing
	// reads the mux concurrently with this registration.
	f.srv.HandleFunc("GET /slow", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		started <- struct{}{}
		select {
		case <-release:
			io.WriteString(w, "slow done")
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})

	type reply struct {
		status int
		shed   string
	}
	replies := make(chan reply, 5)
	var wg sync.WaitGroup
	do := func() {
		defer wg.Done()
		resp, err := http.Get(f.url + "/slow")
		if err != nil {
			replies <- reply{status: -1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		replies <- reply{status: resp.StatusCode, shed: resp.Header.Get("X-Txcache-Shed")}
	}

	// Fill both slots.
	wg.Add(2)
	go do()
	go do()
	<-started
	<-started
	// Queue three more.
	wg.Add(3)
	go do()
	go do()
	go do()
	deadline := time.Now().Add(5 * time.Second)
	for f.srv.Queued() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want 3", f.srv.Queued())
		}
		time.Sleep(time.Millisecond)
	}

	// Drain: queued requests shed immediately; in-flight ones block until
	// released, and Drain must wait for them.
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- f.srv.Drain(ctx)
	}()
	var sheds int
	for i := 0; i < 3; i++ {
		r := <-replies
		if r.status != http.StatusServiceUnavailable || r.shed == "" {
			t.Fatalf("queued request got %d (shed=%q), want marked 503", r.status, r.shed)
		}
		sheds++
	}
	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned %v before in-flight requests finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain = %v, want nil (in-flight finished in time)", err)
	}
	for i := 0; i < 2; i++ {
		if r := <-replies; r.status != http.StatusOK {
			t.Fatalf("in-flight request got %d, want 200", r.status)
		}
	}
	wg.Wait()

	st := f.srv.Stats().Snapshot()
	if st.Shed != 3 || st.Canceled != 3 {
		t.Fatalf("Shed=%d Canceled=%d, want 3 and 3", st.Shed, st.Canceled)
	}
	if err := <-f.done; err != nil {
		t.Fatalf("Serve = %v after drain, want nil", err)
	}
}

// TestDrainDeadlineHardCancels holds one handler forever and drains with a
// short deadline: Drain must report the deadline, and the handler's context
// must be cancelled so the request unwinds and is accounted shed+canceled.
func TestDrainDeadlineHardCancels(t *testing.T) {
	started := make(chan struct{}, 1)
	f := startFixture(t, func(cfg *Config) {
		cfg.MaxInFlight = 1
		cfg.RequestTimeout = time.Minute
	})
	f.srv.HandleFunc("GET /stuck", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		started <- struct{}{}
		<-ctx.Done() // released only by cancellation
		return ctx.Err()
	})
	go func() {
		resp, err := http.Get(f.url + "/stuck")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := f.srv.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline exceeded", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("Drain took %v; hard cancel did not unwind the stuck handler", took)
	}
	waitFor(t, time.Second, func() bool {
		st := f.srv.Stats().Snapshot()
		return st.Shed == 1 && st.Canceled == 1
	}, "hard-cancelled request accounted as Shed=1 Canceled=1")
}

// TestDrainClosesUnusedConnections opens connections that never send a byte
// — what a client's connection pool or a load balancer's health probe leaves
// behind — and drains: http.Server.Shutdown alone would count each as busy
// for five seconds. One request is in flight meanwhile, so the drain still
// has something real to wait for and the accounting invariant something to
// hold over.
func TestDrainClosesUnusedConnections(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	f := startFixture(t, nil)
	f.srv.HandleFunc("GET /held", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		close(started)
		<-release
		_, err := io.WriteString(w, "done")
		return err
	})
	addr := strings.TrimPrefix(f.url, "http://")
	var idle []net.Conn
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		idle = append(idle, c)
	}
	waitFor(t, time.Second, func() bool {
		f.srv.freshMu.Lock()
		defer f.srv.freshMu.Unlock()
		return len(f.srv.fresh) == len(idle)
	}, "the server has accepted every unused connection")

	held := make(chan string, 1)
	go func() {
		resp, err := http.Get(f.url + "/held")
		if err != nil {
			held <- err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		held <- string(body)
	}()
	<-started
	time.AfterFunc(50*time.Millisecond, func() { close(release) })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := f.srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Drain took %v with only unused connections and a 50 ms request outstanding", took)
	}
	if got := <-held; got != "done" {
		t.Fatalf("in-flight request got %q, want it to finish", got)
	}
	for i, c := range idle {
		c.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
			t.Errorf("unused connection %d: read = %v, want closed by the drain", i, err)
		}
	}
	if st := f.srv.Stats().Snapshot(); st.Shed != st.Canceled {
		t.Fatalf("Shed %d != Canceled %d", st.Shed, st.Canceled)
	}
}

// TestBacklogShedding overloads a 1-slot, 2-queue server and checks that
// every client-observed marked 503 is matched by the Shed and Canceled
// counters — the cross-layer accounting invariant under real concurrency.
func TestBacklogShedding(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	f := startFixture(t, func(cfg *Config) {
		cfg.MaxInFlight = 1
		cfg.MaxQueue = 2
		cfg.RequestTimeout = 10 * time.Second
	})
	f.srv.HandleFunc("GET /slow", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		started <- struct{}{}
		select {
		case <-release:
			io.WriteString(w, "ok")
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})

	const total = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	var observedSheds, oks int
	wg.Add(1)
	go func() { // occupy the slot
		defer wg.Done()
		resp, err := http.Get(f.url + "/slow")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(f.url + "/item?id=0")
			if err != nil {
				t.Errorf("GET /item: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			mu.Lock()
			switch {
			case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("X-Txcache-Shed") != "":
				observedSheds++
			case resp.StatusCode == http.StatusOK:
				oks++
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
			mu.Unlock()
			resp.Body.Close()
		}()
	}
	// Wait for the dust to settle, then release the slot so queued /item
	// requests (at most MaxQueue of them) complete.
	waitFor(t, 5*time.Second, func() bool {
		st := f.srv.Stats().Snapshot()
		mu.Lock()
		defer mu.Unlock()
		return int(st.Shed)+oks+int(f.srv.Queued()) >= total
	}, "all overload requests resolved or queued")
	close(release)
	wg.Wait()

	st := f.srv.Stats().Snapshot()
	mu.Lock()
	defer mu.Unlock()
	if observedSheds == 0 {
		t.Fatal("overload produced no shed 503s; the test lost its race")
	}
	if uint64(observedSheds) != st.Shed {
		t.Errorf("client observed %d marked 503s, server counted Shed=%d", observedSheds, st.Shed)
	}
	if st.Shed != st.Canceled {
		t.Errorf("Shed=%d != Canceled=%d: a shed request escaped cancellation (or vice versa)", st.Shed, st.Canceled)
	}
	if observedSheds+oks != total {
		t.Errorf("sheds=%d + oks=%d != %d requests", observedSheds, oks, total)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStatszRanges checks the dataset ranges the load generator probes.
func TestStatszRanges(t *testing.T) {
	f := startFixture(t, nil)
	resp, body := get(t, f.url+"/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statsz = %d", resp.StatusCode)
	}
	for _, want := range []string{
		fmt.Sprintf(`"users":%d`, rubis.TestScale.Users),
		fmt.Sprintf(`"items":%d`, rubis.TestScale.ActiveItems+rubis.TestScale.OldItems),
		fmt.Sprintf(`"categories":%d`, rubis.TestScale.Categories),
		`"wikiPages":5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/statsz missing %s:\n%s", want, body)
		}
	}
	// After registering a user the range must grow.
	post(t, f.url+"/user", url.Values{"nick": {"fresh"}, "pass": {"pw"}, "region": {"0"}})
	_, body = get(t, f.url+"/statsz")
	if !strings.Contains(body, fmt.Sprintf(`"users":%d`, rubis.TestScale.Users+1)) {
		t.Errorf("/statsz user range did not grow after register:\n%s", body)
	}
}

// TestStatszTiers: each tier's counters sit under its name, as the tier
// sent them; a tier that does not answer shows its error there instead, and
// the others are still served.
func TestStatszTiers(t *testing.T) {
	f := startFixture(t, func(cfg *Config) {
		cfg.Tiers = map[string]func(context.Context) (json.RawMessage, error){
			"db": func(ctx context.Context) (json.RawMessage, error) {
				if _, ok := ctx.Deadline(); !ok {
					return nil, errors.New("fetched without a deadline")
				}
				return json.RawMessage(`{"db":{"versions":7}}`), nil
			},
			"cache 10.0.0.1:7500": func(context.Context) (json.RawMessage, error) {
				return nil, errors.New("connection refused")
			},
		}
	})
	_, body := get(t, f.url+"/statsz")
	var page struct {
		Serve *StatsSnapshot
		DB    struct{ DB struct{ Versions int } }
		Cache struct{ Error string } `json:"cache 10.0.0.1:7500"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("/statsz: %v\n%s", err, body)
	}
	if page.DB.DB.Versions != 7 || page.Cache.Error != "connection refused" || page.Serve == nil {
		t.Fatalf("/statsz tiers wrong: %+v\n%s", page, body)
	}
}

// TestNoPprofOnAppListener: the application listener serves no profiles.
// They are a daemon's opt-in -debug-addr (internal/debugz), and a library
// that linked them would switch on heap sampling in every program built on it.
func TestNoPprofOnAppListener(t *testing.T) {
	f := startFixture(t, nil)
	if resp, body := get(t, f.url+"/debug/pprof/heap?debug=1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/heap = %d, want 404:\n%.200s", resp.StatusCode, body)
	}
}
