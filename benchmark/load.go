package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/core"
	"txcache/internal/rubis"
)

// This file is the load instrument: the request generator, the closed and
// open loops, and the sample arithmetic. It is owned by the benchmark so a
// later change to the program cannot move the numbers by editing it.

// outcome classifies one finished request.
type outcome uint8

const (
	outOK        outcome = iota // 2xx with a body
	outNotFound                 // 404: the application's answer about a vanished entity
	outShed                     // 503 carrying the shed marker
	outConflict                 // 503 without it: conflict retries exhausted, or the request deadline
	outHTTPError                // any other status
	outNetError                 // transport failure
	outTimeout                  // the client's own deadline
	outEmptyBody                // 2xx with an empty body
	numOutcomes
)

func (o outcome) failed() bool { return o != outOK && o != outNotFound }

// population bounds the entity IDs requests draw from: the first few hundred
// users and items and the first few regions of the dataset, uniformly. The
// set is small enough that the counted warm-up touches nearly all of it, so
// a cache that holds it answers from memory (browse_hot), and several times
// larger than the small cache (browse_cold). Item IDs below ActiveItems are
// all open auctions, so writes land on rows that exist.
type population struct {
	users, items, categories, regions int64
}

const (
	hotUsers   = 200
	hotItems   = 200
	hotRegions = 5
)

func populationOf(sc rubis.Scale) population {
	return population{
		users:      int64(min(sc.Users, hotUsers)),
		items:      int64(min(sc.ActiveItems, hotItems)),
		categories: int64(sc.Categories),
		regions:    int64(min(sc.Regions, hotRegions)),
	}
}

// params are the arguments of one request. Every field is drawn for every
// request, whichever route uses them, so the stream of draws does not depend
// on the mix and the HTTP and direct renderings of a stream are the same
// requests.
type params struct {
	user, user2, item         int64
	cat, region, page, rating int64
	amount, price             float64
	nonce                     int64
}

func drawParams(rng *rand.Rand, p population) params {
	return params{
		user:   rng.Int63n(p.users),
		user2:  rng.Int63n(p.users),
		item:   rng.Int63n(p.items),
		cat:    rng.Int63n(p.categories),
		region: rng.Int63n(p.regions),
		page:   rng.Int63n(3),
		rating: rng.Int63n(5),
		amount: 1 + rng.Float64()*200,
		price:  1 + rng.Float64()*50,
		nonce:  rng.Int63(),
	}
}

// route is one entry of the serve URL surface with the rubis interaction it
// runs. http renders a request for the HTTP front end; direct runs the same
// interaction on the application object, as the handler in serve does but
// without HTTP, for the traced run that isolates serve's own time.
type route struct {
	name   string
	kind   int // rubis interaction
	method string
	http   func(p params) (path string, form url.Values)
	direct func(ctx context.Context, a *rubis.App, p params) error
}

// page runs a read-only interaction the way serve.page does.
func page(fn func(a *rubis.App, tx *core.Tx, p params) error) func(context.Context, *rubis.App, params) error {
	return func(ctx context.Context, a *rubis.App, p params) error {
		_, err := a.C.ReadOnly(ctx, func(tx *core.Tx) error { return fn(a, tx, p) }, core.WithStaleness(staleness))
		return err
	}
}

func get(format string, args func(p params) []any) func(params) (string, url.Values) {
	return func(p params) (string, url.Values) { return fmt.Sprintf(format, args(p)...), nil }
}

func nowUnix() int64 {
	return time.Now().Unix()
}

var routes = map[string]route{
	"home": {kind: rubis.IHome, method: "GET",
		http:   func(params) (string, url.Values) { return "/", nil },
		direct: page(func(a *rubis.App, tx *core.Tx, _ params) error { _, err := a.Home(tx); return err })},
	"categories": {kind: rubis.IBrowseCategories, method: "GET",
		http:   func(params) (string, url.Values) { return "/browse/categories", nil },
		direct: page(func(a *rubis.App, tx *core.Tx, _ params) error { _, err := a.BrowseCategories(tx); return err })},
	"regions": {kind: rubis.IBrowseRegions, method: "GET",
		http:   func(params) (string, url.Values) { return "/browse/regions", nil },
		direct: page(func(a *rubis.App, tx *core.Tx, _ params) error { _, err := a.BrowseRegions(tx); return err })},
	"search_category": {kind: rubis.ISearchItemsInCategory, method: "GET",
		http: get("/search/category?cat=%d&page=%d", func(p params) []any { return []any{p.cat, p.page} }),
		direct: page(func(a *rubis.App, tx *core.Tx, p params) error {
			_, err := a.SearchItemsInCategory(tx, p.cat, p.page)
			return err
		})},
	"search_region": {kind: rubis.ISearchItemsInRegion, method: "GET",
		http: get("/search/region?region=%d&cat=%d", func(p params) []any { return []any{p.region, p.cat} }),
		direct: page(func(a *rubis.App, tx *core.Tx, p params) error {
			_, err := a.SearchItemsInRegion(tx, p.region, p.cat)
			return err
		})},
	"item": {kind: rubis.IViewItem, method: "GET",
		http:   get("/item?id=%d", func(p params) []any { return []any{p.item} }),
		direct: page(func(a *rubis.App, tx *core.Tx, p params) error { _, err := a.ViewItem(tx, p.item); return err })},
	"user": {kind: rubis.IViewUserInfo, method: "GET",
		http:   get("/user?id=%d", func(p params) []any { return []any{p.user} }),
		direct: page(func(a *rubis.App, tx *core.Tx, p params) error { _, err := a.ViewUserInfo(tx, p.user); return err })},
	"bids": {kind: rubis.IViewBidHistory, method: "GET",
		http:   get("/bids?item=%d", func(p params) []any { return []any{p.item} }),
		direct: page(func(a *rubis.App, tx *core.Tx, p params) error { _, err := a.ViewBidHistory(tx, p.item); return err })},
	"about": {kind: rubis.IAboutMe, method: "GET",
		http:   get("/about?user=%d", func(p params) []any { return []any{p.user} }),
		direct: page(func(a *rubis.App, tx *core.Tx, p params) error { _, err := a.AboutMe(tx, p.user); return err })},
	"auth": {kind: rubis.IPutBidAuth, method: "GET",
		http: get("/auth?nick=user%d&pass=password%d&item=%d", func(p params) []any { return []any{p.user, p.user, p.item} }),
		direct: page(func(a *rubis.App, tx *core.Tx, p params) error {
			_, err := a.PutBidAuth(tx, fmt.Sprintf("user%d", p.user), fmt.Sprintf("password%d", p.user), p.item)
			return err
		})},
	// The consistency oracle, riding inside every mix; it has no rubis
	// interaction number.
	"check": {kind: -1, method: "GET",
		http:   get("/check?item=%d", func(p params) []any { return []any{p.item} }),
		direct: page(func(a *rubis.App, tx *core.Tx, p params) error { return a.CheckItem(tx, p.item) })},

	"bid": {kind: rubis.IStoreBid, method: "POST",
		http: func(p params) (string, url.Values) {
			return "/bid", url.Values{"user": {itoa(p.user)}, "item": {itoa(p.item)}, "amount": {ftoa(p.amount)}}
		},
		direct: func(ctx context.Context, a *rubis.App, p params) error {
			_, err := a.StoreBid(ctx, p.user, p.item, p.amount, nowUnix())
			return err
		}},
	"buy_now": {kind: rubis.IStoreBuyNow, method: "POST",
		http: func(p params) (string, url.Values) {
			return "/buynow", url.Values{"user": {itoa(p.user)}, "item": {itoa(p.item)}, "qty": {"1"}}
		},
		direct: func(ctx context.Context, a *rubis.App, p params) error {
			_, err := a.StoreBuyNow(ctx, p.user, p.item, 1, nowUnix())
			return err
		}},
	"comment": {kind: rubis.IStoreComment, method: "POST",
		http: func(p params) (string, url.Values) {
			return "/comment", url.Values{"from": {itoa(p.user)}, "to": {itoa(p.user2)}, "item": {itoa(p.item)},
				"rating": {itoa(p.rating)}, "text": {"nice auction"}}
		},
		direct: func(ctx context.Context, a *rubis.App, p params) error {
			_, err := a.StoreComment(ctx, p.user, p.user2, p.item, p.rating, nowUnix(), "nice auction")
			return err
		}},
	"register_item": {kind: rubis.IRegisterItem, method: "POST",
		http: func(p params) (string, url.Values) {
			return "/item", url.Values{"seller": {itoa(p.user)}, "category": {itoa(p.cat)}, "region": {itoa(p.region)},
				"name": {fmt.Sprintf("bench-item-%d", p.nonce)}, "price": {ftoa(p.price)}}
		},
		direct: func(ctx context.Context, a *rubis.App, p params) error {
			_, _, err := a.RegisterItem(ctx, p.user, p.cat, p.region, fmt.Sprintf("direct-item-%d", p.nonce), p.price, nowUnix())
			return err
		}},
	"register_user": {kind: rubis.IRegisterUser, method: "POST",
		http: func(p params) (string, url.Values) {
			return "/user", url.Values{"nick": {fmt.Sprintf("bench-user-%d", p.nonce)}, "pass": {"pw"}, "region": {itoa(p.region)}}
		},
		direct: func(ctx context.Context, a *rubis.App, p params) error {
			// Another nickname than the HTTP rendering's: the traced phases
			// replay one stream both ways and nicknames are unique.
			_, _, err := a.RegisterUser(ctx, fmt.Sprintf("direct-user-%d", p.nonce), "pw", p.region, nowUnix())
			return err
		}},
}

func itoa(v int64) string   { return strconv.FormatInt(v, 10) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// mixEntry is one row of a weight table; weights are in 1/1000ths.
type mixEntry struct {
	route  string
	weight int
}

// mix is a resolved weight table.
type mix []struct {
	route
	upto int // cumulative weight
}

func resolveMix(entries []mixEntry) mix {
	var m mix
	acc := 0
	for _, e := range entries {
		r, ok := routes[e.route]
		if !ok {
			panic("benchmark: unknown route " + e.route)
		}
		r.name = e.route
		acc += e.weight
		m = append(m, struct {
			route
			upto int
		}{r, acc})
	}
	if acc != 1000 {
		panic(fmt.Sprintf("benchmark: mix sums to %d, want 1000", acc))
	}
	return m
}

func (m mix) pick(rng *rand.Rand) route {
	n := rng.Intn(1000)
	for _, e := range m {
		if n < e.upto {
			return e.route
		}
	}
	return m[len(m)-1].route
}

// doer executes one request drawn from rng and reports how it ended.
type doer func(ctx context.Context, rng *rand.Rand) outcome

// requestTimeout bounds one request at the client, above serve's own 2 s.
const requestTimeout = 5 * time.Second

// httpLoad drives the HTTP front end over keep-alive connections, one per
// concurrent client, and remembers the highest commit timestamp any write
// was acknowledged with (the X-Txcache-Commit header).
type httpLoad struct {
	do    doer
	acked atomic.Uint64
	tr    *http.Transport
}

func (h *httpLoad) close() { h.tr.CloseIdleConnections() }

func newHTTPLoad(base string, m mix, pop population, clients int) *httpLoad {
	h := &httpLoad{tr: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients, IdleConnTimeout: time.Minute}}
	cl := &http.Client{Transport: h.tr}
	h.do = func(ctx context.Context, rng *rand.Rand) outcome {
		rt := m.pick(rng)
		path, form := rt.http(drawParams(rng, pop))
		var body io.Reader
		if form != nil {
			body = strings.NewReader(form.Encode())
		}
		ctx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, rt.method, base+path, body)
		if err != nil {
			return outNetError
		}
		if form != nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
		resp, err := cl.Do(req)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return outTimeout
			}
			return outNetError
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return outNetError
		}
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			if n == 0 {
				return outEmptyBody
			}
			if ts, err := strconv.ParseUint(resp.Header.Get("X-Txcache-Commit"), 10, 64); err == nil {
				for old := h.acked.Load(); ts > old && !h.acked.CompareAndSwap(old, ts); old = h.acked.Load() {
				}
			}
			return outOK
		case resp.StatusCode == http.StatusNotFound:
			return outNotFound
		case resp.StatusCode == http.StatusServiceUnavailable:
			if resp.Header.Get("X-Txcache-Shed") != "" {
				return outShed
			}
			return outConflict
		}
		return outHTTPError
	}
	return h
}

// directDoer runs the same request stream on the application object.
func directDoer(a *rubis.App, m mix, pop population) doer {
	return func(ctx context.Context, rng *rand.Rand) outcome {
		rt := m.pick(rng)
		ctx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		err := rt.direct(ctx, a, drawParams(rng, pop))
		switch {
		case err == nil:
			return outOK
		case errors.Is(err, rubis.ErrNotFound):
			return outNotFound
		case errors.Is(err, core.ErrSerialization):
			return outConflict
		case errors.Is(err, context.DeadlineExceeded):
			return outTimeout
		}
		return outHTTPError
	}
}

// traced wraps a doer so each request is a root span.
func traced(rec *recorder, kind spanKind, do doer) doer {
	return func(ctx context.Context, rng *rand.Rand) outcome {
		idx := rec.beginRoot(kind)
		o := do(ctx, rng)
		rec.endRoot(idx)
		return o
	}
}

// loadResult is what one loop measured.
type loadResult struct {
	elapsed  time.Duration
	counts   [numOutcomes]uint64
	dropped  uint64  // open loop: arrivals the full dispatch queue refused
	lat      []int64 // ns per answered request: from send (closed) or from intended send (open)
	doneAt   []int64 // ns offset from loop start at which each answered request finished
	lateness []int64 // open loop: ns the generator enqueued an arrival after its intended time
}

func (r *loadResult) attempted() uint64 {
	n := r.dropped
	for _, c := range r.counts {
		n += c
	}
	return n
}

func (r *loadResult) failed() uint64 {
	n := r.dropped
	for o, c := range r.counts {
		if outcome(o).failed() {
			n += c
		}
	}
	return n
}

// answered is the number of requests the server answered (2xx or 404).
func (r *loadResult) answered() uint64 { return r.counts[outOK] + r.counts[outNotFound] }

func (r *loadResult) merge(o *loadResult) {
	for i := range r.counts {
		r.counts[i] += o.counts[i]
	}
	r.lat = append(r.lat, o.lat...)
	r.doneAt = append(r.doneAt, o.doneAt...)
}

func (r *loadResult) record(o outcome, lat, doneAt int64) {
	r.counts[o]++
	if !o.failed() {
		r.lat = append(r.lat, lat)
		r.doneAt = append(r.doneAt, doneAt)
	}
}

// workerSeed gives each client its own repeatable request stream.
func workerSeed(seed int64, worker int) int64 { return seed*1_000_003 + int64(worker)*7919 + 1 }

// runClosed drives clients callers that each send the next request when the
// previous one is answered, with no think time. It stops after dur, or after
// perClient requests per client when perClient > 0 (a counted warm-up fills
// the cache the same way on every commit, however fast the commit is).
func runClosed(ctx context.Context, do doer, clients int, seed int64, dur time.Duration, perClient int) *loadResult {
	results := make([]loadResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed(seed, w)))
			res := &results[w]
			for i := 0; ctx.Err() == nil; i++ {
				if perClient > 0 && i >= perClient {
					return
				}
				sent := time.Since(start)
				if perClient <= 0 && sent >= dur {
					return
				}
				o := do(ctx, rng)
				done := time.Since(start)
				res.record(o, int64(done-sent), int64(done))
			}
		}(w)
	}
	wg.Wait()
	total := &loadResult{elapsed: time.Since(start)}
	for i := range results {
		total.merge(&results[i])
	}
	return total
}

// openQueueCap bounds the open loop's dispatch backlog; an arrival that finds
// it full is dropped and counted, and a run with drops is invalid.
const openQueueCap = 1 << 16

// runOpen generates Poisson arrivals at rate per second for dur, whatever
// the system's pace, and has workers clients serve them. Latency runs from
// each arrival's intended send time, so a stall is charged to every request
// it delayed; lateness records how late the generator itself enqueued each
// arrival.
func runOpen(ctx context.Context, do doer, workers int, seed int64, rate float64, dur time.Duration) *loadResult {
	jobs := make(chan time.Duration, openQueueCap)
	results := make([]loadResult, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed(seed, w)))
			res := &results[w]
			for intended := range jobs {
				o := do(ctx, rng)
				done := time.Since(start)
				res.record(o, int64(done-intended), int64(done))
			}
		}(w)
	}

	total := &loadResult{}
	rng := rand.New(rand.NewSource(workerSeed(seed, -1)))
	next := time.Duration(0)
	for ctx.Err() == nil {
		next += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if next >= dur {
			break
		}
		if ahead := next - time.Since(start); ahead > 0 {
			time.Sleep(ahead)
		}
		select {
		case jobs <- next:
			total.lateness = append(total.lateness, int64(time.Since(start)-next))
		default:
			total.dropped++
		}
	}
	close(jobs)
	wg.Wait()
	total.elapsed = time.Since(start)
	for i := range results {
		total.merge(&results[i])
	}
	return total
}

// quantile returns the q-quantile of sorted (ascending) samples, 0 when
// there are none.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
