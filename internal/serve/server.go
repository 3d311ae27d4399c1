// Package serve is the HTTP application-server tier: the RUBiS interactions
// exposed as request handlers over the TxCache library's context-first
// session API. Every request runs under its own deadline;
// admission control bounds in-flight work and queue depth, shedding excess
// load with 503s instead of letting queues collapse; Drain implements
// graceful shutdown — in-flight requests finish, queued ones are shed, and
// past the drain deadline stragglers are hard-cancelled through the same
// context plumbing the library threads into every layer below.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/core"
	"txcache/internal/interval"
	"txcache/internal/rubis"
)

// Config configures a Server.
type Config struct {
	// App is the RUBiS application (required).
	App *rubis.App
	// RequestTimeout bounds each request end to end, queue wait included
	// (default 2s). The deadline travels down the library into the database
	// and cache round trips.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently executing requests (default 256).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 1024). Arrivals beyond it are shed immediately: a queue deeper than
	// this serves nobody within any deadline worth honoring.
	MaxQueue int
	// Staleness is the BEGIN-RO staleness bound applied to page requests;
	// 0 uses the library default.
	Staleness time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
	// Tiers are the other processes of the deployment — the database
	// daemon, which hosts the pincushion, as "db", each cache node — by
	// name, each with the call that fetches its counters (a service
	// client's StatsJSON).
	// /statsz embeds every tier's answer under its name, so it is one page
	// for the whole stack. Names must not be one of /statsz's own keys
	// (serve, client, queued, dataset); the calls must be safe for
	// concurrent use.
	Tiers map[string]func(context.Context) (json.RawMessage, error)
}

// tierTimeout bounds /statsz's fetch of one tier's counters.
const tierTimeout = 2 * time.Second

// Stats counts request outcomes. Shed is incremented where the 503 response
// is written (the HTTP layer); Canceled where the request's context is
// cancelled at admission (the admission layer). Every shed request is
// cancelled and every admission cancel is shed, so the two counters —
// maintained in different layers — must always agree; the tests hold the
// server to that.
type Stats struct {
	Requests   atomic.Uint64
	OK         atomic.Uint64
	NotFound   atomic.Uint64
	BadRequest atomic.Uint64
	Conflicts  atomic.Uint64 // serialization conflicts surfaced after retries
	Timeouts   atomic.Uint64 // requests that exhausted RequestTimeout mid-handler
	Errors     atomic.Uint64
	Violations atomic.Uint64 // consistency-oracle failures (always a bug)
	Shed       atomic.Uint64
	Canceled   atomic.Uint64
}

// StatsSnapshot is the JSON shape of Stats.
type StatsSnapshot struct {
	Requests   uint64 `json:"requests"`
	OK         uint64 `json:"ok"`
	NotFound   uint64 `json:"notFound"`
	BadRequest uint64 `json:"badRequest"`
	Conflicts  uint64 `json:"conflicts"`
	Timeouts   uint64 `json:"timeouts"`
	Errors     uint64 `json:"errors"`
	Violations uint64 `json:"violations"`
	Shed       uint64 `json:"shed"`
	Canceled   uint64 `json:"canceled"`
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Requests: s.Requests.Load(), OK: s.OK.Load(),
		NotFound: s.NotFound.Load(), BadRequest: s.BadRequest.Load(),
		Conflicts: s.Conflicts.Load(), Timeouts: s.Timeouts.Load(),
		Errors: s.Errors.Load(), Violations: s.Violations.Load(),
		Shed: s.Shed.Load(), Canceled: s.Canceled.Load(),
	}
}

// Handler is one application request handler: it serves r under ctx (which
// carries the request deadline and is cancelled on drain) or returns an
// error for the server to map onto a status code.
type Handler func(ctx context.Context, w http.ResponseWriter, r *http.Request) error

// errBadRequest marks unparsable request parameters (mapped to 400).
var errBadRequest = errors.New("serve: bad request")

// Server is the application server.
type Server struct {
	cfg   Config
	app   *rubis.App
	mux   *http.ServeMux
	hs    *http.Server
	slots chan struct{}

	queued    atomic.Int64
	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{} // closed when drain begins; sheds queued waiters

	// fresh holds connections accepted but yet to deliver a request
	// (http.StateNew). http.Server.Shutdown counts such a connection as busy
	// for five seconds; Drain closes them instead (closeFresh).
	freshMu sync.Mutex
	fresh   map[net.Conn]struct{}

	// hardCtx is cancelled when the drain deadline expires: every request
	// context has an AfterFunc hanging off it, so one cancel reaches every
	// in-flight transaction in every layer below.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	stats Stats
}

// New builds a server. Handlers are all mounted at construction; Serve may
// be called on multiple listeners.
func New(cfg Config) *Server {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1024
	}
	s := &Server{
		cfg:     cfg,
		app:     cfg.App,
		mux:     http.NewServeMux(),
		slots:   make(chan struct{}, cfg.MaxInFlight),
		drainCh: make(chan struct{}),
		fresh:   make(map[net.Conn]struct{}),
	}
	//lint:allow ctxflow process-lifetime root: hardCtx must outlive any one request and is cancelled only by Drain's force-close
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.hs = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second, ConnState: s.trackFresh}
	s.routes()
	return s
}

// Stats exposes the request counters.
func (s *Server) Stats() *Stats { return &s.stats }

// App is the application the server serves.
func (s *Server) App() *rubis.App { return s.app }

// Queued reports requests currently waiting for an execution slot.
func (s *Server) Queued() int64 { return s.queued.Load() }

// Serve accepts connections on l until Drain. A drain-initiated close
// returns nil.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Drain gracefully shuts the server down: new and queued requests are shed
// with 503s, in-flight ones run to completion, and when ctx's deadline
// expires first the stragglers are hard-cancelled through their request
// contexts and their connections closed. Returns nil when every in-flight
// request finished inside the deadline.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
		s.closeFresh()
	})
	err := s.hs.Shutdown(ctx)
	if err != nil {
		// Deadline expired with handlers still running: cancel every
		// outstanding request context (the AfterFunc in run() relays this
		// to each request), give handlers a moment to unwind through the
		// library's abort paths, then force-close what remains.
		s.hardCancel()
		//lint:allow ctxflow the caller's ctx already expired; the force-close grace period is deliberately detached and bounded
		cctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if s.hs.Shutdown(cctx) != nil {
			s.hs.Close()
		}
	}
	return err
}

// trackFresh is the http.Server.ConnState hook: it keeps s.fresh equal to the
// set of connections in StateNew. One accepted after the drain began is
// closed on the spot — draining is set before closeFresh takes freshMu, so
// every new connection is either in the map when the sweep runs or sees the
// flag here.
func (s *Server) trackFresh(c net.Conn, st http.ConnState) {
	if st == http.StateIdle {
		return // only reached from StateActive: a keep-alive connection between requests
	}
	s.freshMu.Lock()
	defer s.freshMu.Unlock()
	switch {
	case st != http.StateNew:
		delete(s.fresh, c)
	case s.draining.Load():
		c.Close()
	default:
		s.fresh[c] = struct{}{}
	}
}

// closeFresh closes every connection that has not sent a request byte: it
// has nothing to finish, and a request it sends from now on would only be
// shed.
func (s *Server) closeFresh() {
	s.freshMu.Lock()
	defer s.freshMu.Unlock()
	for c := range s.fresh {
		c.Close()
	}
	clear(s.fresh)
}

// logf logs through the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// handle mounts h at pattern behind admission control.
func (s *Server) handle(pattern string, h Handler) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.run(w, r, h)
	})
}

// shedResponse writes the load-shedding 503. The X-Txcache-Shed marker
// distinguishes shedding from the serialization-conflict 503, which is the
// server answering honestly under contention rather than refusing work.
func (s *Server) shedResponse(w http.ResponseWriter, why string) {
	s.stats.Shed.Add(1)
	w.Header().Set("X-Txcache-Shed", why)
	w.Header().Set("Retry-After", "1")
	http.Error(w, "shedding load: "+why, http.StatusServiceUnavailable)
}

// cancelQueued abandons a request at the admission layer: its context is
// cancelled so any work racing on it stops, and Canceled is counted here —
// the response layer counts Shed independently.
func (s *Server) cancelQueued(cancel context.CancelFunc) {
	s.stats.Canceled.Add(1)
	cancel()
}

// run is the request pipeline: deadline, admission, execution, error
// mapping.
func (s *Server) run(w http.ResponseWriter, r *http.Request, h Handler) {
	s.stats.Requests.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	if s.draining.Load() {
		s.cancelQueued(cancel)
		s.shedResponse(w, "draining")
		return
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.cancelQueued(cancel)
		s.shedResponse(w, "backlog")
		return
	}
	select {
	case s.slots <- struct{}{}:
		s.queued.Add(-1)
	case <-s.drainCh:
		s.queued.Add(-1)
		s.cancelQueued(cancel)
		s.shedResponse(w, "draining")
		return
	case <-ctx.Done():
		// The whole deadline elapsed waiting in the queue; the work never
		// started, so this is shedding, not a timeout.
		s.queued.Add(-1)
		s.cancelQueued(cancel)
		s.shedResponse(w, "queue-timeout")
		return
	}
	defer func() { <-s.slots }()

	err := h(ctx, w, r)
	switch {
	case err == nil:
		s.stats.OK.Add(1)
	case errors.Is(err, rubis.ErrNotFound):
		s.stats.NotFound.Add(1)
		http.Error(w, "not found", http.StatusNotFound)
	case errors.Is(err, rubis.ErrInconsistent):
		s.stats.Violations.Add(1)
		s.logf("serve: CONSISTENCY VIOLATION: %v", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case errors.Is(err, errBadRequest):
		s.stats.BadRequest.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, core.ErrSerialization):
		s.stats.Conflicts.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "serialization conflict, retry", http.StatusServiceUnavailable)
	case s.hardCtx.Err() != nil && ctx.Err() != nil:
		// Hard-cancelled at the drain deadline: the in-flight work was
		// cancelled (Canceled) and the client told to go elsewhere (Shed) —
		// the same pairing as a queued shed, kept in the same two layers.
		s.stats.Canceled.Add(1)
		s.shedResponse(w, "drain-deadline")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.stats.Timeouts.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "request deadline exceeded", http.StatusServiceUnavailable)
	default:
		s.stats.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// --- Parameter helpers.

func qint(r *http.Request, key string) (int64, error) {
	v, err := strconv.ParseInt(r.FormValue(key), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q", errBadRequest, key, r.FormValue(key))
	}
	return v, nil
}

func qfloat(r *http.Request, key string) (float64, error) {
	v, err := strconv.ParseFloat(r.FormValue(key), 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q", errBadRequest, key, r.FormValue(key))
	}
	return v, nil
}

// page runs fn in a read-only transaction and writes the rendered HTML. The
// optional min_ts parameter threads a previous commit's timestamp into the
// snapshot choice (session causality over HTTP: a client that just wrote
// passes the X-Txcache-Commit value it got back).
func (s *Server) page(ctx context.Context, w http.ResponseWriter, r *http.Request, fn func(tx *core.Tx) (string, error)) error {
	var opts []core.TxOption
	if s.cfg.Staleness > 0 {
		opts = append(opts, core.WithStaleness(s.cfg.Staleness))
	}
	if v := r.FormValue("min_ts"); v != "" {
		ts, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%w: min_ts=%q", errBadRequest, v)
		}
		opts = append(opts, core.WithMinTimestamp(interval.Timestamp(ts)))
	}
	var html string
	ts, err := s.app.C.ReadOnly(ctx, func(tx *core.Tx) error {
		var err error
		html, err = fn(tx)
		return err
	}, opts...)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("X-Txcache-Ts", strconv.FormatUint(uint64(ts), 10))
	_, err = io.WriteString(w, html)
	return err
}

// commit writes a write interaction's response: the commit timestamp goes
// out in X-Txcache-Commit for the client to thread into its next read.
func commit(w http.ResponseWriter, ts interval.Timestamp, body string) error {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("X-Txcache-Commit", strconv.FormatUint(uint64(ts), 10))
	_, err := io.WriteString(w, body)
	return err
}

// routes mounts the application surface.
func (s *Server) routes() {
	// Introspection endpoints bypass admission control: health checks and
	// stats scrapes must answer even when the request path is saturated.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /statsz", s.statsz)

	s.handle("GET /{$}", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		return s.page(ctx, w, r, s.app.Home)
	})
	s.handle("GET /browse/categories", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		return s.page(ctx, w, r, s.app.BrowseCategories)
	})
	s.handle("GET /browse/regions", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		return s.page(ctx, w, r, s.app.BrowseRegions)
	})
	s.handle("GET /search/category", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		cat, err := qint(r, "cat")
		if err != nil {
			return err
		}
		pg, err := qint(r, "page")
		if err != nil {
			return err
		}
		return s.page(ctx, w, r, func(tx *core.Tx) (string, error) {
			return s.app.SearchItemsInCategory(tx, cat, pg)
		})
	})
	s.handle("GET /search/region", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		region, err := qint(r, "region")
		if err != nil {
			return err
		}
		cat, err := qint(r, "cat")
		if err != nil {
			return err
		}
		return s.page(ctx, w, r, func(tx *core.Tx) (string, error) {
			return s.app.SearchItemsInRegion(tx, region, cat)
		})
	})
	s.handle("GET /item", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		id, err := qint(r, "id")
		if err != nil {
			return err
		}
		return s.page(ctx, w, r, func(tx *core.Tx) (string, error) {
			return s.app.ViewItem(tx, id)
		})
	})
	s.handle("GET /user", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		id, err := qint(r, "id")
		if err != nil {
			return err
		}
		return s.page(ctx, w, r, func(tx *core.Tx) (string, error) {
			return s.app.ViewUserInfo(tx, id)
		})
	})
	s.handle("GET /bids", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		item, err := qint(r, "item")
		if err != nil {
			return err
		}
		return s.page(ctx, w, r, func(tx *core.Tx) (string, error) {
			return s.app.ViewBidHistory(tx, item)
		})
	})
	s.handle("GET /about", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		user, err := qint(r, "user")
		if err != nil {
			return err
		}
		return s.page(ctx, w, r, func(tx *core.Tx) (string, error) {
			return s.app.AboutMe(tx, user)
		})
	})
	s.handle("GET /auth", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		item, err := qint(r, "item")
		if err != nil {
			return err
		}
		nick, pass := r.FormValue("nick"), r.FormValue("pass")
		return s.page(ctx, w, r, func(tx *core.Tx) (string, error) {
			return s.app.PutBidAuth(tx, nick, pass, item)
		})
	})
	s.handle("GET /check", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		item, err := qint(r, "item")
		if err != nil {
			return err
		}
		return s.page(ctx, w, r, func(tx *core.Tx) (string, error) {
			if err := s.app.CheckItem(tx, item); err != nil {
				return "", err
			}
			return "<html><body>consistent</body></html>", nil
		})
	})

	s.handle("POST /bid", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		user, err := qint(r, "user")
		if err != nil {
			return err
		}
		item, err := qint(r, "item")
		if err != nil {
			return err
		}
		amount, err := qfloat(r, "amount")
		if err != nil {
			return err
		}
		ts, err := s.app.StoreBid(ctx, user, item, amount, time.Now().Unix())
		if err != nil {
			return err
		}
		return commit(w, ts, "<html><body>bid placed</body></html>")
	})
	s.handle("POST /buynow", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		user, err := qint(r, "user")
		if err != nil {
			return err
		}
		item, err := qint(r, "item")
		if err != nil {
			return err
		}
		qty, err := qint(r, "qty")
		if err != nil {
			return err
		}
		ts, err := s.app.StoreBuyNow(ctx, user, item, qty, time.Now().Unix())
		if err != nil {
			return err
		}
		return commit(w, ts, "<html><body>purchased</body></html>")
	})
	s.handle("POST /comment", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		from, err := qint(r, "from")
		if err != nil {
			return err
		}
		to, err := qint(r, "to")
		if err != nil {
			return err
		}
		item, err := qint(r, "item")
		if err != nil {
			return err
		}
		rating, err := qint(r, "rating")
		if err != nil {
			return err
		}
		ts, err := s.app.StoreComment(ctx, from, to, item, rating, time.Now().Unix(), r.FormValue("text"))
		if err != nil {
			return err
		}
		return commit(w, ts, "<html><body>comment stored</body></html>")
	})
	s.handle("POST /item", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		seller, err := qint(r, "seller")
		if err != nil {
			return err
		}
		category, err := qint(r, "category")
		if err != nil {
			return err
		}
		region, err := qint(r, "region")
		if err != nil {
			return err
		}
		price, err := qfloat(r, "price")
		if err != nil {
			return err
		}
		id, ts, err := s.app.RegisterItem(ctx, seller, category, region, r.FormValue("name"), price, time.Now().Unix())
		if err != nil {
			return err
		}
		return commit(w, ts, fmt.Sprintf("<html><body>item %d listed</body></html>", id))
	})
	s.handle("POST /user", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		region, err := qint(r, "region")
		if err != nil {
			return err
		}
		id, ts, err := s.app.RegisterUser(ctx, r.FormValue("nick"), r.FormValue("pass"), region, time.Now().Unix())
		if err != nil {
			return err
		}
		return commit(w, ts, fmt.Sprintf("<html><body>user %d registered</body></html>", id))
	})
}

// statsz publishes the server's counters, the library's counters, the
// dataset ID ranges load generators sample from, and each tier's counters
// under its name (an {"error": …} object for a tier that did not answer).
func (s *Server) statsz(w http.ResponseWriter, r *http.Request) {
	users, items, cats, regs := s.app.DS.Ranges()
	payload := map[string]any{
		"serve":  s.stats.Snapshot(),
		"client": s.app.C.Stats().Snapshot(),
		"queued": s.Queued(),
		"dataset": map[string]int64{
			"users": users, "items": items, "categories": cats, "regions": regs,
		},
	}
	for name, fetch := range s.cfg.Tiers {
		ctx, cancel := context.WithTimeout(r.Context(), tierTimeout)
		blob, err := fetch(ctx)
		cancel()
		if err != nil {
			blob, _ = json.Marshal(map[string]string{"error": err.Error()})
		}
		payload[name] = blob
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(payload)
}
