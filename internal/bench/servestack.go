package bench

import (
	"context"
	"fmt"
	"net"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/rubis"
	"txcache/internal/serve"
)

// ServeStackConfig sizes a full-TCP deployment with an HTTP front end.
type ServeStackConfig struct {
	// Scale sizes the RUBiS dataset (default rubis.TestScale).
	Scale rubis.Scale
	// WikiPages seeds the wiki subset; 0 disables it.
	WikiPages int
	// CacheNodes is the cache-server count (default 2).
	CacheNodes int
	// CacheBytes is total cache capacity; <= 0 unlimited.
	CacheBytes int64
	// MaxInFlight / MaxQueue / RequestTimeout tune the server's admission
	// control (zero values take serve's defaults).
	MaxInFlight, MaxQueue int
	RequestTimeout        time.Duration
	// Staleness is the page staleness bound (default 10s).
	Staleness time.Duration
	Seed      int64
}

// ServeStack is the paper's Figure-1 topology with an application server in
// front, every hop over real loopback TCP: HTTP clients → txcache-serve →
// {cache nodes, database daemon, pincushion}, plus the daemon's invalidation
// push streams back to the nodes. The serve integration tests boot one, load
// it, and tear it down leak-free.
type ServeStack struct {
	Engine *db.Engine
	Client *core.Client
	App    *rubis.App
	Wiki   *serve.Wiki
	Srv    *serve.Server
	URL    string

	pc      *pincushion.Pincushion
	closers []func() // LIFO teardown: clients, listeners, subscriptions
}

// StartServeStack boots the whole topology on ephemeral loopback ports.
func StartServeStack(cfg ServeStackConfig) (st *ServeStack, err error) {
	if cfg.Scale.Users == 0 {
		cfg.Scale = rubis.TestScale
	}
	if cfg.CacheNodes <= 0 {
		cfg.CacheNodes = 2
	}
	if cfg.Staleness <= 0 {
		cfg.Staleness = 10 * time.Second
	}
	st = &ServeStack{}
	defer func() {
		if err != nil {
			st.closeAll()
		}
	}()
	listen := func() (net.Listener, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { l.Close() })
		return l, nil
	}

	clk := clock.Real{}
	bus := invalidation.NewBus(false)
	st.Engine = db.New(db.Options{Clock: clk, Bus: bus})

	// Cache nodes, each with its own TCP listener and an invalidation push
	// stream from the daemon (the txcache-dbd fan-out, in-process): acked,
	// retried, in-order — at-least-once delivery the node's timestamp dedup
	// turns into exactly-once.
	nodes := map[string]cacheserver.Node{}
	per := cfg.CacheBytes
	if per > 0 {
		per /= int64(cfg.CacheNodes)
	}
	for i := 0; i < cfg.CacheNodes; i++ {
		node := cacheserver.New(cacheserver.Config{
			CapacityBytes: per,
			MaxStaleness:  2 * (cfg.Staleness + time.Second),
			Clock:         clk,
		})
		l, lerr := listen()
		if lerr != nil {
			return nil, lerr
		}
		go node.Serve(l)

		pushCl, derr := cacheserver.Dial(l.Addr().String(), 1)
		if derr != nil {
			return nil, derr
		}
		sub := bus.Subscribe()
		pushed := make(chan struct{})
		go func() {
			defer close(pushed)
			// No context to pass: the stream lives as long as the stack and
			// ends, with an error that says so, when teardown closes pushCl.
			_ = pushCl.PushStream(nil, sub)
		}()
		// Teardown closes the subscription, then the push client under
		// whatever the stream still had to deliver, and waits for it to go.
		st.closers = append(st.closers, func() { <-pushed }, pushCl.Close, sub.Close)

		cn, derr := cacheserver.Dial(l.Addr().String(), 4)
		if derr != nil {
			return nil, derr
		}
		st.closers = append(st.closers, cn.Close)
		nodes[fmt.Sprintf("cache%d", i)] = cn
	}

	// Database daemon.
	dbL, err := listen()
	if err != nil {
		return nil, err
	}
	go (&dbnet.Server{Engine: st.Engine}).Serve(dbL)
	dbClient, err := dbnet.Dial(dbL.Addr().String(), 8)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, dbClient.Close)

	// Pincushion daemon, itself a dbnet client for pin placement.
	pcDB, err := dbnet.Dial(dbL.Addr().String(), 2)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, pcDB.Close)
	st.pc = pincushion.New(pincushion.Config{
		Clock: clk, DB: pcDB,
		Retention: 2 * (cfg.Staleness + time.Second),
		Staleness: cfg.Staleness + time.Second,
	})
	pcL, err := listen()
	if err != nil {
		return nil, err
	}
	go st.pc.Serve(pcL)
	pcClient, err := pincushion.Dial(pcL.Addr().String(), 4)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, pcClient.Close)

	st.Client = core.NewClient(core.Config{
		DB:         dbClient,
		Nodes:      nodes,
		Pincushion: pcClient,
		Clock:      clk,
	})
	st.closers = append(st.closers, st.Client.Close)

	// Load engine-side (dbnet carries no DDL), with the nodes already
	// subscribed so they replay every load commit.
	if _, err := rubis.Load(st.Engine, cfg.Scale, cfg.Seed+1); err != nil {
		return nil, err
	}
	if cfg.WikiPages > 0 {
		if err := serve.LoadWiki(st.Engine, cfg.WikiPages, time.Now().Unix()); err != nil {
			return nil, err
		}
	}

	// The application server recovers its dataset over the wire, exactly as
	// the standalone txcache-serve binary does against a remote daemon.
	actx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ds, err := rubis.Attach(actx, st.Client)
	if err != nil {
		return nil, fmt.Errorf("bench: attach: %w", err)
	}
	st.App = rubis.NewApp(st.Client, ds)
	if cfg.WikiPages > 0 {
		st.Wiki, err = serve.AttachWiki(actx, st.Client)
		if err != nil {
			return nil, fmt.Errorf("bench: attach wiki: %w", err)
		}
	}

	st.Srv = serve.New(serve.Config{
		App: st.App, Wiki: st.Wiki,
		MaxInFlight:    cfg.MaxInFlight,
		MaxQueue:       cfg.MaxQueue,
		RequestTimeout: cfg.RequestTimeout,
		Staleness:      cfg.Staleness,
	})
	httpL, err := listen()
	if err != nil {
		return nil, err
	}
	st.URL = "http://" + httpL.Addr().String()
	go st.Srv.Serve(httpL)
	return st, nil
}

// Stop drains the HTTP server, tears every connection and listener down,
// and then insists the database end up with zero pinned snapshots — a
// leaked pin would silently block vacuum forever, so teardown treats it as
// an error, sweeping the pincushion until the pins expire or ctx gives up.
func (s *ServeStack) Stop(ctx context.Context) error {
	var firstErr error
	if s.Srv != nil {
		if err := s.Srv.Drain(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("drain: %w", err)
		}
	}
	// Force-unpin while the pincushion's database connection is still open;
	// after the drain no transaction can be using these snapshots.
	for s.Engine.Stats().PinnedSnaps > 0 {
		if ctx.Err() != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("pin leak: %d snapshots still pinned at teardown", s.Engine.Stats().PinnedSnaps)
			}
			break
		}
		s.pc.SweepAll()
		time.Sleep(5 * time.Millisecond)
	}
	s.closeAll()
	return firstErr
}

// closeAll runs the teardown stack in LIFO order.
func (s *ServeStack) closeAll() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}
