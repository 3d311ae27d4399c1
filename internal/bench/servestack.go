package bench

import (
	"context"
	"fmt"
	"net"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/rpc"
	"txcache/internal/rubis"
	"txcache/internal/serve"
)

// ServeStackConfig sizes a deployment of two unbounded cache nodes over the
// RUBiS test-scale dataset, with an HTTP front end.
type ServeStackConfig struct {
	Seed int64
	// Serve configures the application server (App and Tiers are
	// Connect's to fill in). Its Staleness, the page staleness bound
	// (default 10s), also sizes what the nodes and the pincushion retain.
	Serve serve.Config
	// Net is what every tier listens and dials on, as "db" (the pincushion
	// too), "cache0", "cache1", "core" and "serve" (default rpc.TCP). A test
	// puts faults between two tiers here.
	Net rpc.Net
}

// ServeStack is the paper's Figure-1 topology with an application server in
// front, every hop over the configured Net: HTTP clients → txcache-serve →
// {cache nodes, database daemon and the pincushion it hosts}, plus the
// daemon's invalidation push streams back to the nodes. Each part is wired by
// the function its daemon runs: cacheserver.Feed and pincushion.Start, as
// txcache-dbd feeds its nodes and hosts the pincushion, and serve.Connect, as
// txcache-serve starts. The integration tests and examples/auction boot one, load it, and
// tear it down leak-free.
type ServeStack struct {
	Engine *db.Engine
	App    *rubis.App
	Srv    *serve.Server
	URL    string
	// Deployment is what the application server dialed: every tier's address
	// on the Net, cache0's first among the Caches.
	Deployment serve.Deployment

	closers []func() // LIFO teardown: clients, pincushion, listeners, subscriptions
}

// StartServeStack boots the whole topology on cfg.Net.
func StartServeStack(cfg ServeStackConfig) (st *ServeStack, err error) {
	if cfg.Serve.Staleness <= 0 {
		cfg.Serve.Staleness = 10 * time.Second
	}
	if cfg.Net == nil {
		cfg.Net = rpc.TCP
	}
	st = &ServeStack{Deployment: serve.Deployment{Net: cfg.Net}}
	defer func() {
		if err != nil {
			st.closeAll()
		}
	}()
	// serveOn serves a tier on a listener of the Net named after it, until
	// teardown closes the listener.
	serveOn := func(name string, run func(net.Listener) error) (string, error) {
		l, err := cfg.Net.Listen(name)
		if err != nil {
			return "", err
		}
		st.closers = append(st.closers, func() { l.Close() })
		go run(l)
		return l.Addr().String(), nil
	}

	bus := invalidation.NewBus(false)
	st.Engine = db.New(db.Options{Bus: bus})
	d := &st.Deployment
	for i := 0; i < 2; i++ {
		node := cacheserver.New(cacheserver.Config{MaxStaleness: 2 * (cfg.Serve.Staleness + time.Second)})
		addr, err := serveOn(fmt.Sprintf("cache%d", i), node.Serve)
		if err != nil {
			return nil, err
		}
		stop, err := cacheserver.Feed(cfg.Net, "db", addr, bus)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, stop)
		d.Caches = append(d.Caches, addr)
	}

	// The pincushion runs beside the engine and answers on its address, as
	// txcache-dbd hosts it.
	pc, stopPC := pincushion.Start(st.Engine, cfg.Serve.Staleness)
	st.closers = append(st.closers, stopPC)
	if d.DB, err = serveOn("db", (&dbnet.Server{Engine: st.Engine, Pincushion: pc}).Serve); err != nil {
		return nil, err
	}

	// Load engine-side (dbnet carries no DDL), with the nodes already
	// subscribed so they replay every load commit.
	if _, err := rubis.Load(st.Engine, rubis.TestScale, cfg.Seed+1); err != nil {
		return nil, err
	}

	// The application server recovers its dataset over the wire, exactly as
	// the standalone txcache-serve binary does against a remote daemon.
	actx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv, closeClients, err := serve.Connect(actx, *d, cfg.Serve)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	st.closers = append(st.closers, closeClients)
	st.Srv, st.App = srv, srv.App()
	addr, err := serveOn("serve", srv.Serve)
	if err != nil {
		return nil, err
	}
	st.URL = "http://" + addr
	return st, nil
}

// Stop drains the HTTP server and tears every connection, listener and the
// pincushion down — the pincushion unpinning what it placed — and then waits,
// as long as ctx allows, for the database to hold no pinned snapshot: a
// session's pin goes when the daemon sees its connection end. A pin left
// after that is an error, since it would block vacuum forever.
func (s *ServeStack) Stop(ctx context.Context) error {
	var firstErr error
	if err := s.Srv.Drain(ctx); err != nil {
		firstErr = fmt.Errorf("drain: %w", err)
	}
	s.closeAll()
	for n := s.Engine.PinnedCount(); n > 0; n = s.Engine.PinnedCount() {
		if ctx.Err() != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("pin leak: %d snapshots still pinned at teardown", n)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return firstErr
}

// closeAll runs the teardown stack in LIFO order.
func (s *ServeStack) closeAll() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}
