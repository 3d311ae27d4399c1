package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/rubis"
	"txcache/internal/serve"
	"txcache/internal/wal"
)

// Constants of the topology. They are part of the benchmark's definition:
// changing one makes results incomparable with earlier ones.
const (
	cacheNodes    = 2
	staleness     = 10 * time.Second
	sweepInterval = time.Second
)

// stackConfig sizes one booted topology.
type stackConfig struct {
	scale      rubis.Scale
	cacheBytes int64 // total over the cache nodes
	seed       int64 // dataset seed
	dir        string
	rec        *recorder // nil boots without decorators
}

// stack is the paper's Figure-1 topology in one process, every hop over
// loopback TCP: HTTP client -> serve -> core -> {pincushion, 2 cache nodes,
// dbnet -> db with a WAL}, plus the invalidation push streams from the
// database to the nodes. Only public constructors of the layers are used.
type stack struct {
	engine *db.Engine
	nodes  []*cacheserver.Server
	pc     *pincushion.Pincushion
	client *core.Client
	app    *rubis.App
	srv    *serve.Server
	url    string

	closers []func() // run in reverse order
}

func startStack(cfg stackConfig) (st *stack, err error) {
	st = &stack{}
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

	bus := invalidation.NewBus(false)
	st.engine, _, err = db.Open(db.Options{
		Bus:        bus,
		Durability: &db.DurabilityOptions{Dir: cfg.dir, Sync: wal.SyncFdatasync},
	})
	if err != nil {
		return nil, fmt.Errorf("open db: %w", err)
	}

	// Cache nodes: a listener each, and the database's invalidation stream
	// pushed to each over its own connection, retried until acknowledged.
	nodes := map[string]cacheserver.Node{}
	for i := 0; i < cacheNodes; i++ {
		node := cacheserver.New(cacheserver.Config{
			CapacityBytes: cfg.cacheBytes / cacheNodes,
			MaxStaleness:  2 * (staleness + time.Second),
		})
		st.nodes = append(st.nodes, node)
		l, err := listen()
		if err != nil {
			return nil, err
		}
		go node.Serve(l)

		pushCl, err := cacheserver.Dial(l.Addr().String(), 1)
		if err != nil {
			return nil, err
		}
		sub := bus.Subscribe()
		pushDone := make(chan struct{})
		go func() {
			defer close(pushDone)
			for m := range sub.C {
				for {
					pctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					perr := pushCl.PushInvalidation(pctx, m)
					cancel()
					if perr == nil {
						break
					}
					time.Sleep(20 * time.Millisecond)
				}
			}
		}()
		// Reverse order at teardown: close the subscription, wait for the
		// push goroutine to drain, then close its connection.
		st.closers = append(st.closers, pushCl.Close, func() { <-pushDone }, sub.Close)

		cn, err := cacheserver.Dial(l.Addr().String(), 4)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, cn.Close)
		name := fmt.Sprintf("cache%d", i)
		nodes[name] = cn
		if cfg.rec != nil {
			nodes[name] = &tracedNode{inner: cn, rec: cfg.rec}
		}
	}

	dbL, err := listen()
	if err != nil {
		return nil, err
	}
	go (&dbnet.Server{Engine: st.engine}).Serve(dbL)
	dbClient, err := dbnet.Dial(dbL.Addr().String(), 8)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, dbClient.Close)

	pcDB, err := dbnet.Dial(dbL.Addr().String(), 2)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, pcDB.Close)
	st.pc = pincushion.New(pincushion.Config{
		DB:        pcDB,
		Retention: 2 * (staleness + time.Second),
		Staleness: staleness + time.Second,
	})
	stopSweep, sweepDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sweepDone)
		st.pc.RunSweeper(sweepInterval, stopSweep)
	}()
	st.closers = append(st.closers, func() { close(stopSweep); <-sweepDone })
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

	ccfg := core.Config{DB: dbClient, Nodes: nodes, Pincushion: pcClient}
	if cfg.rec != nil {
		ccfg.DB = &tracedDB{inner: dbClient, rec: cfg.rec}
		ccfg.Pincushion = &tracedPins{inner: pcClient, rec: cfg.rec}
	}
	st.client = core.NewClient(ccfg)

	// The dataset is loaded on the engine (dbnet carries no DDL) with the
	// nodes already subscribed; the application then finds it over the wire.
	if _, err := rubis.Load(st.engine, cfg.scale, cfg.seed); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	actx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ds, err := rubis.Attach(actx, st.client)
	if err != nil {
		return nil, fmt.Errorf("attach: %w", err)
	}
	st.app = rubis.NewApp(st.client, ds)

	st.srv = serve.New(serve.Config{App: st.app, Staleness: staleness})
	httpL, err := listen()
	if err != nil {
		return nil, err
	}
	st.url = "http://" + httpL.Addr().String()
	go st.srv.Serve(httpL)
	return st, nil
}

// violations reads the consistency-violation counter off /statsz, as an
// outside monitor would.
func (s *stack) violations(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/statsz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Serve serve.StatsSnapshot `json:"serve"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("statsz: %w", err)
	}
	return body.Serve.Violations, nil
}

// stop drains the HTTP server, insists that no snapshot stays pinned (a
// leaked pin would block vacuum for good), and tears everything down. The
// engine is closed last, which checkpoints and closes the WAL; beforeClose,
// when set, runs just before that, with every client gone and the data
// directory holding exactly what the run wrote.
func (s *stack) stop(ctx context.Context, beforeClose func() error) error {
	var firstErr error
	if err := s.srv.Drain(ctx); err != nil {
		firstErr = fmt.Errorf("drain: %w", err)
	}
	for s.engine.Stats().PinnedSnaps > 0 {
		if ctx.Err() != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("pin leak: %d snapshots still pinned at teardown", s.engine.Stats().PinnedSnaps)
			}
			break
		}
		s.pc.SweepAll()
		time.Sleep(5 * time.Millisecond)
	}
	s.closeClients()
	if beforeClose != nil {
		if err := beforeClose(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := s.engine.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("close db: %w", err)
	}
	return firstErr
}

// closeClients tears down every connection, listener and background
// goroutine, leaving only the engine open.
func (s *stack) closeClients() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// closeAll abandons a partly booted stack.
func (s *stack) closeAll() {
	s.closeClients()
	if s.engine != nil {
		s.engine.Close()
	}
}
