package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"txcache/internal/cacheserver"
	"txcache/internal/core"
	"txcache/internal/db/dbnet"
	"txcache/internal/pincushion"
	"txcache/internal/rpc"
	"txcache/internal/rubis"
)

// Deployment is where an application server finds the other tiers of the
// paper's Figure 1, and how it reaches them.
type Deployment struct {
	Net    rpc.Net  // rpc.TCP, but for a test's
	DB     string   // the database daemon's address, the pincushion's too
	Caches []string // the cache nodes' addresses, each also its ring name
}

// Connect is an application server's start-up: it dials the database, each
// cache node and the pincushion the database daemon hosts through d.Net as
// the tier "core", builds the library's client on them, recovers the RUBiS
// dataset over the wire under ctx, and returns a Server configured by cfg
// with App and Tiers filled in. stop closes the library's client and every
// connection; call it after Drain.
func Connect(ctx context.Context, d Deployment, cfg Config) (srv *Server, stop func(), err error) {
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()

	dbc, err := dbnet.DialNet(d.Net, "core", d.DB, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: dial db %s: %w", d.DB, err)
	}
	closers = append(closers, dbc.Close)
	// Every tier's counters show on /statsz, under these names; the db's
	// carry the pincushion's.
	cfg.Tiers = map[string]func(context.Context) (json.RawMessage, error){"db": dbc.StatsJSON}
	lib := core.Config{DB: dbc, Nodes: map[string]cacheserver.Node{}}
	for _, addr := range d.Caches {
		cn, err := cacheserver.DialNet(d.Net, "core", addr, 4)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: dial cache %s: %w", addr, err)
		}
		closers = append(closers, cn.Close)
		lib.Nodes[addr] = cn
		cfg.Tiers["cache "+addr] = cn.StatsJSON
	}
	pc, err := pincushion.DialNet(d.Net, "core", d.DB, 4)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: dial pincushion %s: %w", d.DB, err)
	}
	closers = append(closers, pc.Close)
	lib.Pincushion = pc
	client := core.NewClient(lib)
	closers = append(closers, client.Close)

	ds, err := rubis.Attach(ctx, client)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: attach (is the dataset loaded?): %w", err)
	}
	cfg.App = rubis.NewApp(client, ds)
	srv = New(cfg)
	users, items, cats, regs := ds.Ranges()
	srv.logf("serve: attached: %d users, %d items, %d categories, %d regions", users, items, cats, regs)
	return srv, closeAll, nil
}
