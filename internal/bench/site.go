// Package bench builds complete in-process TxCache deployments and drives
// the RUBiS workload against them, regenerating every figure and table of
// the paper's evaluation (§8). Experiments run in real time against the
// real engine; staleness limits are scaled by TimeScale because our scaled
// dataset sees the paper's per-object update rates compressed into
// seconds-long runs (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/rubis"
)

// TimeScale maps paper-seconds to bench-seconds: the paper's hour-long runs
// against a full-size dataset become seconds-long runs against a 1/50-size
// dataset, so one paper-second of staleness corresponds to TimeScale bench
// seconds. All staleness knobs below are in PAPER seconds.
const TimeScale = 0.1

// scaled converts paper-seconds to a bench duration.
func scaled(paperSeconds float64) time.Duration {
	return time.Duration(paperSeconds * TimeScale * float64(time.Second))
}

// Mode selects the cache behavior under test (Figure 5's three lines).
type Mode int

// Modes.
const (
	// ModeBaseline runs RUBiS directly on the database, no cache.
	ModeBaseline Mode = iota
	// ModeTxCache is the full system.
	ModeTxCache
	// ModeNoConsistency keeps the invalidation machinery but reads any
	// sufficiently fresh version, ignoring consistency (§8.3).
	ModeNoConsistency
)

func (m Mode) String() string {
	return [...]string{"baseline", "txcache", "no-consistency"}[m]
}

// SiteConfig describes one deployment under test.
type SiteConfig struct {
	Mode Mode
	// Scale sizes the dataset; defaults to rubis.InMemoryScale.
	Scale rubis.Scale
	// CacheBytes is the total cache capacity across nodes; <= 0 unlimited.
	CacheBytes int64
	// StalenessPaperSec is the BEGIN-RO staleness limit in paper seconds
	// (default 30, the paper's standard setting).
	StalenessPaperSec float64
	// Pool, when set, bounds the database buffer cache to model the
	// disk-bound configuration.
	Pool *db.PoolConfig
	// DisableValidityTracking turns off the database's TxCache support (to
	// measure its overhead against stock behavior).
	DisableValidityTracking bool
	// EagerVisibilityCheck reverts to stock scan ordering (visibility
	// before predicate), the ablation of §5.2's delayed-visibility-check
	// design choice: masks widen, validity intervals shrink, hit rate
	// drops.
	EagerVisibilityCheck bool
	Seed                 int64
}

// cacheNodes is the number of cache servers a site's capacity is split
// across.
const cacheNodes = 2

// Site is a complete running deployment.
type Site struct {
	Cfg    SiteConfig
	Engine *db.Engine
	PC     *pincushion.Pincushion
	Client *core.Client
	App    *rubis.App

	nodes []*cacheserver.Server
	subs  []*invalidation.Subscription // one per node, closed by Close
	stop  chan struct{}
}

// BuildSite constructs and loads a deployment.
func BuildSite(cfg SiteConfig) (*Site, error) {
	if cfg.Scale.Users == 0 {
		cfg.Scale = rubis.InMemoryScale
	}
	if cfg.StalenessPaperSec == 0 {
		cfg.StalenessPaperSec = 30
	}
	clk := clock.Real{}
	bus := invalidation.NewBus(false)
	engine := db.New(db.Options{
		Clock: clk, Bus: bus, Pool: cfg.Pool,
		DisableValidityTracking: cfg.DisableValidityTracking,
		EagerVisibilityCheck:    cfg.EagerVisibilityCheck,
	})
	pc := pincushion.New(pincushion.Config{
		Clock: clk,
		DB:    engine,
		// Trim pins as soon as they age past the (paper-scaled) staleness
		// bound: nothing can be handed such a pin again, and holding it
		// only keeps the versions it alone can see.
		Staleness: scaled(cfg.StalenessPaperSec + 1),
	})

	s := &Site{Cfg: cfg, Engine: engine, PC: pc, stop: make(chan struct{})}
	// The nodes subscribe before any data loads: they see the stream from
	// its first commit.
	nodes := make(map[string]cacheserver.Node, cacheNodes)
	if cfg.Mode != ModeBaseline {
		for i := 0; i < cacheNodes; i++ {
			nodes[fmt.Sprintf("cache%d", i)] = s.newCacheNode(bus)
		}
	}
	s.Client = core.NewClient(core.Config{
		DB:                core.EngineDB{Engine: engine},
		Nodes:             nodes,
		Pincushion:        pc,
		Clock:             clk,
		FreshPinThreshold: scaled(5), // the paper's 5-second pin policy
		NoConsistency:     cfg.Mode == ModeNoConsistency,
	})

	ds, err := rubis.Load(engine, cfg.Scale, cfg.Seed+1)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.App = rubis.NewApp(s.Client, ds)

	// Background maintenance: the pincushion sweeper (§5.4). Engine vacuum
	// needs no ticker — the commit sequencer and the sweeper's unpins start
	// incremental passes (§5.1).
	go func() {
		t := time.NewTicker(scaled(2))
		defer t.Stop()
		for {
			select {
			case <-t.C:
				pc.Sweep()
			case <-s.stop:
				return
			}
		}
	}()
	return s, nil
}

// newCacheNode creates one cache server and gives it the bus's stream, as
// whoever owns a bus does for an in-process node (§4.2).
func (s *Site) newCacheNode(bus *invalidation.Bus) *cacheserver.Server {
	per := s.Cfg.CacheBytes
	if per > 0 {
		per /= cacheNodes
	}
	n := cacheserver.New(cacheserver.Config{
		CapacityBytes: per,
		MaxStaleness:  2 * scaled(s.Cfg.StalenessPaperSec+1),
		Clock:         clock.Real{},
	})
	sub := bus.Subscribe()
	go n.ConsumeStream(sub)
	s.nodes = append(s.nodes, n)
	s.subs = append(s.subs, sub)
	return n
}

// Close stops background maintenance, closes the library's client and ends
// the nodes' streams.
func (s *Site) Close() {
	close(s.stop)
	s.Client.Close()
	for _, sub := range s.subs {
		sub.Close()
	}
}

// CacheStats sums the stats across cache nodes.
func (s *Site) CacheStats() cacheserver.Stats {
	var total cacheserver.Stats
	for _, n := range s.nodes {
		st := n.Stats()
		total.Lookups += st.Lookups
		total.Hits += st.Hits
		total.MissCompulsory += st.MissCompulsory
		total.MissConsistency += st.MissConsistency
		total.MissStaleness += st.MissStaleness
		total.MissCapacity += st.MissCapacity
		total.Puts += st.Puts
		total.Invalidations += st.Invalidations
		total.Invalidated += st.Invalidated
		total.FloorClosed += st.FloorClosed
		total.EvictedCapacity += st.EvictedCapacity
		total.EvictedStale += st.EvictedStale
		total.BytesUsed += st.BytesUsed
		total.Versions += st.Versions
		total.Keys += st.Keys
	}
	return total
}

// ResetStats clears the cache nodes' counters (after warmup).
func (s *Site) ResetStats() {
	for _, n := range s.nodes {
		n.ResetStats()
	}
}

// RunResult is one measured point.
type RunResult struct {
	Throughput float64 // requests/second
	HitRate    float64 // cache hit rate, summed over the nodes
	Emu        rubis.EmulatorResult
	Cache      cacheserver.Stats
}

// Run warms the site, resets counters, and measures for the given duration.
func (s *Site) Run(clients int, warm, measure time.Duration, seed int64) RunResult {
	staleness := scaled(s.Cfg.StalenessPaperSec)
	rubis.RunEmulator(s.App, rubis.EmulatorConfig{
		Clients: clients, Staleness: staleness, Duration: warm, Seed: seed,
	})
	s.ResetStats()
	res := rubis.RunEmulator(s.App, rubis.EmulatorConfig{
		Clients: clients, Staleness: staleness, Duration: measure, Seed: seed + 1,
	})
	cs := s.CacheStats()
	hr := 0.0
	if l := cs.Lookups; l > 0 {
		hr = float64(cs.Hits) / float64(l)
	}
	return RunResult{Throughput: res.Throughput(), HitRate: hr, Emu: res, Cache: cs}
}
