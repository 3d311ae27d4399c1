// Package bench builds complete in-process TxCache deployments and drives
// the RUBiS workload against them, regenerating every figure and table of
// the paper's evaluation (§8). Experiments run in real time against the
// real engine; staleness limits are scaled by TimeScale because our scaled
// dataset sees the paper's per-object update rates compressed into
// seconds-long runs (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"sync"
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
	// CacheNodes is the number of cache servers (default 2).
	CacheNodes int
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
	// Mix selects the emulator's interaction mix; nil = the bidding mix.
	Mix *rubis.Mix
	// ExtraWriteIndexes adds up to len(WriteHotIndexes) secondary indexes
	// on the write-hot tables after load (the writeheavy experiment's
	// index-count knob; each one multiplies per-commit index maintenance).
	ExtraWriteIndexes int
	// Durability, when set, opens the engine with a write-ahead log in
	// Durability.Dir so experiments can price the fsync tax. Nil — the
	// default, and what every perf gate uses — keeps the engine purely in
	// memory so regression comparisons stay like-with-like
	// (the -durability=off escape hatch).
	Durability *db.DurabilityOptions
	Seed       int64
}

// WriteHotIndexes are additional secondary indexes on the tables the
// write-heavy mix hammers; SiteConfig.ExtraWriteIndexes applies a prefix.
// Range conditions never plan through them (the RUBiS queries probe by
// equality on the existing indexes), so their only effect is commit-path
// index maintenance — which is the point.
var WriteHotIndexes = []string{
	`CREATE INDEX bids_date ON bids (date)`,
	`CREATE INDEX bids_qty ON bids (qty)`,
	`CREATE INDEX comments_item ON comments (item_id)`,
	`CREATE INDEX comments_rating ON comments (rating)`,
	`CREATE INDEX buy_now_item ON buy_now (item_id)`,
	`CREATE INDEX items_end ON items (end_date)`,
}

// Site is a complete running deployment.
type Site struct {
	Cfg    SiteConfig
	Engine *db.Engine
	Bus    *invalidation.Bus
	PC     *pincushion.Pincushion
	Client *core.Client
	App    *rubis.App

	mu    sync.Mutex
	nodes []*cacheserver.Server // all servers ever part of the site (churn keeps retirees for stats)
	churn int                   // sequence number for churned-in node names

	stop chan struct{}
}

// Nodes snapshots the site's cache servers (including churned-out ones,
// whose counters remain part of the site totals).
func (s *Site) Nodes() []*cacheserver.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*cacheserver.Server(nil), s.nodes...)
}

// BuildSite constructs and loads a deployment.
func BuildSite(cfg SiteConfig) (*Site, error) {
	if cfg.Scale.Users == 0 {
		cfg.Scale = rubis.InMemoryScale
	}
	if cfg.CacheNodes <= 0 {
		cfg.CacheNodes = 2
	}
	if cfg.StalenessPaperSec == 0 {
		cfg.StalenessPaperSec = 30
	}
	clk := clock.Real{}
	bus := invalidation.NewBus(false)
	engine, _, err := db.Open(db.Options{
		Clock: clk, Bus: bus, Pool: cfg.Pool,
		DisableValidityTracking: cfg.DisableValidityTracking,
		EagerVisibilityCheck:    cfg.EagerVisibilityCheck,
		Durability:              cfg.Durability,
	})
	if err != nil {
		return nil, err
	}
	pc := pincushion.New(pincushion.Config{
		Clock: clk,
		DB:    engine,
		// Retain pins for twice the staleness window (paper-scaled), but
		// let the sweeper trim unused pins as soon as they age past the
		// staleness bound itself — nothing can be handed such a pin again,
		// and holding it only drags the vacuum horizon.
		Retention: 2 * scaled(cfg.StalenessPaperSec+1),
		Staleness: scaled(cfg.StalenessPaperSec + 1),
	})

	s := &Site{Cfg: cfg, Engine: engine, Bus: bus, PC: pc, stop: make(chan struct{})}

	// The client is created before any data loads so that nodes joined via
	// AddNode subscribe to the invalidation stream before the first commit.
	s.Client = core.NewClient(core.Config{
		DB:                core.EngineDB{Engine: engine},
		Pincushion:        pc,
		Bus:               bus,
		Clock:             clk,
		FreshPinThreshold: scaled(5), // the paper's 5-second pin policy
		NoConsistency:     cfg.Mode == ModeNoConsistency,
	})
	if cfg.Mode != ModeBaseline {
		for i := 0; i < cfg.CacheNodes; i++ {
			s.addCacheNode(fmt.Sprintf("cache%d", i))
		}
	}

	ds, err := rubis.Load(engine, cfg.Scale, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	if n := cfg.ExtraWriteIndexes; n > 0 {
		if n > len(WriteHotIndexes) {
			n = len(WriteHotIndexes)
		}
		// CREATE INDEX after load exercises the bulk-build path.
		for _, ddl := range WriteHotIndexes[:n] {
			if err := engine.DDL(ddl); err != nil {
				return nil, err
			}
		}
	}
	s.App = rubis.NewApp(s.Client, ds)

	// Background maintenance: the pincushion sweeper (§5.4). Engine vacuum
	// needs no ticker anymore — the commit sequencer schedules incremental
	// passes itself from horizon-delta notifications (§5.1).
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

// addCacheNode creates one cache server and joins it to the client's ring;
// core.Client.AddNode subscribes it to the invalidation stream.
func (s *Site) addCacheNode(name string) {
	per := s.Cfg.CacheBytes
	if per > 0 {
		per /= int64(s.Cfg.CacheNodes)
	}
	n := cacheserver.New(cacheserver.Config{
		CapacityBytes: per,
		MaxStaleness:  2 * scaled(s.Cfg.StalenessPaperSec+1),
		Clock:         clock.Real{},
	})
	s.Client.AddNode(name, n)
	s.mu.Lock()
	s.nodes = append(s.nodes, n)
	s.mu.Unlock()
}

// StartChurn exercises live membership: every period, the most recently
// joined cache node is drained out of the ring and a fresh, cold node is
// joined in its place, while the workload keeps running. The returned stop
// function blocks until the churn loop exits.
func (s *Site) StartChurn(period time.Duration) (stop func()) {
	stopc := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		current := fmt.Sprintf("cache%d", s.Cfg.CacheNodes-1)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stopc:
				return
			case <-t.C:
			}
			s.Client.RemoveNode(current)
			s.mu.Lock()
			s.churn++
			current = fmt.Sprintf("churn%d", s.churn)
			s.mu.Unlock()
			s.addCacheNode(current)
		}
	}()
	return func() { close(stopc); <-done }
}

// Close stops background maintenance, drains the cache cluster (the
// client owns every node's stream subscription and closes them), and — on
// durable sites — flushes the WAL through a final checkpoint.
func (s *Site) Close() {
	close(s.stop)
	s.Client.Close()
	_ = s.Engine.Close() // no-op unless Cfg.Durability was set
}

// CacheStats sums the stats across cache nodes.
func (s *Site) CacheStats() cacheserver.Stats {
	var total cacheserver.Stats
	for _, n := range s.Nodes() {
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
		total.EvictedCapacity += st.EvictedCapacity
		total.EvictedStale += st.EvictedStale
		total.BytesUsed += st.BytesUsed
		total.Versions += st.Versions
		total.Keys += st.Keys
	}
	return total
}

// ResetStats clears cache-node and library counters (after warmup).
func (s *Site) ResetStats() {
	for _, n := range s.Nodes() {
		n.ResetStats()
	}
}

// RunResult is one measured point.
type RunResult struct {
	Mode       Mode
	CacheBytes int64
	Staleness  float64 // paper seconds
	Throughput float64 // requests/second
	HitRate    float64 // library-observed cache hit rate
	Emu        rubis.EmulatorResult
	Cache      cacheserver.Stats
	// Database-side deltas over the measurement window (the writeheavy
	// experiment's primary metrics).
	DBCommits   uint64
	DBConflicts uint64
	DBVacuumed  uint64
}

// Run warms the site, resets counters, and measures for the given duration.
func (s *Site) Run(clients int, warm, measure time.Duration, seed int64) RunResult {
	staleness := scaled(s.Cfg.StalenessPaperSec)
	rubis.RunEmulator(s.App, rubis.EmulatorConfig{
		Clients: clients, Staleness: staleness, Duration: warm, Seed: seed, Mix: s.Cfg.Mix,
	})
	s.ResetStats()
	db0 := s.Engine.Stats()
	res := rubis.RunEmulator(s.App, rubis.EmulatorConfig{
		Clients: clients, Staleness: staleness, Duration: measure, Seed: seed + 1, Mix: s.Cfg.Mix,
	})
	db1 := s.Engine.Stats()
	cs := s.CacheStats()
	hr := 0.0
	if l := cs.Lookups; l > 0 {
		hr = float64(cs.Hits) / float64(l)
	}
	return RunResult{
		Mode:        s.Cfg.Mode,
		CacheBytes:  s.Cfg.CacheBytes,
		Staleness:   s.Cfg.StalenessPaperSec,
		Throughput:  res.Throughput(),
		HitRate:     hr,
		Emu:         res,
		Cache:       cs,
		DBCommits:   db1.Commits - db0.Commits,
		DBConflicts: db1.Conflicts - db0.Conflicts,
		DBVacuumed:  db1.Vacuumed - db0.Vacuumed,
	}
}
