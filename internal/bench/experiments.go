package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"txcache/internal/db"
	"txcache/internal/rubis"
)

// Opts are shared experiment knobs.
type Opts struct {
	// Clients is the closed-loop population per run; peak throughput in a
	// closed loop is reached once the bottleneck saturates, so a population
	// of a few times GOMAXPROCS suffices.
	Clients int
	// Warm and Measure are per-point durations.
	Warm    time.Duration
	Measure time.Duration
	// Scale overrides the dataset size (tests use rubis.TestScale).
	Scale rubis.Scale
	Seed  int64
	// Out receives the printed rows; nil discards them.
	Out io.Writer
	// Durability, when set, opens every site's engine with a write-ahead
	// log: each BuildSite gets its own fresh directory under Durability.Dir
	// (two engines cannot share a log). Nil — the default, and the
	// -durability=off escape hatch — keeps the engines purely in memory so
	// regression gates compare like with like.
	Durability *db.DurabilityOptions
}

func (o *Opts) fill() {
	if o.Clients <= 0 {
		o.Clients = 16
	}
	if o.Warm <= 0 {
		o.Warm = 2 * time.Second
	}
	if o.Measure <= 0 {
		o.Measure = 3 * time.Second
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
}

func (o *Opts) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// site builds one deployment, stamping the shared durability knob onto its
// config first: each site writes its log under a fresh subdirectory of
// Opts.Durability.Dir.
func (o *Opts) site(cfg SiteConfig) (*Site, error) {
	if o.Durability != nil {
		dir, err := os.MkdirTemp(o.Durability.Dir, "site-")
		if err != nil {
			return nil, err
		}
		d := *o.Durability
		d.Dir = dir
		cfg.Durability = &d
	}
	return BuildSite(cfg)
}

// CacheSizesInMemory is the Figure 5(a)/6(a) sweep. The paper used
// 64 MB–1 GB against an 850 MB dataset; ours are scaled ~1/50 with the
// dataset (see EXPERIMENTS.md).
var CacheSizesInMemory = []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}

// CacheSizesDiskBound is the Figure 5(b)/6(b) sweep. The paper's smallest
// point is already 1/6 of its dataset (1 GB of 6 GB), so ours starts at a
// comparable fraction of the cacheable working set.
var CacheSizesDiskBound = []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20}

// DiskPool models the disk-bound configuration: the buffer cache holds a
// small fraction of the heap pages and each fault pays a sub-millisecond
// "seek" (scaled from commodity-disk latency like everything else).
func DiskPool() *db.PoolConfig {
	return &db.PoolConfig{CapacityPages: 32, MissPenalty: 800 * time.Microsecond}
}

// Baseline measures RUBiS with no cache, on stock-equivalent and modified
// databases, for the in-memory and disk-bound configurations (§8.1's
// baseline numbers and the validity-tracking-overhead claim).
func Baseline(o Opts) (map[string]RunResult, error) {
	o.fill()
	out := map[string]RunResult{}
	configs := []struct {
		name    string
		pool    *db.PoolConfig
		disable bool
	}{
		{"in-memory/modified", nil, false},
		{"in-memory/stock", nil, true},
		{"disk-bound/modified", DiskPool(), false},
	}
	o.printf("# Baseline: RUBiS directly on the database (no cache)\n")
	o.printf("%-22s %12s\n", "config", "req/s")
	for _, c := range configs {
		site, err := o.site(SiteConfig{
			Mode: ModeBaseline, Scale: o.Scale, Pool: c.pool,
			DisableValidityTracking: c.disable, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		r := site.Run(o.Clients, o.Warm, o.Measure, o.Seed)
		site.Close()
		out[c.name] = r
		o.printf("%-22s %12.0f\n", c.name, r.Throughput)
	}
	return out, nil
}

// Figure5a regenerates Figure 5(a): peak throughput vs cache size on the
// in-memory database, for TxCache, the no-consistency comparator, and the
// no-cache baseline.
func Figure5a(o Opts) (map[string][]RunResult, error) {
	return figure5(o, nil, CacheSizesInMemory, true)
}

// Figure5b regenerates Figure 5(b): peak throughput vs cache size on the
// disk-bound database (TxCache and baseline; the paper found the
// no-consistency line indistinguishable here).
func Figure5b(o Opts) (map[string][]RunResult, error) {
	if o.Scale.Users == 0 {
		o.Scale = rubis.DiskBoundScale
	}
	return figure5(o, DiskPool(), CacheSizesDiskBound, false)
}

func figure5(o Opts, pool *db.PoolConfig, sizes []int64, withNoCon bool) (map[string][]RunResult, error) {
	o.fill()
	out := map[string][]RunResult{}

	base, err := o.site(SiteConfig{Mode: ModeBaseline, Scale: o.Scale, Pool: pool, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	baseRes := base.Run(o.Clients, o.Warm, o.Measure, o.Seed)
	base.Close()
	out["baseline"] = []RunResult{baseRes}
	o.printf("# Figure 5: peak throughput vs cache size (30s staleness)\n")
	o.printf("%-16s %12s %12s %8s\n", "cache size", "mode", "req/s", "hit%")
	o.printf("%-16s %12s %12.0f %8s\n", "-", "baseline", baseRes.Throughput, "-")

	modes := []Mode{ModeTxCache}
	if withNoCon {
		modes = append(modes, ModeNoConsistency)
	}
	for _, size := range sizes {
		for _, mode := range modes {
			site, err := o.site(SiteConfig{Mode: mode, Scale: o.Scale, Pool: pool, CacheBytes: size, Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			r := site.Run(o.Clients, o.Warm, o.Measure, o.Seed)
			site.Close()
			out[mode.String()] = append(out[mode.String()], r)
			o.printf("%-16s %12s %12.0f %7.1f%%\n", fmtBytes(size), mode, r.Throughput, 100*r.HitRate)
		}
	}
	return out, nil
}

// Figure6 regenerates Figure 6: cache hit rate vs cache size. The data
// comes from the same runs as Figure 5; this entry point reruns just the
// TxCache line and prints the hit-rate series.
func Figure6(o Opts, diskBound bool) ([]RunResult, error) {
	o.fill()
	sizes := CacheSizesInMemory
	var pool *db.PoolConfig
	if diskBound {
		sizes = CacheSizesDiskBound
		pool = DiskPool()
		if o.Scale.Users == 0 {
			o.Scale = rubis.DiskBoundScale
		}
	}
	which := "6(a) in-memory"
	if diskBound {
		which = "6(b) disk-bound"
	}
	o.printf("# Figure %s: hit rate vs cache size (30s staleness)\n", which)
	o.printf("%-16s %8s\n", "cache size", "hit%")
	var out []RunResult
	for _, size := range sizes {
		site, err := o.site(SiteConfig{Mode: ModeTxCache, Scale: o.Scale, Pool: pool, CacheBytes: size, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		r := site.Run(o.Clients, o.Warm, o.Measure, o.Seed)
		site.Close()
		out = append(out, r)
		o.printf("%-16s %7.1f%%\n", fmtBytes(size), 100*r.HitRate)
	}
	return out, nil
}

// StalenessPoints is the Figure 7 sweep, in paper seconds.
var StalenessPoints = []float64{1, 5, 10, 20, 30, 60, 120}

// Figure7 regenerates Figure 7: relative throughput vs staleness limit for
// the in-memory configuration (plus baseline = 1.0).
func Figure7(o Opts, cacheBytes int64) ([]RunResult, error) {
	o.fill()
	if cacheBytes <= 0 {
		cacheBytes = 2 << 20
	}
	base, err := o.site(SiteConfig{Mode: ModeBaseline, Scale: o.Scale, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	baseRes := base.Run(o.Clients, o.Warm, o.Measure, o.Seed)
	base.Close()

	o.printf("# Figure 7: throughput vs staleness limit (cache %s)\n", fmtBytes(cacheBytes))
	o.printf("%-14s %12s %10s %8s\n", "staleness(s)", "req/s", "vs base", "hit%")
	o.printf("%-14s %12.0f %10s %8s\n", "baseline", baseRes.Throughput, "1.00x", "-")
	out := []RunResult{baseRes}
	for _, st := range StalenessPoints {
		site, err := o.site(SiteConfig{
			Mode: ModeTxCache, Scale: o.Scale, CacheBytes: cacheBytes,
			StalenessPaperSec: st, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		r := site.Run(o.Clients, o.Warm, o.Measure, o.Seed)
		site.Close()
		out = append(out, r)
		o.printf("%-14.0f %12.0f %9.2fx %7.1f%%\n", st, r.Throughput,
			r.Throughput/baseRes.Throughput, 100*r.HitRate)
	}
	return out, nil
}

// MissBreakdown is one Figure 8 column.
type MissBreakdown struct {
	Label       string
	Compulsory  float64
	StaleCap    float64 // staleness + capacity merged, as the paper reports
	Consistency float64
	// Our cache can split the merged column:
	Staleness float64
	Capacity  float64
}

// Figure8 regenerates the miss-type breakdown table for the paper's four
// configurations.
func Figure8(o Opts) ([]MissBreakdown, error) {
	o.fill()
	diskScale := o.Scale
	if diskScale.Users == 0 {
		diskScale = rubis.DiskBoundScale
	}
	configs := []struct {
		label     string
		scale     rubis.Scale
		pool      *db.PoolConfig
		bytes     int64
		staleness float64
	}{
		{"in-mem 512K/30s", o.Scale, nil, 2 << 20, 30},
		{"in-mem 512K/15s", o.Scale, nil, 2 << 20, 15},
		{"in-mem 64K/30s", o.Scale, nil, 256 << 10, 30},
		{"disk 9G/30s", diskScale, DiskPool(), 16 << 20, 30},
	}
	var out []MissBreakdown
	o.printf("# Figure 8: breakdown of cache misses by type (%% of total misses)\n")
	o.printf("%-18s %11s %11s %12s %11s %10s\n", "config", "compulsory", "stale/cap", "consistency", "(stale)", "(capacity)")
	for _, c := range configs {
		site, err := o.site(SiteConfig{
			Mode: ModeTxCache, Scale: c.scale, Pool: c.pool,
			CacheBytes: c.bytes, StalenessPaperSec: c.staleness, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		r := site.Run(o.Clients, o.Warm, o.Measure, o.Seed)
		site.Close()
		cs := r.Cache
		total := float64(cs.Misses())
		if total == 0 {
			total = 1
		}
		mb := MissBreakdown{
			Label:       c.label,
			Compulsory:  100 * float64(cs.MissCompulsory) / total,
			StaleCap:    100 * float64(cs.MissStaleness+cs.MissCapacity) / total,
			Consistency: 100 * float64(cs.MissConsistency) / total,
			Staleness:   100 * float64(cs.MissStaleness) / total,
			Capacity:    100 * float64(cs.MissCapacity) / total,
		}
		out = append(out, mb)
		o.printf("%-18s %10.1f%% %10.1f%% %11.1f%% %10.1f%% %9.1f%%\n",
			mb.Label, mb.Compulsory, mb.StaleCap, mb.Consistency, mb.Staleness, mb.Capacity)
	}
	return out, nil
}

// WriteHeavyResult is one point of the write-path experiment.
type WriteHeavyResult struct {
	Label          string
	ExtraIndexes   int
	Result         RunResult
	CommitsPerSec  float64
	VacuumedPerSec float64
}

// WriteHeavy measures the storage write path under an update/insert-skewed
// RUBiS mix (rubis.WriteHeavyMix, 60% read/write): commit throughput,
// serialization conflicts, and vacuum reclamation rate, with a
// configurable number of extra secondary indexes on the write-hot tables
// (each one multiplies per-commit index maintenance). Run on the baseline
// (no cache) and full-TxCache deployments. Not a paper figure: it is the
// instrument for the epoch-sharded-slab + batched-index-maintenance
// refactor (ROADMAP "write path" item); the matching testing.B entry
// points are BenchmarkCommitPipeline / BenchmarkVacuum in internal/db and
// BenchmarkWriteHeavy in bench_test.go.
func WriteHeavy(o Opts, extraIndexes int) ([]WriteHeavyResult, error) {
	o.fill()
	o.printf("# Write-heavy RUBiS mix (60%% RW), %d extra write-hot indexes\n", extraIndexes)
	o.printf("%-12s %12s %12s %12s %12s %8s\n", "config", "req/s", "commits/s", "conflicts", "vacuumed/s", "hit%")
	var out []WriteHeavyResult
	for _, mode := range []Mode{ModeBaseline, ModeTxCache} {
		cfg := SiteConfig{
			Mode: mode, Scale: o.Scale, Seed: o.Seed,
			Mix: &rubis.WriteHeavyMix, ExtraWriteIndexes: extraIndexes,
		}
		if mode == ModeTxCache {
			cfg.CacheBytes = 4 << 20
		}
		site, err := o.site(cfg)
		if err != nil {
			return nil, err
		}
		r := site.Run(o.Clients, o.Warm, o.Measure, o.Seed)
		site.Close()
		sec := o.Measure.Seconds()
		wr := WriteHeavyResult{
			Label:          mode.String(),
			ExtraIndexes:   extraIndexes,
			Result:         r,
			CommitsPerSec:  float64(r.DBCommits) / sec,
			VacuumedPerSec: float64(r.DBVacuumed) / sec,
		}
		out = append(out, wr)
		hit := "-"
		if mode != ModeBaseline {
			hit = fmt.Sprintf("%.1f%%", 100*r.HitRate)
		}
		o.printf("%-12s %12.0f %12.0f %12d %12.0f %8s\n",
			wr.Label, r.Throughput, wr.CommitsPerSec, r.DBConflicts, wr.VacuumedPerSec, hit)
	}
	return out, nil
}

// ChurnResult is one point of the membership-churn experiment.
type ChurnResult struct {
	Label        string
	Period       time.Duration // 0 = stable membership
	Result       RunResult
	NodesAdded   uint64
	NodesRemoved uint64
}

// Churn measures how live cluster membership changes affect TxCache: the
// same workload runs against a stable three-node cache cluster and against
// one where a node is drained and replaced with a cold node every period.
// Consistency is never at risk — the ring remaps keys and the joining node
// serves nothing still-valid before its first stream message — so churn
// shows up purely as extra compulsory misses while the new node warms. This
// is the cache-tier elasticity claim of paper §4 exercised mid-workload, not
// a paper figure.
func Churn(o Opts, period time.Duration) ([]ChurnResult, error) {
	o.fill()
	if period <= 0 {
		period = 500 * time.Millisecond
	}
	o.printf("# Membership churn: node drain+join every %v vs stable cluster\n", period)
	o.printf("%-12s %12s %8s %8s %8s\n", "cluster", "req/s", "hit%", "joined", "left")
	var out []ChurnResult
	for _, churn := range []bool{false, true} {
		site, err := o.site(SiteConfig{
			Mode: ModeTxCache, Scale: o.Scale, CacheBytes: 4 << 20,
			CacheNodes: 3, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		var stop func()
		if churn {
			stop = site.StartChurn(period)
		}
		r := site.Run(o.Clients, o.Warm, o.Measure, o.Seed)
		if stop != nil {
			stop()
		}
		cs := site.Client.Stats()
		site.Close()
		label := "stable"
		p := time.Duration(0)
		if churn {
			label = "churning"
			p = period
		}
		cr := ChurnResult{
			Label: label, Period: p, Result: r,
			NodesAdded:   cs.NodesAdded.Load(),
			NodesRemoved: cs.NodesRemoved.Load(),
		}
		out = append(out, cr)
		o.printf("%-12s %12.0f %7.1f%% %8d %8d\n",
			label, r.Throughput, 100*r.HitRate, cr.NodesAdded, cr.NodesRemoved)
	}
	return out, nil
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
