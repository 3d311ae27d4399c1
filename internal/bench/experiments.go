package bench

import (
	"fmt"
	"io"
	"math"
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
	// Scale, when set, is the dataset of every configuration (tests and
	// -scale test use rubis.TestScale). Zero runs each at the paper's:
	// rubis.InMemoryScale, and rubis.DiskBoundScale behind DiskPool.
	Scale rubis.Scale
	Seed  int64
	// Out receives the printed rows; nil discards them.
	Out io.Writer
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

// backend is one of the paper's two database configurations.
type backend struct {
	scale rubis.Scale
	pool  *db.PoolConfig
}

func (o *Opts) backend(diskBound bool) backend {
	b := backend{scale: rubis.InMemoryScale}
	if diskBound {
		b = backend{scale: rubis.DiskBoundScale, pool: DiskPool()}
	}
	if o.Scale.Users != 0 {
		b.scale = o.Scale
	}
	return b
}

// point builds the deployment cfg describes, measures it and tears it down.
func (o *Opts) point(cfg SiteConfig, b backend) (RunResult, error) {
	cfg.Scale, cfg.Pool, cfg.Seed = b.scale, b.pool, o.Seed
	site, err := BuildSite(cfg)
	if err != nil {
		return RunResult{}, err
	}
	defer site.Close()
	return site.Run(o.Clients, o.Warm, o.Measure, o.Seed), nil
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
func Baseline(o Opts) (Figure, error) {
	o.fill()
	fig := Figure{Name: "baseline", X: "none"}
	o.printf("# Baseline: RUBiS directly on the database (no cache)\n")
	o.printf("%-22s %12s\n", "config", "req/s")
	for _, c := range []struct {
		name      string
		diskBound bool
		stock     bool
	}{
		{"in-memory/modified", false, false},
		{"in-memory/stock", false, true},
		{"disk-bound/modified", true, false},
	} {
		r, err := o.point(SiteConfig{Mode: ModeBaseline, DisableValidityTracking: c.stock}, o.backend(c.diskBound))
		if err != nil {
			return fig, err
		}
		fig.add(c.name, Point{ReqPerS: r.Throughput})
		o.printf("%-22s %12.0f\n", c.name, r.Throughput)
	}
	return fig, nil
}

// Figure5a regenerates Figure 5(a): peak throughput vs cache size on the
// in-memory database, for TxCache, the no-consistency comparator, and the
// no-cache baseline.
func Figure5a(o Opts) (Figure, error) {
	return figure5(o, "fig5a", false, CacheSizesInMemory, ModeTxCache, ModeNoConsistency)
}

// Figure5b regenerates Figure 5(b): peak throughput vs cache size on the
// disk-bound database (TxCache and baseline; the paper found the
// no-consistency line indistinguishable here).
func Figure5b(o Opts) (Figure, error) {
	return figure5(o, "fig5b", true, CacheSizesDiskBound, ModeTxCache)
}

func figure5(o Opts, name string, diskBound bool, sizes []int64, modes ...Mode) (Figure, error) {
	o.fill()
	fig := Figure{Name: name, X: "cache_bytes"}
	b := o.backend(diskBound)
	base, err := o.point(SiteConfig{Mode: ModeBaseline}, b)
	if err != nil {
		return fig, err
	}
	fig.add(ModeBaseline.String(), Point{ReqPerS: base.Throughput})
	o.printf("# Figure 5: peak throughput vs cache size (30s staleness)\n")
	o.printf("%-16s %12s %12s %8s\n", "cache size", "mode", "req/s", "hit%")
	o.printf("%-16s %12s %12.0f %8s\n", "-", ModeBaseline, base.Throughput, "-")
	for _, size := range sizes {
		for _, mode := range modes {
			r, err := o.point(SiteConfig{Mode: mode, CacheBytes: size}, b)
			if err != nil {
				return fig, err
			}
			fig.add(mode.String(), Point{X: float64(size), ReqPerS: r.Throughput, HitRate: r.HitRate})
			o.printf("%-16s %12s %12.0f %7.1f%%\n", fmtBytes(size), mode, r.Throughput, 100*r.HitRate)
		}
	}
	return fig, nil
}

// Figure6a and Figure6b regenerate Figure 6: cache hit rate vs cache size,
// in memory and disk-bound. They measure Figure 5's TxCache line again and
// print its hit-rate series.
func Figure6a(o Opts) (Figure, error) {
	return figure6(o, "fig6a", "6(a) in-memory", false, CacheSizesInMemory)
}

func Figure6b(o Opts) (Figure, error) {
	return figure6(o, "fig6b", "6(b) disk-bound", true, CacheSizesDiskBound)
}

func figure6(o Opts, name, title string, diskBound bool, sizes []int64) (Figure, error) {
	o.fill()
	fig := Figure{Name: name, X: "cache_bytes"}
	o.printf("# Figure %s: hit rate vs cache size (30s staleness)\n", title)
	o.printf("%-16s %8s\n", "cache size", "hit%")
	for _, size := range sizes {
		r, err := o.point(SiteConfig{Mode: ModeTxCache, CacheBytes: size}, o.backend(diskBound))
		if err != nil {
			return fig, err
		}
		fig.add(ModeTxCache.String(), Point{X: float64(size), ReqPerS: r.Throughput, HitRate: r.HitRate})
		o.printf("%-16s %7.1f%%\n", fmtBytes(size), 100*r.HitRate)
	}
	return fig, nil
}

// StalenessPoints is the Figure 7 sweep, in paper seconds.
var StalenessPoints = []float64{1, 5, 10, 20, 30, 60, 120}

// figure7CacheBytes is the cache Figure 7 holds fixed while staleness varies
// (the paper's 512 MB, scaled).
const figure7CacheBytes = 2 << 20

// Figure7 regenerates Figure 7: relative throughput vs staleness limit for
// the in-memory configuration (plus baseline = 1.0).
func Figure7(o Opts) (Figure, error) {
	o.fill()
	fig := Figure{Name: "fig7", X: "staleness_paper_s"}
	b := o.backend(false)
	base, err := o.point(SiteConfig{Mode: ModeBaseline}, b)
	if err != nil {
		return fig, err
	}
	fig.add(ModeBaseline.String(), Point{ReqPerS: base.Throughput})
	o.printf("# Figure 7: throughput vs staleness limit (cache %s)\n", fmtBytes(figure7CacheBytes))
	o.printf("%-14s %12s %10s %8s\n", "staleness(s)", "req/s", "vs base", "hit%")
	o.printf("%-14s %12.0f %10s %8s\n", ModeBaseline, base.Throughput, "1.00x", "-")
	for _, st := range StalenessPoints {
		r, err := o.point(SiteConfig{Mode: ModeTxCache, CacheBytes: figure7CacheBytes, StalenessPaperSec: st}, b)
		if err != nil {
			return fig, err
		}
		fig.add(ModeTxCache.String(), Point{X: st, ReqPerS: r.Throughput, HitRate: r.HitRate})
		o.printf("%-14.0f %12.0f %9.2fx %7.1f%%\n", st, r.Throughput, r.Throughput/base.Throughput, 100*r.HitRate)
	}
	return fig, nil
}

// MissBreakdown is one Figure 8 row: each class's share of all misses, in
// percent. The paper reports staleness and capacity misses as one class
// (StaleCap); the cache nodes can tell them apart.
type MissBreakdown struct {
	Compulsory  float64 `json:"compulsory"`
	StaleCap    float64 `json:"stale_cap"`
	Consistency float64 `json:"consistency"`
	Staleness   float64 `json:"staleness"`
	Capacity    float64 `json:"capacity"`
}

// Figure8 regenerates the miss-type breakdown table for the paper's four
// configurations, one series each.
func Figure8(o Opts) (Figure, error) {
	o.fill()
	fig := Figure{Name: "fig8", X: "cache_bytes"}
	o.printf("# Figure 8: breakdown of cache misses by type (%% of total misses)\n")
	o.printf("%-18s %11s %11s %12s %11s %10s\n", "config", "compulsory", "stale/cap", "consistency", "(stale)", "(capacity)")
	for _, c := range []struct {
		label     string // the paper's name for the configuration
		diskBound bool
		bytes     int64
		staleness float64
	}{
		{"in-mem 512K/30s", false, 2 << 20, 30},
		{"in-mem 512K/15s", false, 2 << 20, 15},
		{"in-mem 64K/30s", false, 256 << 10, 30},
		{"disk 9G/30s", true, 16 << 20, 30},
	} {
		r, err := o.point(SiteConfig{Mode: ModeTxCache, CacheBytes: c.bytes, StalenessPaperSec: c.staleness}, o.backend(c.diskBound))
		if err != nil {
			return fig, err
		}
		cs := r.Cache
		pct := func(n uint64) float64 { // of all misses, to 0.01%
			if cs.Misses() == 0 {
				return 0
			}
			return math.Round(1e4*float64(n)/float64(cs.Misses())) / 100
		}
		mb := MissBreakdown{
			Compulsory:  pct(cs.MissCompulsory),
			StaleCap:    pct(cs.MissStaleness + cs.MissCapacity),
			Consistency: pct(cs.MissConsistency),
			Staleness:   pct(cs.MissStaleness),
			Capacity:    pct(cs.MissCapacity),
		}
		fig.add(c.label, Point{X: float64(c.bytes), ReqPerS: r.Throughput, HitRate: r.HitRate, MissPct: &mb})
		o.printf("%-18s %10.1f%% %10.1f%% %11.1f%% %10.1f%% %9.1f%%\n",
			c.label, mb.Compulsory, mb.StaleCap, mb.Consistency, mb.Staleness, mb.Capacity)
	}
	return fig, nil
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
