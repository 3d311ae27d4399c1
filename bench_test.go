// Benchmarks regenerating the paper's evaluation (§8), one per table or
// figure. Each benchmark drives the RUBiS bidding mix against a complete
// in-process deployment and reports throughput (the `req/s` metric, the
// paper's y-axis) and the cache hit rate where relevant.
//
// The full experiment harness with printed paper-style tables is
// `go run ./cmd/txcache-bench -exp all`; these testing.B entry points run
// the same code at reduced scale so `go test -bench=.` stays tractable.
package txcache_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	txcache "txcache"

	"txcache/internal/bench"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/rubis"
)

// runMix drives b.N interactions of the bidding mix through the site with
// parallel workers and reports req/s and hit rate.
func runMix(b *testing.B, site *bench.Site, stalenessPaperSec float64) {
	b.Helper()
	staleness := time.Duration(stalenessPaperSec * bench.TimeScale * float64(time.Second))
	// Short warmup so compulsory misses do not dominate tiny runs.
	rubis.RunEmulator(site.App, rubis.EmulatorConfig{
		Clients: 8, Staleness: staleness, Duration: 300 * time.Millisecond, Seed: 42,
	})
	site.ResetStats()
	var seed atomic.Int64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(1000 + seed.Add(1)))
		user := int64(rng.Intn(site.App.DS.Scale.Users))
		for pb.Next() {
			_ = site.App.DoInteraction(context.Background(), rng, user, -1, staleness)
		}
	})
	b.StopTimer()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "req/s")
	}
	cs := site.CacheStats()
	if cs.Lookups > 0 {
		b.ReportMetric(100*float64(cs.Hits)/float64(cs.Lookups), "hit%")
	}
}

func buildSite(b *testing.B, cfg bench.SiteConfig) *bench.Site {
	b.Helper()
	if cfg.Scale.Users == 0 {
		cfg.Scale = rubis.TestScale
	}
	cfg.Seed = 7
	site, err := bench.BuildSite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(site.Close)
	return site
}

// BenchmarkBaseline reproduces §8.1's no-cache baselines (928 req/s
// in-memory, 136 req/s disk-bound on the authors' testbed; shape only).
func BenchmarkBaseline(b *testing.B) {
	b.Run("in-memory", func(b *testing.B) {
		runMix(b, buildSite(b, bench.SiteConfig{Mode: bench.ModeBaseline}), 30)
	})
	b.Run("disk-bound", func(b *testing.B) {
		runMix(b, buildSite(b, bench.SiteConfig{Mode: bench.ModeBaseline, Pool: bench.DiskPool()}), 30)
	})
	b.Run("stock-db", func(b *testing.B) {
		// §8.1: "no observable difference" between stock and modified DBs.
		runMix(b, buildSite(b, bench.SiteConfig{Mode: bench.ModeBaseline, DisableValidityTracking: true}), 30)
	})
}

// BenchmarkFigure5a: peak throughput vs cache size, in-memory database,
// for TxCache and the no-consistency comparator (plus BenchmarkBaseline).
func BenchmarkFigure5a(b *testing.B) {
	for _, size := range []int64{256 << 10, 1 << 20, 4 << 20, 16 << 20} {
		for _, mode := range []bench.Mode{bench.ModeTxCache, bench.ModeNoConsistency} {
			b.Run(fmt.Sprintf("%s/cache=%dKB", mode, size>>10), func(b *testing.B) {
				runMix(b, buildSite(b, bench.SiteConfig{Mode: mode, CacheBytes: size}), 30)
			})
		}
	}
}

// BenchmarkFigure5b: peak throughput vs cache size, disk-bound database.
func BenchmarkFigure5b(b *testing.B) {
	for _, size := range []int64{512 << 10, 4 << 20, 16 << 20} {
		b.Run(fmt.Sprintf("cache=%dKB", size>>10), func(b *testing.B) {
			runMix(b, buildSite(b, bench.SiteConfig{
				Mode: bench.ModeTxCache, CacheBytes: size, Pool: bench.DiskPool(),
			}), 30)
		})
	}
}

// BenchmarkFigure6 reports the hit-rate metric across cache sizes (the
// hit%% metric of each sub-benchmark is the figure's y-axis).
func BenchmarkFigure6(b *testing.B) {
	for _, size := range []int64{256 << 10, 1 << 20, 4 << 20, 16 << 20} {
		b.Run(fmt.Sprintf("cache=%dKB", size>>10), func(b *testing.B) {
			runMix(b, buildSite(b, bench.SiteConfig{Mode: bench.ModeTxCache, CacheBytes: size}), 30)
		})
	}
}

// BenchmarkFigure7: throughput vs staleness limit (paper seconds).
func BenchmarkFigure7(b *testing.B) {
	for _, st := range []float64{1, 10, 30, 120} {
		b.Run(fmt.Sprintf("staleness=%gs", st), func(b *testing.B) {
			runMix(b, buildSite(b, bench.SiteConfig{
				Mode: bench.ModeTxCache, CacheBytes: 4 << 20, StalenessPaperSec: st,
			}), st)
		})
	}
}

// BenchmarkFigure8 runs the four miss-breakdown configurations and reports
// the consistency-miss share (the paper's headline: it is the rarest kind).
func BenchmarkFigure8(b *testing.B) {
	configs := []struct {
		name  string
		bytes int64
		stale float64
		pool  *db.PoolConfig
	}{
		{"in-mem-2MB-30s", 2 << 20, 30, nil},
		{"in-mem-2MB-15s", 2 << 20, 15, nil},
		{"in-mem-256KB-30s", 256 << 10, 30, nil},
		{"disk-16MB-30s", 16 << 20, 30, bench.DiskPool()},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			site := buildSite(b, bench.SiteConfig{
				Mode: bench.ModeTxCache, CacheBytes: c.bytes,
				StalenessPaperSec: c.stale, Pool: c.pool,
			})
			runMix(b, site, c.stale)
			cs := site.CacheStats()
			if m := cs.Misses(); m > 0 {
				b.ReportMetric(100*float64(cs.MissConsistency)/float64(m), "consistency-miss%")
				b.ReportMetric(100*float64(cs.MissCompulsory)/float64(m), "compulsory-miss%")
				b.ReportMetric(100*float64(cs.MissStaleness+cs.MissCapacity)/float64(m), "stale+cap-miss%")
			}
		})
	}
}

// BenchmarkWriteHeavy drives the update/insert-skewed mix (60% read/write)
// against the full deployment, with and without extra write-hot secondary
// indexes — the commit-path counterpart of BenchmarkFigure5a. The
// experiment-harness form (with commit/vacuum rates) is
// `txcache-bench -exp writeheavy`.
func BenchmarkWriteHeavy(b *testing.B) {
	for _, extra := range []int{0, 3} {
		b.Run(fmt.Sprintf("extraIdx=%d", extra), func(b *testing.B) {
			site := buildSite(b, bench.SiteConfig{
				Mode: bench.ModeTxCache, CacheBytes: 4 << 20,
				Mix: &rubis.WriteHeavyMix, ExtraWriteIndexes: extra,
			})
			staleness := time.Duration(30 * bench.TimeScale * float64(time.Second))
			rubis.RunEmulator(site.App, rubis.EmulatorConfig{
				Clients: 8, Staleness: staleness, Duration: 300 * time.Millisecond,
				Seed: 42, Mix: &rubis.WriteHeavyMix,
			})
			site.ResetStats()
			c0 := site.Engine.Stats().Commits
			var seed atomic.Int64
			start := time.Now()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1000 + seed.Add(1)))
				user := int64(rng.Intn(site.App.DS.Scale.Users))
				for pb.Next() {
					kind := rubis.PickFrom(rng, &rubis.WriteHeavyMix)
					_ = site.App.DoInteraction(context.Background(), rng, user, kind, staleness)
				}
			})
			b.StopTimer()
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed, "req/s")
				b.ReportMetric(float64(site.Engine.Stats().Commits-c0)/elapsed, "commits/s")
			}
		})
	}
}

// BenchmarkAblationVisibilityOrder measures §5.2's design choice of
// evaluating scan predicates before visibility checks. The eager (stock)
// ordering pollutes invalidity masks with unrelated dead tuples, shrinking
// validity intervals and with them the hit rate.
func BenchmarkAblationVisibilityOrder(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "predicate-first"
		if eager {
			name = "visibility-first"
		}
		b.Run(name, func(b *testing.B) {
			runMix(b, buildSite(b, bench.SiteConfig{
				Mode: bench.ModeTxCache, CacheBytes: 4 << 20, EagerVisibilityCheck: eager,
			}), 30)
		})
	}
}

// BenchmarkValidityTrackingOverhead quantifies §8.1's claim that computing
// validity intervals and invalidation tags adds negligible query cost.
func BenchmarkValidityTrackingOverhead(b *testing.B) {
	for _, tracking := range []bool{true, false} {
		name := "tracking-on"
		if !tracking {
			name = "tracking-off"
		}
		b.Run(name, func(b *testing.B) {
			engine := db.New(db.Options{DisableValidityTracking: !tracking})
			if _, err := rubis.Load(engine, rubis.TestScale, 3); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := engine.BeginTx(context.Background(), true, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Query("SELECT id, name, max_bid FROM items WHERE category = ?", int64(i%10)); err != nil {
					b.Fatal(err)
				}
				tx.Abort()
			}
		})
	}
}

// BenchmarkPincushionRoundTrip covers §5.4's claim that pincushion requests
// are sub-millisecond (theirs: <0.2ms including the network round trip).
func BenchmarkPincushionRoundTrip(b *testing.B) {
	site := buildSite(b, bench.SiteConfig{Mode: bench.ModeTxCache, CacheBytes: 1 << 20})
	for i := 0; i < 10; i++ {
		ts, wall := site.Engine.PinLatest()
		site.PC.Register(ts, wall)
	}
	release := make([]interval.Timestamp, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pins := site.PC.GetPins(context.Background(), time.Minute)
		release = release[:0]
		for _, p := range pins {
			release = append(release, p.TS)
		}
		site.PC.Release(release)
	}
}

// BenchmarkCacheServer measures raw cache-node lookup and put costs.
func BenchmarkCacheServer(b *testing.B) {
	node := txcache.NewCacheServer(txcache.CacheConfig{})
	payload := make([]byte, 512)
	node.ApplyInvalidation(invalidation.Message{TS: 1 << 20, WallTime: time.Now()})
	for i := 0; i < 10000; i++ {
		node.Put(fmt.Sprintf("key-%d", i), payload,
			txcache.Interval{Lo: interval.Timestamp(i + 1), Hi: txcache.Infinity}, true, interval.Timestamp(i+1),
			[]invalidation.TagID{invalidation.Intern(invalidation.KeyTag("t", "id", fmt.Sprint(i)))})
	}
	b.Run("lookup-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			node.Lookup(context.Background(), fmt.Sprintf("key-%d", i%10000), 1<<19, 1<<21, 0, txcache.Infinity)
		}
	})
	b.Run("put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			node.Put(fmt.Sprintf("put-%d", i), payload,
				txcache.Interval{Lo: 5, Hi: 100}, false, 0, nil)
		}
	})
	b.Run("invalidation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			node.ApplyInvalidation(invalidation.Message{
				TS:       interval.Timestamp(1<<21 + i),
				WallTime: time.Now(),
				Tags:     []invalidation.TagID{invalidation.Intern(invalidation.KeyTag("t", "id", fmt.Sprint(i%10000)))},
			})
		}
	})
}

// BenchmarkParallelCommit measures raw commit throughput when concurrent
// writers target disjoint tables. Under the original engine-wide exclusive
// commit lock this cannot scale with GOMAXPROCS; under per-table locking
// with the pipelined commit sequencer, only the in-order publish step is
// serialized, so disjoint commits overlap.
func BenchmarkParallelCommit(b *testing.B) {
	const tables = 16
	e := db.New(db.Options{})
	for i := 0; i < tables; i++ {
		if err := e.DDL(fmt.Sprintf(`CREATE TABLE shard%d (id BIGINT PRIMARY KEY, v BIGINT)`, i)); err != nil {
			b.Fatal(err)
		}
	}
	var worker, nextID atomic.Int64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := fmt.Sprintf("INSERT INTO shard%d (id, v) VALUES (?, ?)", worker.Add(1)%tables)
		for pb.Next() {
			id := nextID.Add(1)
			tx, err := e.BeginTx(context.Background(), false, 0)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := tx.Exec(src, id, id); err != nil {
				tx.Abort()
				b.Error(err)
				return
			}
			if _, err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "commits/s")
	}
}

// BenchmarkReadersDuringCommits measures read throughput on one table while
// a background writer continuously commits to a different table and vacuum
// runs periodically. With the engine-wide lock every commit stalls every
// reader; with per-table locks readers of a disjoint table never block.
func BenchmarkReadersDuringCommits(b *testing.B) {
	const seedRows = 1000
	e := db.New(db.Options{})
	for _, ddl := range []string{
		`CREATE TABLE hot (id BIGINT PRIMARY KEY, v BIGINT)`,
		`CREATE TABLE churn (id BIGINT PRIMARY KEY, v BIGINT)`,
	} {
		if err := e.DDL(ddl); err != nil {
			b.Fatal(err)
		}
	}
	tx, err := e.BeginTx(context.Background(), false, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < seedRows; i++ {
		if _, err := tx.Exec("INSERT INTO hot (id, v) VALUES (?, ?)", int64(i), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits atomic.Int64
	writerErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := int64(1); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := e.BeginTx(context.Background(), false, 0)
			if err != nil {
				writerErr <- err
				return
			}
			if _, err := tx.Exec("INSERT INTO churn (id, v) VALUES (?, ?)", id, id); err != nil {
				tx.Abort()
				writerErr <- err
				return
			}
			if _, err := tx.Commit(); err != nil {
				writerErr <- err
				return
			}
			commits.Add(1)
			if id%256 == 0 {
				e.Vacuum()
			}
		}
	}()

	var probe atomic.Int64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := probe.Add(1) % seedRows
			tx, err := e.BeginTx(context.Background(), true, 0)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := tx.Query("SELECT v FROM hot WHERE id = ?", id); err != nil {
				tx.Abort()
				b.Error(err)
				return
			}
			tx.Abort()
		}
	})
	b.StopTimer()
	// Snapshot both the clock and the commit counter before stopping the
	// writer, so bg-commits/s reflects only the measured window.
	elapsed := time.Since(start).Seconds()
	nCommits := commits.Load()
	close(stop)
	wg.Wait()
	select {
	case err := <-writerErr:
		b.Fatalf("background writer died: %v", err)
	default:
	}
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "reads/s")
		b.ReportMetric(float64(nCommits)/elapsed, "bg-commits/s")
	}
}
