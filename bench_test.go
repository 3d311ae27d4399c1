// Benchmarks of single claims and components: two of the paper's side
// claims (§5.2's scan ordering, §8.1's free validity tracking), the
// pincushion and cache-node primitives, and the engine's commit concurrency.
// The paper's figures themselves are `go run ./cmd/txcache-bench -exp all`.
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
func runMix(b *testing.B, site *bench.Site) {
	b.Helper()
	staleness := time.Duration(site.Cfg.StalenessPaperSec * bench.TimeScale * float64(time.Second))
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
			}))
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site.PC.GetPins(context.Background(), time.Minute)
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
