package db

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Write-path benchmarks: the commit pipeline (per-commit cost as the index
// count grows, serial and pipelined) and steady-state vacuum under churn.
// These are the before/after instruments for the epoch-sharded-slab +
// batched-index-maintenance refactor; EXPERIMENTS.md records the measured
// trajectory. They use only the public engine API so the same file runs
// against older trees for comparison.

// writeBenchEngine builds a table with nIdx secondary indexes (plus the
// primary key) and seeds it with rows.
func writeBenchEngine(tb testing.TB, nIdx, rows int) *Engine {
	tb.Helper()
	e := New(Options{})
	if err := e.DDL(`CREATE TABLE wh (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT, c BIGINT, d TEXT)`); err != nil {
		tb.Fatal(err)
	}
	for i, col := range []string{"a", "b", "c"}[:nIdx] {
		if err := e.DDL(fmt.Sprintf(`CREATE INDEX wh_%d ON wh (%s)`, i, col)); err != nil {
			tb.Fatal(err)
		}
	}
	tx, err := e.BeginTx(context.Background(), false, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tx.Exec("INSERT INTO wh (id, a, b, c, d) VALUES (?, ?, ?, ?, ?)",
			int64(i), int64(i%97), int64(i%31), int64(i), fmt.Sprintf("row-%d", i)); err != nil {
			tb.Fatal(err)
		}
		if i%500 == 499 {
			if _, err := tx.Commit(); err != nil {
				tb.Fatal(err)
			}
			if tx, err = e.BeginTx(context.Background(), false, 0); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkCommitPipeline measures one update+insert-skewed commit per
// iteration: three updates and one insert, mirroring the writeheavy mix's
// per-transaction shape, while a background 200ms ticker runs vacuum the
// way the pre-refactor deployment did (the refactored engine additionally
// schedules its own passes from the sequencer; the ticker passes are then
// near-free peeks). RunParallel adds pipelined commit groups.
func BenchmarkCommitPipeline(b *testing.B) {
	const seedRows = 4096
	for _, nIdx := range []int{1, 3} {
		b.Run(fmt.Sprintf("idx=%d", nIdx), func(b *testing.B) {
			e := writeBenchEngine(b, nIdx, seedRows)
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				t := time.NewTicker(200 * time.Millisecond)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						e.Vacuum()
					case <-stop:
						return
					}
				}
			}()
			next := atomic.Int64{}
			next.Store(seedRows)
			start := time.Now()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					tx, err := e.BeginTx(context.Background(), false, 0)
					if err != nil {
						b.Error(err)
						return
					}
					for u := int64(0); u < 3; u++ {
						if _, err := tx.Exec("UPDATE wh SET a = ?, d = ? WHERE id = ?",
							i%97, "upd", (i*3+u)%seedRows); err != nil {
							tx.Abort()
							b.Error(err)
							return
						}
					}
					if _, err := tx.Exec("INSERT INTO wh (id, a, b, c, d) VALUES (?, ?, ?, ?, ?)",
						i, i%97, i%31, i, "ins"); err != nil {
						tx.Abort()
						b.Error(err)
						return
					}
					if _, err := tx.Commit(); err != nil && err != ErrSerialization {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if elapsed := time.Since(start).Seconds(); elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed, "commits/s")
			}
		})
	}
}

// BenchmarkVacuum measures steady-state reclamation over a store much
// larger than the churned fraction: every iteration is one single-row
// update commit, and every 64th iteration runs a vacuum pass over the
// accumulated dead versions. Before the dead-queue refactor each pass
// scanned every row chain in the store (512 amortized chain visits per
// update here) and allocated a fresh result map; after, a pass pops only
// the dead queue — O(reclaimed), independent of store size.
func BenchmarkVacuum(b *testing.B) {
	const seedRows = 32768
	e := writeBenchEngine(b, 2, seedRows)
	e.Vacuum()
	vacuumed := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := e.BeginTx(context.Background(), false, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Exec("UPDATE wh SET a = ? WHERE id = ?", int64(i), int64(i%seedRows)); err != nil {
			tx.Abort()
			b.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			vacuumed += uint64(e.Vacuum())
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(vacuumed)/float64(b.N), "vacuumed/op")
	}
}

// commitAllocCeiling is the allocation budget for one warmed-up single-row
// UPDATE transaction (Begin + Exec + Commit, two indexes, no bus): the Tx,
// the replacement row's bytes and the header that boxes them into the
// version store, and the boxed/variadic statement arguments. Staging the
// row (its columns unboxed, its encoding), index maintenance, the version
// store append, the dead-queue record, and the sequencer hand-off stay on
// pooled or amortized storage. Measured 5 (6 while the replacement row was a
// slice of boxed values and the SET clauses a fresh slice a statement; 11 at
// pinning time); one of headroom.
const commitAllocCeiling = 6

func TestAllocBudgetCommit(t *testing.T) {
	e := writeBenchEngine(t, 2, 256)
	i := int64(0)
	commit := func() {
		i++
		tx, err := e.BeginTx(context.Background(), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("UPDATE wh SET a = ? WHERE id = ?", i%97, i%256); err != nil {
			tx.Abort()
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm scratch, parse cache, slabs, pending arenas.
	for w := 0; w < 97; w++ {
		commit()
	}
	if avg := testing.AllocsPerRun(200, commit); avg > commitAllocCeiling+raceAllocSlack {
		t.Fatalf("single-row update commit allocates %.1f objects/op, budget is %d", avg, commitAllocCeiling+raceAllocSlack)
	}
}

// vacuumAllocCeiling bounds a vacuum pass that reclaims one churned
// version (steady state: pop from a recycled slab, in-place chain unlink,
// batched index delete through reusable scratch). The empty-pass budget is
// zero: vacuum with nothing reclaimable must not allocate at all — the
// regression that motivated the dead-queue design was a fresh result map
// per no-op pass. Measured 10 at pinning time (the pass itself amortizes
// to zero; the budget is dominated by the driving commit).
const vacuumAllocCeiling = commitAllocCeiling

func TestAllocBudgetVacuum(t *testing.T) {
	e := writeBenchEngine(t, 2, 256)
	e.Vacuum()
	if avg := testing.AllocsPerRun(100, func() { e.Vacuum() }); avg > raceAllocSlack {
		t.Fatalf("empty vacuum pass allocates %.1f objects/op, budget is 0", avg)
	}
	i := int64(0)
	churnAndVacuum := func() {
		i++
		tx, err := e.BeginTx(context.Background(), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("UPDATE wh SET a = ? WHERE id = ?", i%97, i%256); err != nil {
			tx.Abort()
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		e.Vacuum()
	}
	churnAndVacuum()
	if avg := testing.AllocsPerRun(200, churnAndVacuum); avg > vacuumAllocCeiling+raceAllocSlack {
		t.Fatalf("churn+vacuum allocates %.1f objects/op, budget is %d", avg, vacuumAllocCeiling+raceAllocSlack)
	}
}
