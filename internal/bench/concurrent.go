package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/db"
)

// ConcurrencyResult is one point of the engine-concurrency experiment.
type ConcurrencyResult struct {
	Writers       int
	CommitsPerSec float64
	ReadsPerSec   float64
}

// Concurrency measures the database engine's commit path directly (no
// cache tier): commit throughput with N writers on disjoint tables, and
// read throughput on a separate hot table measured while those commits
// proceed. Under an engine-wide commit lock the read series collapses as
// writers are added; under per-table locking with the pipelined commit
// sequencer, readers of an untouched table are unaffected. This is the
// repo's multi-core engine-scaling trajectory (ROADMAP north star), not a
// paper figure.
func Concurrency(o Opts) ([]ConcurrencyResult, error) {
	o.fill()
	o.printf("# Engine concurrency: disjoint-table commits + disjoint readers\n")
	o.printf("%8s %12s %12s\n", "writers", "commits/s", "reads/s")
	var out []ConcurrencyResult
	for _, writers := range []int{1, 2, 4, 8} {
		r, err := concurrencyPoint(writers, o.Clients, o.Measure)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		o.printf("%8d %12.0f %12.0f\n", r.Writers, r.CommitsPerSec, r.ReadsPerSec)
	}
	return out, nil
}

func concurrencyPoint(writers, readers int, measure time.Duration) (ConcurrencyResult, error) {
	const hotRows = 512
	e := db.New(db.Options{})
	for i := 0; i < writers; i++ {
		if err := e.DDL(fmt.Sprintf(`CREATE TABLE shard%d (id BIGINT PRIMARY KEY, v BIGINT)`, i)); err != nil {
			return ConcurrencyResult{}, err
		}
	}
	if err := e.DDL(`CREATE TABLE hot (id BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		return ConcurrencyResult{}, err
	}
	tx, err := e.BeginTx(nil, false, 0)
	if err != nil {
		return ConcurrencyResult{}, err
	}
	for i := 0; i < hotRows; i++ {
		if _, err := tx.Exec("INSERT INTO hot (id, v) VALUES (?, ?)", int64(i), int64(i)); err != nil {
			return ConcurrencyResult{}, err
		}
	}
	if _, err := tx.Commit(); err != nil {
		return ConcurrencyResult{}, err
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits, reads atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf("INSERT INTO shard%d (id, v) VALUES (?, ?)", w)
			for id := int64(0); ; id++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := e.BeginTx(nil, false, 0)
				if err != nil {
					fail(err)
					return
				}
				if _, err := tx.Exec(src, id, id); err != nil {
					tx.Abort()
					fail(err)
					return
				}
				if _, err := tx.Commit(); err != nil {
					fail(err)
					return
				}
				commits.Add(1)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := int64(r); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := e.BeginTx(nil, true, 0)
				if err != nil {
					fail(err)
					return
				}
				if _, err := tx.Query("SELECT v FROM hot WHERE id = ?", i%hotRows); err != nil {
					tx.Abort()
					fail(err)
					return
				}
				tx.Abort()
				reads.Add(1)
			}
		}(r)
	}
	time.Sleep(measure)
	close(stop)
	wg.Wait()
	if firstErr != nil {
		return ConcurrencyResult{}, firstErr
	}
	sec := measure.Seconds()
	return ConcurrencyResult{
		Writers:       writers,
		CommitsPerSec: float64(commits.Load()) / sec,
		ReadsPerSec:   float64(reads.Load()) / sec,
	}, nil
}
