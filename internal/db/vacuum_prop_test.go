package db

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/sql"
)

// TestVacuumNeverReclaimsPinnedVisible is the reclamation-safety property
// test: while writers churn versions, vacuum passes run continuously (both
// the explicit loop below and the engine's own sequencer-triggered passes,
// which a tight VacuumEvery makes frequent), and no version visible at any
// currently pinned snapshot may ever be reclaimed. Each pinner holds two or
// three pins at once, placed with commits between them, so the versions
// that die between two of its pins — the ones the pin-set rule reclaims
// while both readers live — are reclaimed under its feet. It records the
// full table contents at each pinned snapshot, then re-reads every snapshot
// it holds under churn: any divergence means vacuum pulled a pinned-visible
// version (or the index pruning lost a reachable row). Run under -race via
// `make ci`.
func TestVacuumNeverReclaimsPinnedVisible(t *testing.T) {
	const rows = 24
	e := New(Options{VacuumEvery: 8})
	if err := e.DDL(`CREATE TABLE acct (id BIGINT PRIMARY KEY, v BIGINT, tag TEXT)`); err != nil {
		t.Fatal(err)
	}
	if err := e.DDL(`CREATE INDEX acct_v ON acct (v)`); err != nil {
		t.Fatal(err)
	}
	tx, err := e.BeginTx(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < rows; i++ {
		if _, err := tx.Exec("INSERT INTO acct (id, v, tag) VALUES (?, ?, ?)", i, i, fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	duration := 1500 * time.Millisecond
	if testing.Short() {
		duration = 300 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}

	// Writers: churn every row's chain (updates through both the primary
	// and secondary index paths) so vacuum always has work.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(w); ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := e.BeginTx(context.Background(), false, 0)
				if err != nil {
					fail("writer begin: %v", err)
					return
				}
				if _, err := tx.Exec("UPDATE acct SET v = ?, tag = ? WHERE id = ?",
					i, fmt.Sprint(i), i%rows); err != nil {
					tx.Abort()
					fail("writer exec: %v", err)
					return
				}
				if _, err := tx.Commit(); err != nil && err != ErrSerialization {
					fail("writer commit: %v", err)
					return
				}
			}
		}(w)
	}
	// Explicit vacuum loop on top of the sequencer-triggered passes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Vacuum()
		}
	}()

	// Pinners: pin, snapshot the table, re-read at the pin repeatedly.
	readAt := func(snap interval.Timestamp) ([][]sql.Value, error) {
		tx, err := e.BeginTx(context.Background(), true, snap)
		if err != nil {
			return nil, err
		}
		defer tx.Abort()
		r, err := tx.Query("SELECT id, v, tag FROM acct ORDER BY id")
		if err != nil {
			return nil, err
		}
		return r.Rows, nil
	}
	type held struct {
		snap interval.Timestamp
		want [][]sql.Value
	}
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(keep int) {
			defer wg.Done()
			var window []held // oldest first
			defer func() {
				for _, h := range window {
					e.Unpin(h.snap)
				}
			}()
			for {
				// Let commits land after the newest pin, so versions die
				// between the pins this reader holds.
				for n := len(window); n > 0 && e.LastCommit() < window[n-1].snap+4; {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
				select {
				case <-stop:
					return
				default:
				}
				snap, _ := e.PinLatest()
				window = append(window, held{snap: snap})
				want, err := readAt(snap)
				if err != nil {
					fail("pinned first read: %v", err)
					return
				}
				if len(want) != rows {
					fail("pinned snapshot %d sees %d rows, want %d", snap, len(want), rows)
					return
				}
				window[len(window)-1].want = want
				for rep := 0; rep < 5; rep++ {
					for _, h := range window {
						got, err := readAt(h.snap)
						if err != nil {
							fail("pinned re-read at %d: %v", h.snap, err)
							return
						}
						if !sameRows(h.want, got) {
							fail("pinned snapshot %d drifted: first %v, later %v", h.snap, h.want, got)
							return
						}
					}
				}
				if len(window) == keep {
					e.Unpin(window[0].snap)
					window = window[1:]
				}
			}
		}(2 + p%2)
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	// Sanity: the churn actually exercised reclamation.
	if e.Stats().Vacuumed == 0 {
		t.Error("no versions were vacuumed; the property was not exercised")
	}
}

func sameRows(a, b [][]sql.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !valuesEqual(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// valuesEqual reports whether two values compare equal as Datum.Equal does
// (NULL equals nothing, an integer equals the same DOUBLE).
func valuesEqual(a, b sql.Value) bool {
	x, errA := sql.DatumOf(a)
	y, errB := sql.DatumOf(b)
	return errA == nil && errB == nil && x.Equal(y)
}
