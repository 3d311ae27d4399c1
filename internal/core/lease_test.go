package core

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"txcache/internal/clock"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/pincushion"
)

// lease_test.go covers the pin-set lease (DESIGN.md "Pin-set lease"): one
// GetPins serves every read-only transaction a client begins within a term,
// and its uses go back to the pincushion in exactly one Release.

// countingPins is a pincushion.Service that counts the frames a TCP
// deployment would send and records what each Release gave back. gate, when
// set, holds every GetPins until it is closed.
type countingPins struct {
	inner pincushion.Service
	gate  chan struct{}

	mu        sync.Mutex
	getPins   int
	registers int
	released  [][]interval.Timestamp
}

func (p *countingPins) GetPins(ctx context.Context, staleness time.Duration) []pincushion.Pin {
	p.mu.Lock()
	p.getPins++
	gate := p.gate
	p.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return p.inner.GetPins(ctx, staleness)
}

func (p *countingPins) Register(ts interval.Timestamp, wall time.Time) {
	p.mu.Lock()
	p.registers++
	p.mu.Unlock()
	p.inner.Register(ts, wall)
}

func (p *countingPins) Release(tss []interval.Timestamp) {
	p.mu.Lock()
	p.released = append(p.released, slices.Clone(tss)) // Release must not retain tss
	p.mu.Unlock()
	p.inner.Release(tss)
}

// calls returns the GetPins and Release counts so far.
func (p *countingPins) calls() (getPins, releases int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.getPins, len(p.released)
}

// leaseFresh is the FreshPinThreshold the lease tests run with; the term is
// a tenth of it. Only the virtual clock moves by such amounts in a test, so
// the real-time idle timer never fires unless a test shortens it.
const (
	leaseFresh = 10 * time.Minute
	leaseTerm  = leaseFresh / leaseTermDivisor
)

// leaseRig is an engine, a pincushion and one client behind a counting
// Service, all on one virtual clock, with no cache nodes: the lease is about
// pins, not lookups.
type leaseRig struct {
	clk    *clock.Virtual
	engine *db.Engine
	pc     *pincushion.Pincushion
	svc    *countingPins
	client *Client
}

func newLeaseRig(t *testing.T, fresh time.Duration) *leaseRig {
	t.Helper()
	clk := &clock.Virtual{}
	engine := db.New(db.Options{Clock: clk})
	if err := engine.DDL(`CREATE TABLE kv (id BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	pc := pincushion.New(pincushion.Config{Clock: clk, DB: engine, Retention: 4 * time.Hour, Staleness: 2 * time.Hour})
	r := &leaseRig{clk: clk, engine: engine, pc: pc, svc: &countingPins{inner: pc}}
	r.client = r.newClient(fresh)
	t.Cleanup(r.client.Close)
	return r
}

// newClient is another application server on the same pincushion.
func (r *leaseRig) newClient(fresh time.Duration) *Client {
	return NewClient(Config{DB: EngineDB{r.engine}, Pincushion: r.svc, Clock: r.clk, FreshPinThreshold: fresh})
}

// write commits one row, moving the database's latest snapshot on.
func (r *leaseRig) write(t *testing.T, id int64) {
	t.Helper()
	_, err := r.client.ReadWrite(context.Background(), func(tx *Tx) error {
		_, err := tx.Exec("INSERT INTO kv (id, v) VALUES (?, 0)", id)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// pin hands the pincushion the latest snapshot at the current virtual time,
// the way another application server's ★ transaction would.
func (r *leaseRig) pin() interval.Timestamp {
	ts := r.engine.LastCommit()
	r.pc.Register(ts, r.clk.Now())
	return ts
}

// query forces tx to select its snapshot.
func query(t *testing.T, tx *Tx) {
	t.Helper()
	if _, err := tx.Query("SELECT v FROM kv WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
}

func pinTimestamps(tx *Tx) []interval.Timestamp {
	var out []interval.Timestamp
	for _, p := range tx.pinSet {
		out = append(out, p.TS)
	}
	return out
}

// activeUses is how many pins the pincushion counts in use.
func (r *leaseRig) activeUses() int { return r.pc.Stats().InClass(pincushion.PinActive) }

func (r *leaseRig) wantCalls(t *testing.T, getPins, releases int) {
	t.Helper()
	if g, rel := r.svc.calls(); g != getPins || rel != releases {
		t.Fatalf("%d GetPins and %d Releases, want %d and %d", g, rel, getPins, releases)
	}
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func TestPinSetLease(t *testing.T) {
	const hour = time.Hour

	t.Run("ValidFlow", func(t *testing.T) {
		t.Run("SequentialTransactionsShareOneFetch", func(t *testing.T) {
			r := newLeaseRig(t, leaseFresh)
			p1 := r.pin()
			const n = 50
			for i := 0; i < n; i++ {
				tx := beginRO(r.client, WithStaleness(hour))
				if got := pinTimestamps(tx); !slices.Equal(got, []interval.Timestamp{p1}) {
					t.Fatalf("transaction %d: pin set %v, want [%d]", i, got, p1)
				}
				query(t, tx) // runs at the leased pin: no ★, nothing registered
				if ts, err := tx.Commit(); err != nil || ts != p1 {
					t.Fatalf("transaction %d ran at %d (%v), want %d", i, ts, err, p1)
				}
				r.clk.Advance(leaseTerm / (2 * n)) // the whole loop stays inside one term
			}
			r.wantCalls(t, 1, 0)
			st := r.client.Stats().Snapshot()
			if st.LeaseFetches != 1 || st.LeasedBegins != n-1 || st.PinFetchEmpty != 0 || st.PinsPlaced != 0 {
				t.Fatalf("fetches=%d leased=%d empty=%d placed=%d, want 1, %d, 0, 0",
					st.LeaseFetches, st.LeasedBegins, st.PinFetchEmpty, st.PinsPlaced, n-1)
			}
			if r.activeUses() != 1 {
				t.Fatalf("%d pins in use while the lease is held, want 1", r.activeUses())
			}
		})

		t.Run("OwnRegisterEndsTheLease", func(t *testing.T) {
			r := newLeaseRig(t, leaseFresh)
			r.write(t, 0)
			r.pin()
			r.clk.Advance(leaseFresh + time.Second) // the only pin is now too old to run at
			r.write(t, 1)
			// Every transaction misses: its query has to select a snapshot. The
			// first finds the newest pin stale and places one; were its lease
			// kept, so would each of the others for a whole term.
			const n = 1000
			for i := 0; i < n; i++ {
				tx := beginRO(r.client, WithStaleness(hour))
				query(t, tx)
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if got := r.client.Stats().PinsPlaced.Load(); got != 1 {
				t.Fatalf("PinsPlaced = %d over %d misses on a stale pin set, want 1", got, n)
			}
			// Fetch, ★ pin, fetch again; the ended lease went back.
			r.wantCalls(t, 2, 1)
			if r.svc.registers != 1 {
				t.Fatalf("%d Registers, want 1", r.svc.registers)
			}
		})

		t.Run("LongTransactionKeepsItsOwnLease", func(t *testing.T) {
			r := newLeaseRig(t, leaseFresh)
			p1 := r.pin()
			long := beginRO(r.client, WithStaleness(hour))
			r.clk.Advance(leaseTerm)
			r.write(t, 0)
			p2 := r.pin()
			short := beginRO(r.client, WithStaleness(hour)) // past the term: a second lease
			if got := pinTimestamps(short); !slices.Equal(got, []interval.Timestamp{p1, p2}) {
				t.Fatalf("second lease holds %v, want [%d %d]", got, p1, p2)
			}
			short.Commit()
			r.wantCalls(t, 2, 0) // the superseded lease still has a transaction on it

			// Hours later p1 is past every bound, but the long transaction's
			// lease still counts it in use: no sweep may take it.
			r.clk.Advance(3 * hour)
			if n := r.pc.Sweep(); n != 0 || r.engine.PinnedCount() != 2 {
				t.Fatalf("sweep took %d leased pins, engine holds %d", n, r.engine.PinnedCount())
			}
			if ts, err := long.Commit(); err != nil || ts != p1 {
				t.Fatalf("long transaction ended at %d (%v), want its leased pin %d", ts, err, p1)
			}
			r.wantCalls(t, 2, 1)
			if got := r.svc.released[0]; !slices.Equal(got, []interval.Timestamp{p1}) {
				t.Fatalf("first Release gave back %v, want the superseded lease's [%d]", got, p1)
			}

			r.client.Close()
			r.wantCalls(t, 2, 2)
			if got := r.svc.released[1]; !slices.Equal(got, []interval.Timestamp{p1, p2}) {
				t.Fatalf("Close gave back %v, want [%d %d]", got, p1, p2)
			}
			r.client.Close() // nothing left to give back
			r.wantCalls(t, 2, 2)
			if r.activeUses() != 0 {
				t.Fatalf("%d pins still in use after Close", r.activeUses())
			}
			if n := r.pc.Sweep(); n != 2 || r.engine.PinnedCount() != 0 {
				t.Fatalf("sweep trimmed %d pins, engine still holds %d", n, r.engine.PinnedCount())
			}
		})

		t.Run("CloseWaitsForTheLastTransaction", func(t *testing.T) {
			r := newLeaseRig(t, leaseFresh)
			r.pin()
			tx := beginRO(r.client, WithStaleness(hour))
			r.client.Close()
			r.wantCalls(t, 1, 0)
			tx.Abort()
			r.wantCalls(t, 1, 1)
			if r.activeUses() != 0 {
				t.Fatalf("%d pins still in use", r.activeUses())
			}
		})

		t.Run("IdleLeaseIsReleasedWithinATerm", func(t *testing.T) {
			// The idle timer runs in real time: a 20 ms term.
			r := newLeaseRig(t, 200*time.Millisecond)
			r.pin()
			beginRO(r.client, WithStaleness(hour)).Commit()
			eventually(t, "the quiet client's lease is released", func() bool { return r.activeUses() == 0 })
			r.wantCalls(t, 1, 1)
			// Nothing holds the vacuum horizon: once past the trim age the pin goes.
			r.clk.Advance(3 * hour)
			if n := r.pc.Sweep(); n != 1 || r.engine.PinnedCount() != 0 {
				t.Fatalf("sweep trimmed %d pins, engine still holds %d", n, r.engine.PinnedCount())
			}
			beginRO(r.client, WithStaleness(hour)).Commit() // and the client goes on working
			r.wantCalls(t, 2, 1)                            // no pin left: nothing leased, nothing more to give back
		})

		t.Run("SecondClientSeesANewPinWithinOneTerm", func(t *testing.T) {
			r := newLeaseRig(t, leaseFresh)
			a, b := r.client, r.newClient(leaseFresh)
			defer b.Close()
			r.write(t, 0)
			p1 := r.pin()
			r.clk.Advance(leaseFresh + time.Second)
			beginRO(b, WithStaleness(hour)).Commit() // B leases [p1]

			r.write(t, 1)
			tx := beginRO(a, WithStaleness(hour))
			query(t, tx) // A finds p1 stale and places p2
			p2, err := tx.Commit()
			if err != nil || p2 <= p1 {
				t.Fatalf("A ran at %d (%v), want a new pin above %d", p2, err, p1)
			}

			tx = beginRO(b, WithStaleness(hour))
			if got := pinTimestamps(tx); !slices.Equal(got, []interval.Timestamp{p1}) {
				t.Fatalf("inside the term B sees %v, want its leased [%d]", got, p1)
			}
			tx.Commit()
			r.clk.Advance(leaseTerm)
			tx = beginRO(b, WithStaleness(hour))
			if got := pinTimestamps(tx); !slices.Equal(got, []interval.Timestamp{p1, p2}) {
				t.Fatalf("one term later B sees %v, want [%d %d]", got, p1, p2)
			}
			query(t, tx)
			if ts, err := tx.Commit(); err != nil || ts != p2 {
				t.Fatalf("B ran at %d (%v), want A's pin %d", ts, err, p2)
			}
			if got := b.Stats().PinsPlaced.Load(); got != 0 {
				t.Fatalf("B placed %d pins of its own", got)
			}
		})
	})

	t.Run("RejectionFlow", func(t *testing.T) {
		t.Run("EmptyAnswerIsNeverLeased", func(t *testing.T) {
			r := newLeaseRig(t, leaseFresh)
			for i := 1; i <= 3; i++ {
				tx := beginRO(r.client, WithStaleness(hour))
				if tx.PinSetSize() != 0 || !tx.HasStar() {
					t.Fatalf("pin set %v star=%v on an empty pincushion", pinTimestamps(tx), tx.HasStar())
				}
				tx.Commit()
				r.wantCalls(t, i, 0) // asked again every time, nothing to give back
			}
			if got := r.client.Stats().PinFetchEmpty.Load(); got != 3 {
				t.Fatalf("PinFetchEmpty = %d, want 3", got)
			}
			p1 := r.pin()
			tx := beginRO(r.client, WithStaleness(hour))
			if got := pinTimestamps(tx); !slices.Equal(got, []interval.Timestamp{p1}) {
				t.Fatalf("the first pin is seen at once: got %v, want [%d]", got, p1)
			}
			tx.Commit()
		})

		t.Run("PinAgedOutBetweenFetchAndBegin", func(t *testing.T) {
			r := newLeaseRig(t, leaseFresh)
			p1 := r.pin()
			r.clk.Advance(10 * time.Second)
			r.write(t, 0)
			p2 := r.pin()
			bound := 10*time.Second + leaseTerm/2
			tx := beginRO(r.client, WithStaleness(bound))
			if got := pinTimestamps(tx); !slices.Equal(got, []interval.Timestamp{p1, p2}) {
				t.Fatalf("at the fetch both pins are inside the bound: got %v", got)
			}
			tx.Commit()
			r.clk.Advance(leaseTerm/2 + time.Second) // same lease; p1 is now older than the bound
			tx = beginRO(r.client, WithStaleness(bound))
			if got := pinTimestamps(tx); !slices.Equal(got, []interval.Timestamp{p2}) {
				t.Fatalf("a pin past the staleness bound stayed in the pin set: %v, want [%d]", got, p2)
			}
			tx.Commit()
			r.wantCalls(t, 1, 0)
		})

		t.Run("TermExpirySupersedes", func(t *testing.T) {
			r := newLeaseRig(t, leaseFresh)
			r.pin()
			beginRO(r.client, WithStaleness(hour)).Commit()
			r.clk.Advance(leaseTerm - time.Nanosecond)
			beginRO(r.client, WithStaleness(hour)).Commit()
			r.wantCalls(t, 1, 0)
			r.clk.Advance(time.Nanosecond)
			beginRO(r.client, WithStaleness(hour)).Commit()
			r.wantCalls(t, 2, 1) // the old lease had no transaction left: released on the spot
		})

		t.Run("WaiterGivesUpWithItsContext", func(t *testing.T) {
			r := newLeaseRig(t, leaseFresh)
			r.pin()
			r.svc.gate = make(chan struct{})
			fetcher := make(chan *Tx)
			go func() {
				tx, _ := r.client.Begin(context.Background(), WithStaleness(hour))
				fetcher <- tx
			}()
			eventually(t, "the fetch is in flight", func() bool { g, _ := r.svc.calls(); return g == 1 })
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			tx, err := r.client.Begin(ctx, WithStaleness(hour))
			if err != nil || tx.PinSetSize() != 0 {
				t.Fatalf("waiter: %v, pin set %v; want a transaction with no pins", err, pinTimestamps(tx))
			}
			tx.Abort()
			r.wantCalls(t, 1, 0) // it waited for the fetch in flight instead of making its own
			close(r.svc.gate)
			if tx := <-fetcher; tx.PinSetSize() != 1 {
				t.Fatalf("fetcher's pin set %v", pinTimestamps(tx))
			} else {
				tx.Commit()
			}
		})
	})

	// One lease fetched with a 30 s bound at t0, holding pins placed 25 s, 10 s
	// and 0 s before t0; then a Begin `after` later asking for `bound`.
	t.Run("Table", func(t *testing.T) {
		s := time.Second
		for _, tc := range []struct {
			name    string
			after   time.Duration
			bound   time.Duration
			minTS   int // index of the pin WithMinTimestamp names; -1 for none
			want    []int
			refetch bool
		}{
			{"SameBound", 0, 30 * s, -1, []int{0, 1, 2}, false},
			{"SmallerBoundFiltersLocally", 0, 15 * s, -1, []int{1, 2}, false},
			{"BoundIsInclusive", 0, 10 * s, -1, []int{1, 2}, false},
			{"TinyBound", 0, s / 2, -1, []int{2}, false},
			{"AgesWithTheClientClock", 6 * s, 30 * s, -1, []int{1, 2}, false},
			{"MinTimestampAndStaleness", 6 * s, 30 * s, 2, []int{2}, false},
			{"MinTimestampAlone", 0, 30 * s, 1, []int{1, 2}, false},
			{"LargerBoundRefetches", 0, 31 * s, -1, []int{0, 1, 2}, true},
			{"PastTheTermRefetches", leaseTerm, 2 * time.Minute, -1, []int{0, 1, 2}, true},
		} {
			t.Run(tc.name, func(t *testing.T) {
				r := newLeaseRig(t, leaseFresh)
				var pins []interval.Timestamp
				for i, gap := range []time.Duration{0, 15 * s, 10 * s} {
					r.clk.Advance(gap)
					r.write(t, int64(i))
					pins = append(pins, r.pin())
				}
				beginRO(r.client, WithStaleness(30*s)).Commit()
				r.clk.Advance(tc.after)

				opts := []TxOption{WithStaleness(tc.bound)}
				if tc.minTS >= 0 {
					opts = append(opts, WithMinTimestamp(pins[tc.minTS]))
				}
				tx := beginRO(r.client, opts...)
				defer tx.Abort()
				var want []interval.Timestamp
				for _, i := range tc.want {
					want = append(want, pins[i])
				}
				if got := pinTimestamps(tx); !slices.Equal(got, want) {
					t.Fatalf("pin set %v, want %v", got, want)
				}
				wantGets := 1
				if tc.refetch {
					wantGets = 2
				}
				if g, _ := r.svc.calls(); g != wantGets {
					t.Fatalf("%d GetPins, want %d", g, wantGets)
				}
			})
		}
	})

	t.Run("ConcurrentFlow", func(t *testing.T) {
		t.Run("ConcurrentBeginsShareOneFetch", func(t *testing.T) {
			r := newLeaseRig(t, leaseFresh)
			r.pin()
			r.svc.gate = make(chan struct{})
			const n = 32
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx, err := r.client.Begin(context.Background(), WithStaleness(time.Hour))
					if err != nil || tx.PinSetSize() != 1 {
						t.Errorf("begin: %v, %d pins", err, tx.PinSetSize())
						return
					}
					if _, err := tx.Query("SELECT v FROM kv WHERE id = 0"); err != nil {
						t.Error(err)
					}
					if _, err := tx.Commit(); err != nil {
						t.Error(err)
					}
				}()
			}
			eventually(t, "the fetch is in flight", func() bool { g, _ := r.svc.calls(); return g == 1 })
			close(r.svc.gate) // most of the others are by now waiting for it
			wg.Wait()
			r.wantCalls(t, 1, 0)
			r.client.Close()
			r.wantCalls(t, 1, 1)
		})

		// Transactions on two clients race term expiry, the idle timer, each
		// other's ★ pins, a sweeper that trims whatever is unused and Close.
		// Whatever the interleaving, no transaction runs at a snapshot the
		// database has unpinned, every lease is given back exactly once, and
		// nothing stays in use.
		t.Run("StressEndsWithNothingInUse", func(t *testing.T) {
			fresh := 50 * time.Millisecond // a 5 ms term, on the virtual clock and for the idle timer
			r := newLeaseRig(t, fresh)
			clients := []*Client{r.client, r.newClient(fresh)}
			r.write(t, 0)
			stop := make(chan struct{})
			var bg, workers sync.WaitGroup
			bg.Add(1)
			go func() {
				defer bg.Done()
				for i := int64(1); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					step := time.Millisecond
					if i%50 == 0 {
						step = time.Hour // ages pins past the pincushion's trim threshold
					}
					r.clk.Advance(step)
					_, err := r.client.ReadWrite(context.Background(), func(tx *Tx) error {
						_, err := tx.Exec("INSERT INTO kv (id, v) VALUES (?, 0)", i)
						return err
					})
					if err != nil {
						t.Error(err)
						return
					}
					r.pc.Sweep()
				}
			}()
			for w := 0; w < 8; w++ {
				workers.Add(1)
				go func(c *Client) {
					defer workers.Done()
					for i := 0; i < 200; i++ {
						tx, err := c.Begin(context.Background(), WithStaleness(time.Duration(1+i%3)*30*time.Minute))
						if err != nil {
							t.Error(err)
							return
						}
						if _, err := tx.Query("SELECT v FROM kv WHERE id = 0"); err != nil {
							t.Errorf("query at snapshot %d: %v", tx.dbSnap, err)
						}
						if i%7 == 0 {
							tx.Abort()
						} else if _, err := tx.Commit(); err != nil {
							t.Error(err)
						}
					}
				}(clients[w%2])
			}
			workers.Wait()
			close(stop)
			bg.Wait()
			for _, c := range clients {
				c.Close()
			}
			if r.activeUses() != 0 {
				t.Fatalf("%d pins still in use after both clients closed", r.activeUses())
			}
			r.svc.mu.Lock()
			gets, rels := r.svc.getPins, len(r.svc.released)
			r.svc.mu.Unlock()
			var leases uint64
			for _, c := range clients {
				leases += c.Stats().LeaseFetches.Load()
			}
			if uint64(rels) != leases {
				t.Fatalf("%d Releases for %d leases (%d GetPins)", rels, leases, gets)
			}
			r.clk.Advance(5 * time.Hour)
			r.pc.Sweep()
			if n := r.engine.PinnedCount(); n != 0 {
				t.Fatalf("engine still holds %d pinned snapshots", n)
			}
		})
	})
}

// lostRegister is a pincushion whose Registers never arrive.
type lostRegister struct{ pincushion.Service }

func (lostRegister) Register(interval.Timestamp, time.Time) {}

// TestStarPinIsTheSessions: a transaction that runs in the present (★) holds
// its snapshot by its own database session and by nothing else. The
// pincushion adopts the snapshot with a pin of its own, which its sweep
// removes; with the Register lost, or with no pincushion at all, the
// database holds no pin once the transaction has ended, committed or
// aborted.
func TestStarPinIsTheSessions(t *testing.T) {
	for _, tc := range []struct {
		name    string
		service func(*pincushion.Pincushion) pincushion.Service
		adopted int
	}{
		{"Adopted", func(p *pincushion.Pincushion) pincushion.Service { return p }, 1},
		{"LostRegister", func(p *pincushion.Pincushion) pincushion.Service { return lostRegister{p} }, 0},
		{"NoPincushion", func(*pincushion.Pincushion) pincushion.Service { return nil }, 0},
	} {
		for _, commit := range []bool{true, false} {
			name := tc.name + "/Abort"
			if commit {
				name = tc.name + "/Commit"
			}
			t.Run(name, func(t *testing.T) {
				r := newLeaseRig(t, leaseFresh)
				c := NewClient(Config{DB: EngineDB{r.engine}, Pincushion: tc.service(r.pc), Clock: r.clk})
				defer c.Close()
				tx := beginRO(c, WithStaleness(time.Hour))
				query(t, tx)
				if tx.HasStar() || tx.dbSnap != r.engine.LastCommit() || c.Stats().PinsPlaced.Load() != 1 {
					t.Fatalf("%v after its first query; want ★ taken at %d", tx, r.engine.LastCommit())
				}
				if n := r.engine.PinnedCount(); n != 1 {
					t.Fatalf("%d snapshots pinned while the transaction runs, want its own", n)
				}
				if commit {
					if _, err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					tx.Abort()
				}
				if n := r.engine.PinnedCount(); n != tc.adopted {
					t.Fatalf("%d snapshots pinned after the transaction ended, want %d", n, tc.adopted)
				}
				if r.pc.SweepAll(); r.engine.PinnedCount() != 0 {
					t.Fatalf("%d snapshots pinned after the pincushion swept its own", r.engine.PinnedCount())
				}
			})
		}
	}
}
