package pincushion

import (
	"context"
	"errors"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"txcache/internal/clock"
	"txcache/internal/interval"
)

// fakeDB counts the pincushion's placements: Pin refuses the snapshots in
// refuse, as a database refuses one nobody holds pinned.
type fakeDB struct {
	mu       sync.Mutex
	refuse   map[interval.Timestamp]bool
	placed   map[interval.Timestamp]int // Pins less Unpins
	unpinned []interval.Timestamp
}

func (f *fakeDB) Pin(ts interval.Timestamp) error {
	runtime.Gosched() // let concurrent Registers of one snapshot meet here
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refuse[ts] {
		return errors.New("fake: snapshot is not pinned")
	}
	if f.placed == nil {
		f.placed = map[interval.Timestamp]int{}
	}
	f.placed[ts]++
	return nil
}

func (f *fakeDB) Unpin(ts interval.Timestamp) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.placed[ts]--
	f.unpinned = append(f.unpinned, ts)
}

// holds returns the pincushion's net placements on each snapshot that has any.
func (f *fakeDB) holds() map[interval.Timestamp]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[interval.Timestamp]int{}
	for ts, n := range f.placed {
		if n != 0 {
			out[ts] = n
		}
	}
	return out
}

func TestGetPinsFreshnessFilter(t *testing.T) {
	clk := &clock.Virtual{}
	p := New(Config{Clock: clk})
	base := clk.Now()
	p.Register(10, base)
	p.Register(20, base.Add(10*time.Second))
	clk.Advance(30 * time.Second)

	// Staleness 25s: only the pin from 20s ago qualifies.
	pins := p.GetPins(context.Background(), 25*time.Second)
	if len(pins) != 1 || pins[0].TS != 20 {
		t.Fatalf("pins = %+v", pins)
	}
	// Staleness 40s: both.
	pins = p.GetPins(context.Background(), 40*time.Second)
	if len(pins) != 2 || pins[0].TS != 10 || pins[1].TS != 20 {
		t.Fatalf("pins = %+v (must be sorted ascending)", pins)
	}
}

func TestSweepRespectsActiveAndRetention(t *testing.T) {
	clk := &clock.Virtual{}
	db := &fakeDB{}
	p := New(Config{Clock: clk, Retention: 15 * time.Second, DB: db})
	base := clk.Now()
	p.Register(10, base)
	p.GetPins(context.Background(), time.Minute) // 10 in use
	p.Register(20, base)                         // 20 unused

	clk.Advance(30 * time.Second)
	if n := p.Sweep(); n != 1 {
		t.Fatalf("sweep removed %d, want 1", n)
	}
	if len(db.unpinned) != 1 || db.unpinned[0] != 20 {
		t.Fatalf("db unpins = %v", db.unpinned)
	}
	if p.Stats().Pins != 1 {
		t.Fatalf("len = %d", p.Stats().Pins)
	}
	// Release then sweep removes the rest.
	p.Release([]interval.Timestamp{10})
	if n := p.Sweep(); n != 1 {
		t.Fatalf("second sweep removed %d", n)
	}
}

func TestGetPinsMarksInUse(t *testing.T) {
	clk := &clock.Virtual{}
	p := New(Config{Clock: clk, Retention: time.Second})
	p.Register(10, clk.Now())

	pins := p.GetPins(context.Background(), time.Minute) // marks 10 in use
	// Past retention but inside the leak cutoff: an in-use pin survives.
	// (Beyond leakFactor×retention with no activity it would be treated as
	// leaked — TestSweepReclaimsLeakedUses covers that.)
	clk.Advance(2 * time.Second)
	if n := p.Sweep(); n != 0 {
		t.Fatal("in-use pin must not be swept")
	}
	var tss []interval.Timestamp
	for _, pin := range pins {
		tss = append(tss, pin.TS)
	}
	p.Release(tss)
	if n := p.Sweep(); n != 1 {
		t.Fatalf("released pin should sweep, got %d", n)
	}
}

func TestNewest(t *testing.T) {
	p := New(Config{})
	if _, ok := p.Newest(); ok {
		t.Fatal("empty pincushion has no newest")
	}
	now := time.Now()
	p.Register(5, now)
	p.Register(9, now)
	p.Register(7, now)
	pin, ok := p.Newest()
	if !ok || pin.TS != 9 {
		t.Fatalf("newest = %+v", pin)
	}
}

func TestConcurrentUse(t *testing.T) {
	p := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ts := interval.Timestamp(i % 20)
				p.Register(ts, time.Now())
				pins := p.GetPins(context.Background(), time.Minute)
				var tss []interval.Timestamp
				for _, pin := range pins {
					tss = append(tss, pin.TS)
				}
				p.Release(tss)
			}
		}(g)
	}
	wg.Wait()
	// All uses balanced: every pin is tracked and none is in use.
	if st := p.Stats(); st.Pins != 20 || st.InClass(PinActive) != 0 {
		t.Fatalf("%d pins, %d in use; want 20 and none", st.Pins, st.InClass(PinActive))
	}
}

func BenchmarkGetPins(b *testing.B) {
	p := New(Config{})
	now := time.Now()
	for i := 0; i < 10; i++ {
		p.Register(interval.Timestamp(i), now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pins := p.GetPins(context.Background(), time.Minute)
		tss := make([]interval.Timestamp, len(pins))
		for j, pin := range pins {
			tss[j] = pin.TS
		}
		p.Release(tss)
	}
}

// TestSweepReclaimsLeakedUses: a use-count that is never released (client
// crash, or a Release lost after the daemon marked uses) must not pin the
// snapshot forever — after the leak cutoff (leakFactor × retention) Sweep
// force-unpins it. A pin with recent activity survives even while in use.
func TestSweepReclaimsLeakedUses(t *testing.T) {
	clk := &clock.Virtual{}
	db := &fakeDB{}
	p := New(Config{Clock: clk, DB: db, Retention: 10 * time.Second})
	p.Register(10, clk.Now())
	p.GetPins(context.Background(), time.Hour) // a use never released: the leak

	// Within the leak cutoff the pin survives every sweep.
	clk.Advance(2 * leakFactor * time.Second) // past retention, inside cutoff
	if n := p.Sweep(); n != 0 {
		t.Fatalf("sweep inside leak cutoff removed %d", n)
	}

	// Recent activity (another transaction marking the pin) resets the
	// leak clock.
	if pins := p.GetPins(context.Background(), time.Hour); len(pins) != 1 {
		t.Fatalf("pins = %+v", pins)
	}
	clk.Advance(3 * 10 * time.Second) // < leakFactor×retention since GetPins
	if n := p.Sweep(); n != 0 {
		t.Fatalf("recently-used pin swept (%d)", n)
	}

	// No activity past the cutoff: force-swept despite active > 0.
	clk.Advance(2 * leakFactor * 10 * time.Second)
	if n := p.Sweep(); n != 1 {
		t.Fatalf("leaked pin not swept (removed %d)", n)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.unpinned) != 1 || db.unpinned[0] != 10 {
		t.Fatalf("db unpins = %v, want [10]", db.unpinned)
	}
}

func TestStatsHorizonHistogram(t *testing.T) {
	clk := &clock.Virtual{}
	p := New(Config{Clock: clk, Retention: 30 * time.Second})
	base := clk.Now()

	// Four pins with staggered ages at observation time (clock advances
	// 20s after the last Register):
	//   ts=10: 80s old, held active  -> PinActive, 5-minute bucket
	//   ts=20: 40s old, unused       -> PinExpired (past 30s retention)
	//   ts=30: 25s old, unused       -> PinIdle, 60s bucket
	//   ts=40: 20s old, never used   -> PinIdle, 60s bucket
	p.Register(10, base)
	p.GetPins(context.Background(), time.Minute)
	clk.Advance(40 * time.Second)
	p.Register(20, clk.Now())
	clk.Advance(15 * time.Second)
	p.Register(30, clk.Now())
	clk.Advance(5 * time.Second)
	p.Register(40, clk.Now())
	clk.Advance(20 * time.Second)

	st := p.Stats()
	if st.Pins != 4 {
		t.Fatalf("Pins = %d, want 4", st.Pins)
	}
	edges := horizonBuckets
	sixty := 3   // index of the time.Minute edge
	fiveMin := 4 // index of the 5*time.Minute edge
	if edges[sixty] != time.Minute || edges[fiveMin] != 5*time.Minute {
		t.Fatalf("bucket edges changed (%v); update the test's expectations", edges)
	}
	var want Stats
	want.Pins = 4
	want.Requests = st.Requests
	want.Horizon[PinActive][fiveMin] = 1
	want.Horizon[PinExpired][sixty] = 1
	want.Horizon[PinIdle][sixty] = 2
	if st.Horizon != want.Horizon {
		t.Fatalf("Horizon = %v, want %v", st.Horizon, want.Horizon)
	}
	if a, i, e := st.InClass(PinActive), st.InClass(PinIdle), st.InClass(PinExpired); a != 1 || i != 2 || e != 1 {
		t.Fatalf("InClass active/idle/expired = %d/%d/%d, want 1/2/1", a, i, e)
	}

	// Stats observes, never mutates: a sweep after polling behaves exactly
	// as if Stats had not been called (expired pin unpinned, active kept).
	p.cfg.DB = nil
	if n := p.Sweep(); n != 1 {
		t.Fatalf("Sweep removed %d pins, want 1 (the expired one)", n)
	}
	st = p.Stats()
	if st.Sweeps != 1 || st.Pins != 3 || st.Horizon[PinExpired] != [len(horizonBuckets) + 1]int{} {
		t.Fatalf("after sweep: %+v", st)
	}
}

func TestStatsCounters(t *testing.T) {
	clk := &clock.Virtual{}
	p := New(Config{Clock: clk, Retention: time.Second})
	p.Register(1, clk.Now())
	p.GetPins(context.Background(), time.Minute)
	p.GetPins(context.Background(), time.Minute)
	// Age the pin far past the leak cutoff with its use-count still held.
	clk.Advance(time.Hour)
	p.Sweep()
	st := p.Stats()
	if st.Requests != 2 || st.Sweeps != 1 || st.Leaked != 1 || st.Pins != 0 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestAdopt: Register adopts a snapshot its caller holds pinned. The
// pincushion places one pin of its own on it, tracks the snapshot only if
// that succeeded, and removes exactly that pin when it sweeps the snapshot,
// however many times and from however many goroutines it was registered.
func TestAdopt(t *testing.T) {
	t.Run("ValidFlow", func(t *testing.T) {
		t.Run("PinsOnce", func(t *testing.T) {
			db := &fakeDB{}
			p := New(Config{DB: db})
			p.Register(10, time.Now())
			if got := db.holds(); len(got) != 1 || got[10] != 1 || p.Stats().Pins != 1 {
				t.Fatalf("placements %v, %d tracked; want one on 10, tracked", got, p.Stats().Pins)
			}
			if st := p.Stats(); st.InClass(PinActive) != 0 {
				t.Fatalf("Register added a use: %+v", st)
			}
		})
		t.Run("ReRegisterKeepsTheLaterWall", func(t *testing.T) {
			db := &fakeDB{}
			p := New(Config{DB: db})
			base := time.Now()
			p.Register(10, base)
			p.Register(10, base.Add(time.Second))
			p.Register(10, base.Add(-time.Second))
			if got := db.holds(); got[10] != 1 {
				t.Fatalf("%d placements on 10 after three Registers, want 1", got[10])
			}
			if pin, _ := p.Newest(); !pin.Wall.Equal(base.Add(time.Second)) {
				t.Fatalf("wall %v, want the latest registered %v", pin.Wall, base.Add(time.Second))
			}
		})
		t.Run("SweepUnpinsOncePerPin", func(t *testing.T) {
			clk := &clock.Virtual{}
			db := &fakeDB{}
			p := New(Config{Clock: clk, Retention: 15 * time.Second, DB: db})
			p.Register(10, clk.Now())
			p.Register(20, clk.Now())
			p.Register(20, clk.Now())
			p.Register(30, clk.Now().Add(time.Minute))
			clk.Advance(30 * time.Second)
			if n := p.Sweep(); n != 2 {
				t.Fatalf("sweep removed %d pins, want 2", n)
			}
			if n := p.SweepAll(); n != 1 {
				t.Fatalf("SweepAll removed %d pins, want 1", n)
			}
			slices.Sort(db.unpinned)
			if got := db.holds(); len(got) != 0 || !slices.Equal(db.unpinned, []interval.Timestamp{10, 20, 30}) {
				t.Fatalf("unpins %v leave %v placed; want one each of 10, 20, 30 and nothing", db.unpinned, got)
			}
		})
	})
	t.Run("RejectionFlow", func(t *testing.T) {
		t.Run("RefusedPinTracksNothing", func(t *testing.T) {
			db := &fakeDB{refuse: map[interval.Timestamp]bool{10: true}}
			p := New(Config{DB: db})
			p.Register(10, time.Now())
			if pins := p.GetPins(context.Background(), time.Hour); len(pins) != 0 || p.Stats().Pins != 0 {
				t.Fatalf("a snapshot the database refused is handed out: %v", pins)
			}
			if n := p.SweepAll(); n != 0 || len(db.unpinned) != 0 {
				t.Fatalf("SweepAll removed %d pins, unpinned %v; want nothing", n, db.unpinned)
			}
		})
	})
	t.Run("ConcurrentFlow", func(t *testing.T) {
		t.Run("ConcurrentRegistersLeaveOnePlacement", func(t *testing.T) {
			db := &fakeDB{}
			p := New(Config{DB: db})
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					for i := 0; i < 50; i++ {
						p.Register(interval.Timestamp(1+(g+i)%4), time.Now())
					}
				}(g)
			}
			close(start)
			wg.Wait()
			want := map[interval.Timestamp]int{1: 1, 2: 1, 3: 1, 4: 1}
			if got := db.holds(); !maps.Equal(got, want) || p.Stats().Pins != 4 {
				t.Fatalf("placements %v, %d tracked; want one on each of 1..4", got, p.Stats().Pins)
			}
			p.SweepAll()
			if got := db.holds(); len(got) != 0 {
				t.Fatalf("placements %v left after SweepAll", got)
			}
		})
	})
}

// TestSweepAllForcesTeardown: SweepAll unpins everything regardless of
// age or use-count — the clean-shutdown path, where nothing can still be
// using the pins and anything left would leak an engine reference.
func TestSweepAllForcesTeardown(t *testing.T) {
	clk := &clock.Virtual{}
	db := &fakeDB{}
	p := New(Config{Clock: clk, Retention: time.Hour, DB: db})
	base := clk.Now()
	p.Register(10, base)
	p.GetPins(context.Background(), time.Hour) // 10 in use, well within retention
	p.Register(20, base)

	if n := p.SweepAll(); n != 2 {
		t.Fatalf("sweepall removed %d pins, want 2", n)
	}
	if p.Stats().Pins != 0 {
		t.Fatalf("len = %d after SweepAll", p.Stats().Pins)
	}
	if len(db.unpinned) != 2 || len(db.holds()) != 0 {
		t.Fatalf("db unpins = %v, want one each for 10 and 20", db.unpinned)
	}
}

// TestStalenessEarlyTrim: with Config.Staleness set, an unused pin older
// than the staleness bound — one GetPins can never hand out again — is
// reclaimed without waiting out the (much longer) retention, so the
// database's vacuum horizon advances as soon as the pin stops mattering.
func TestStalenessEarlyTrim(t *testing.T) {
	clk := &clock.Virtual{}
	db := &fakeDB{}
	p := New(Config{Clock: clk, Retention: time.Minute, Staleness: 10 * time.Second, DB: db})
	base := clk.Now()
	p.Register(30, base)
	p.GetPins(context.Background(), time.Hour) // 30 in use: must survive any trim
	p.Register(10, base)
	p.Register(20, base)

	// Inside the staleness bound nothing is trimmable.
	clk.Advance(5 * time.Second)
	if n := p.Sweep(); n != 0 {
		t.Fatalf("sweep inside staleness removed %d", n)
	}

	// Past staleness but far inside retention: both idle pins go; the
	// active one stays regardless of age.
	clk.Advance(10 * time.Second)
	if at, ok := p.NextTrim(); !ok || clk.Now().Before(at) {
		t.Fatalf("NextTrim = %v ok=%v, want a due time", at, ok)
	}
	if n := p.Sweep(); n != 2 {
		t.Fatalf("early trim removed %d pins, want 2", n)
	}
	if len(db.unpinned) != 2 {
		t.Fatalf("db unpins = %v", db.unpinned)
	}
	if p.Stats().Pins != 1 {
		t.Fatalf("len = %d, want the active pin only", p.Stats().Pins)
	}
}

// TestStatsClassifiesByTrimThreshold: with a staleness bound, the horizon
// histogram's expired class means "trimmable now" — unused pins past the
// staleness bound count as expired even though retention hasn't elapsed.
func TestStatsClassifiesByTrimThreshold(t *testing.T) {
	clk := &clock.Virtual{}
	p := New(Config{Clock: clk, Retention: time.Minute, Staleness: 10 * time.Second})
	base := clk.Now()
	p.Register(10, base)
	clk.Advance(15 * time.Second)

	st := p.Stats()
	if total := st.InClass(PinExpired); total != 1 {
		t.Fatalf("expired class = %d pins, want 1 (histogram %+v)", total, st.Horizon)
	}
}
