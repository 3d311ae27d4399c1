package mvcc

import (
	"math/rand"
	"slices"
	"testing"

	"txcache/internal/interval"
)

func TestInsertVisible(t *testing.T) {
	s := NewStore()
	id := s.Insert("v1", 10)
	if _, ok := s.VisibleAt(id, 9); ok {
		t.Fatal("row visible before creation")
	}
	v, ok := s.VisibleAt(id, 10)
	if !ok || v.Data != "v1" {
		t.Fatalf("VisibleAt(10) = %+v, %v", v, ok)
	}
	if got := v.Interval(); got != (interval.Interval{Lo: 10, Hi: interval.Infinity}) {
		t.Fatalf("interval = %v", got)
	}
}

func TestUpdateChain(t *testing.T) {
	s := NewStore()
	id := s.Insert("a", 10)
	s.Update(id, "b", 20)
	s.Update(id, "c", 30)

	cases := []struct {
		ts   interval.Timestamp
		want any
		ok   bool
	}{
		{5, nil, false}, {10, "a", true}, {19, "a", true},
		{20, "b", true}, {29, "b", true}, {30, "c", true}, {1 << 40, "c", true},
	}
	for _, c := range cases {
		v, ok := s.VisibleAt(id, c.ts)
		if ok != c.ok || (ok && v.Data != c.want) {
			t.Errorf("VisibleAt(%d) = %v,%v want %v,%v", c.ts, v.Data, ok, c.want, c.ok)
		}
	}
	// Version intervals partition [10, inf).
	var ivs []interval.Interval
	for _, v := range s.Chain(id) {
		ivs = append(ivs, v.Interval())
	}
	if len(ivs) != 3 || ivs[0] != (interval.Interval{Lo: 10, Hi: 20}) ||
		ivs[1] != (interval.Interval{Lo: 20, Hi: 30}) || ivs[2] != (interval.Interval{Lo: 30, Hi: interval.Infinity}) {
		t.Fatalf("version intervals = %v", ivs)
	}
}

func TestDelete(t *testing.T) {
	s := NewStore()
	id := s.Insert("a", 10)
	s.Delete(id, 25)
	if _, ok := s.VisibleAt(id, 24); !ok {
		t.Fatal("row should be visible just before delete")
	}
	if _, ok := s.VisibleAt(id, 25); ok {
		t.Fatal("row visible at delete timestamp")
	}
	v, ok := s.Latest(id)
	if !ok || v.Deleted != 25 {
		t.Fatalf("Latest = %+v, %v", v, ok)
	}
}

func TestUpdateDeletedPanics(t *testing.T) {
	s := NewStore()
	id := s.Insert("a", 10)
	s.Delete(id, 20)
	defer func() {
		if recover() == nil {
			t.Fatal("update of deleted row should panic")
		}
	}()
	s.Update(id, "b", 30)
}

// byRow regroups reclaimed versions for assertions.
func byRow(rec []Reclaimed) map[RowID][]Version {
	out := map[RowID][]Version{}
	for _, r := range rec {
		out[r.ID] = append(out[r.ID], r.Ver)
	}
	return out
}

func TestVacuum(t *testing.T) {
	s := NewStore()
	id1 := s.Insert("a", 10) // updated at 20, 30
	s.Update(id1, "b", 20)
	s.Update(id1, "c", 30)
	id2 := s.Insert("x", 15)
	s.Delete(id2, 25)

	if s.DeadCount() != 3 {
		t.Fatalf("DeadCount = %d, want 3", s.DeadCount())
	}
	if !s.Reclaimable(20, nil) || s.Reclaimable(19, nil) {
		t.Fatal("Reclaimable must track the oldest death (20)")
	}

	// Horizon 20: reclaim versions with Deleted <= 20, i.e. id1's "a".
	var buf []Reclaimed
	buf = s.Vacuum(20, buf[:0])
	removed := byRow(buf)
	if len(removed) != 1 || len(removed[id1]) != 1 || removed[id1][0].Data != "a" {
		t.Fatalf("removed = %v", removed)
	}
	if v, ok := s.VisibleAt(id1, 20); !ok || v.Data != "b" {
		t.Fatal("version b must survive horizon 20")
	}
	if _, ok := s.VisibleAt(id2, 20); !ok {
		t.Fatal("id2 visible at 20 must survive")
	}

	// Horizon 40: id2 fully reclaimed, id1 keeps only "c".
	buf = s.Vacuum(40, buf[:0])
	removed = byRow(buf)
	if len(removed[id2]) != 1 {
		t.Fatalf("id2 not reclaimed: %v", removed)
	}
	if s.Len() != 1 || s.VersionCount() != 1 || s.DeadCount() != 0 {
		t.Fatalf("Len=%d VersionCount=%d DeadCount=%d, want 1,1,0",
			s.Len(), s.VersionCount(), s.DeadCount())
	}
	if buf = s.Vacuum(1<<40, buf[:0]); len(buf) != 0 {
		t.Fatalf("still-valid version must never be vacuumed: %v", buf)
	}
}

// TestVacuumSlabRecycling churns enough deaths to span many slabs and
// verifies incremental passes reclaim exactly the horizon prefix.
func TestVacuumSlabRecycling(t *testing.T) {
	s := NewStore()
	id := s.Insert(0, 1)
	const churn = 5 * slabSize
	for ts := interval.Timestamp(2); ts <= churn+1; ts++ {
		s.Update(id, int(ts), ts)
	}
	if got := s.DeadCount(); got != churn {
		t.Fatalf("DeadCount = %d, want %d", got, churn)
	}
	var buf []Reclaimed
	total := 0
	for h := interval.Timestamp(100); ; h += 97 {
		buf = s.Vacuum(h, buf[:0])
		for _, r := range buf {
			if r.Ver.Deleted > h {
				t.Fatalf("reclaimed version dead at %d above horizon %d", r.Ver.Deleted, h)
			}
		}
		total += len(buf)
		if h > churn+2 {
			break
		}
	}
	if total != churn || s.DeadCount() != 0 || s.VersionCount() != 1 {
		t.Fatalf("reclaimed %d (want %d), DeadCount=%d, VersionCount=%d",
			total, churn, s.DeadCount(), s.VersionCount())
	}
	// The recycled slabs serve new churn without growing the queue.
	for ts := interval.Timestamp(churn + 2); ts < churn+2+slabSize; ts++ {
		s.Update(id, int(ts), ts)
	}
	buf = s.Vacuum(1<<40, buf[:0])
	if len(buf) != slabSize || s.VersionCount() != 1 {
		t.Fatalf("second churn reclaimed %d, VersionCount=%d", len(buf), s.VersionCount())
	}
}

// TestVacuumPinnedExact holds a pass to §5.1's rule exactly: after
// VacuumPinned(last, pins) a version survives iff it died after last or a
// pin can see it — a version between two pins goes, whatever the oldest pin
// is — and the store's own accounts agree with a recount.
func TestVacuumPinnedExact(t *testing.T) {
	// One row: a version [created, deleted) and its successor.
	type oneVersion struct {
		name             string
		created, deleted interval.Timestamp
		pins             []interval.Timestamp
		last             interval.Timestamp
	}
	twoVersions := func(tc oneVersion) (*Store, RowID) {
		s := NewStore()
		id := s.Insert("old", tc.created)
		s.Update(id, "new", tc.deleted)
		return s, id
	}

	t.Run("ValidFlow", func(t *testing.T) {
		for _, tc := range []oneVersion{
			{"NoPin", 10, 20, nil, 20},
			{"PinBeforeCreation", 10, 20, []interval.Timestamp{9}, 30},
			{"PinAtDeath", 10, 20, []interval.Timestamp{20}, 30},
			{"BetweenTwoPins", 10, 20, []interval.Timestamp{9, 20}, 30},
		} {
			t.Run(tc.name, func(t *testing.T) {
				s, id := twoVersions(tc)
				if !s.Reclaimable(tc.last, tc.pins) {
					t.Fatal("Reclaimable = false for a version no pin sees")
				}
				buf := s.VacuumPinned(tc.last, tc.pins, nil)
				if len(buf) != 1 || buf[0].ID != id || buf[0].Ver.Data != "old" || buf[0].Ver.Interval() != (interval.Interval{Lo: tc.created, Hi: tc.deleted}) {
					t.Fatalf("reclaimed %v, want the old version", buf)
				}
				if c := s.Chain(id); len(c) != 1 || c[0].Data != "new" || s.slot(id).spill != nil {
					t.Fatalf("chain after the pass: %v", c)
				}
			})
		}

		// A row updated at 10, 20 and 30 with pins at 5 and 25: the middle
		// version [10,20) goes, the chain keeps a gap, and the version each
		// pin reads stays.
		t.Run("MiddleVersionBetweenTwoPins", func(t *testing.T) {
			s := NewStore()
			id := s.Insert("a", 1)
			for i, d := range []any{"b", "c", "d"} {
				s.Update(id, d, interval.Timestamp(10*(i+1)))
			}
			buf := s.VacuumPinned(40, []interval.Timestamp{5, 25}, nil)
			if len(buf) != 1 || buf[0].Ver.Data != "b" {
				t.Fatalf("reclaimed %v, want only [10,20)", buf)
			}
			for ts, want := range map[interval.Timestamp]any{5: "a", 25: "c", 40: "d"} {
				if v, ok := s.VisibleAt(id, ts); !ok || v.Data != want {
					t.Fatalf("at %d: %v, %v; want %v", ts, v.Data, ok, want)
				}
			}
			if _, ok := s.VisibleAt(id, 15); ok {
				t.Fatal("the reclaimed version is still read at 15")
			}
			// The pin at 5 goes: [1,10) goes with it.
			if buf = s.VacuumPinned(40, []interval.Timestamp{25}, buf[:0]); len(buf) != 1 || buf[0].Ver.Data != "a" {
				t.Fatalf("reclaimed %v after unpinning 5, want [1,10)", buf)
			}
			recount(t, s)
		})

		// A standalone store may record deaths out of order: each is still
		// reclaimed at the first pass its rule allows, not held behind a
		// younger death queued before it.
		t.Run("OutOfOrderDeaths", func(t *testing.T) {
			s := NewStore()
			a := s.Insert("a", 1)
			b := s.Insert("b", 1)
			s.Delete(a, 50) // recorded first, dies later
			s.Delete(b, 10)
			buf := s.Vacuum(20, nil)
			if len(buf) != 1 || buf[0].ID != b {
				t.Fatalf("Vacuum(20) reclaimed %v, want b alone", buf)
			}
			if _, ok := s.VisibleAt(a, 40); !ok {
				t.Fatal("a, dead at 50, did not survive Vacuum(20)")
			}
			if buf = s.Vacuum(60, buf[:0]); len(buf) != 1 || buf[0].ID != a || s.Len() != 0 {
				t.Fatalf("Vacuum(60) reclaimed %v, Len=%d", buf, s.Len())
			}
		})

		t.Run("SeededHistories", func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				runPinnedHistory(t, seed, 4000)
			}
		})
	})

	// What a pass must keep — and must learn it keeps from a read, so the
	// engine takes no exclusive lock and the pass allocates nothing.
	t.Run("RejectionFlow", func(t *testing.T) {
		for _, tc := range []oneVersion{
			{"PinAtCreation", 10, 20, []interval.Timestamp{10}, 30},
			{"PinJustBeforeDeath", 10, 20, []interval.Timestamp{19}, 30},
			{"OnePinOfSeveral", 10, 20, []interval.Timestamp{3, 15, 25}, 30},
			{"DiedAfterLast", 10, 20, nil, 19},
		} {
			t.Run(tc.name, func(t *testing.T) {
				s, id := twoVersions(tc)
				wantNothing(t, s, tc.last, tc.pins)
				if c := s.Chain(id); len(c) != 2 || c[0].Data != "old" {
					t.Fatalf("chain after the pass: %v", c)
				}
			})
		}

		// Three slabs of deaths, every one seen by the pin at 5: the slabs
		// are skipped on their bounds.
		t.Run("SlabsHeldByOnePin", func(t *testing.T) {
			s := NewStore()
			for i := 0; i < 3*slabSize; i++ {
				s.Update(s.Insert(i, 1), -i, interval.Timestamp(10+i))
			}
			wantNothing(t, s, 10+3*slabSize, []interval.Timestamp{5})
			if s.DeadCount() != 3*slabSize {
				t.Fatalf("DeadCount = %d, want %d", s.DeadCount(), 3*slabSize)
			}
		})
	})
}

// wantNothing checks that a pass at (last, pins) is a read: Reclaimable says
// so, and the pass reclaims nothing and allocates nothing.
func wantNothing(t *testing.T, s *Store, last interval.Timestamp, pins []interval.Timestamp) {
	t.Helper()
	if s.Reclaimable(last, pins) {
		t.Fatal("Reclaimable = true, but every version is held")
	}
	n := s.VersionCount()
	buf := make([]Reclaimed, 0, 1)
	if allocs := testing.AllocsPerRun(10, func() { buf = s.VacuumPinned(last, pins, buf[:0]) }); allocs != 0 || len(buf) != 0 {
		t.Fatalf("a pass that may reclaim nothing reclaimed %v with %.0f allocations", buf, allocs)
	}
	if s.VersionCount() != n {
		t.Fatalf("VersionCount %d, was %d", s.VersionCount(), n)
	}
}

// recount checks the store's kept accounts against a walk: Len and
// VersionCount against a scan, Bytes against the directory, DeadCount
// against the bounded versions still in chains, and the inline/spill
// invariant — a spilled chain holds two versions or more, in creation
// order, and leaves the inline version empty.
func recount(t *testing.T, s *Store) {
	t.Helper()
	rows, vers, dead := 0, 0, 0
	s.Scan(func(id RowID, chain []Version) bool {
		rows++
		vers += len(chain)
		for i, v := range chain {
			if v.Deleted != interval.Infinity {
				dead++
			}
			if i > 0 && chain[i-1].Deleted > v.Created {
				t.Fatalf("row %d: chain out of order: %v", id, chain)
			}
		}
		if sl := s.slot(id); len(chain) == 0 || sl.spill != nil && (len(*sl.spill) < 2 || sl.one[0] != Version{}) {
			t.Fatalf("row %d: slot %+v breaks the inline/spill invariant", id, sl)
		}
		return true
	})
	if s.Len() != rows || s.VersionCount() != vers || s.DeadCount() != dead || s.Bytes() != bytesByWalk(s) {
		t.Fatalf("Len %d VersionCount %d DeadCount %d Bytes %d; a recount finds %d, %d, %d, %d",
			s.Len(), s.VersionCount(), s.DeadCount(), s.Bytes(), rows, vers, dead, bytesByWalk(s))
	}
}

// runPinnedHistory drives a store with one seeded history of inserts,
// updates (half of them to a hot handful of rows, for long chains) and
// deletes, pins placed at the latest commit and dropped at random, and
// passes at a last commit that never moves back. After every pass the
// store must hold exactly the versions that died after last or that a pin
// sees. (A pin placed after a pass is at or above its last, so a version
// reclaimed then is none that any later pin sees: the rule can be checked
// against the whole history.)
func runPinnedHistory(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	s := NewStore()
	hist := map[RowID][]Version{} // every version ever created, with its final death
	var live []RowID
	var pins []interval.Timestamp // ascending
	ts, last := interval.Timestamp(1), interval.Timestamp(1)
	var buf []Reclaimed
	bound := func(id RowID) []Version {
		h := hist[id]
		h[len(h)-1].Deleted = ts
		return h
	}
	for op := 0; op < ops; op++ {
		ts++
		switch k := rng.Intn(100); {
		case k < 20 || len(live) == 0:
			id := s.Insert(op, ts)
			hist[id] = []Version{{Created: ts, Deleted: interval.Infinity, Data: op}}
			live = append(live, id)
		case k < 65:
			id := live[rng.Intn(len(live))]
			if rng.Intn(2) == 0 {
				id = live[rng.Intn(min(len(live), 6))]
			}
			s.Update(id, op, ts)
			hist[id] = append(bound(id), Version{Created: ts, Deleted: interval.Infinity, Data: op})
		case k < 75:
			i := rng.Intn(len(live))
			s.Delete(live[i], ts)
			hist[live[i]] = bound(live[i])
			live = slices.Delete(live, i, i+1)
		case k < 83:
			pins = append(pins, ts)
		case k < 90:
			if len(pins) > 0 {
				i := rng.Intn(len(pins))
				pins = slices.Delete(pins, i, i+1)
			}
		default:
			last = max(last, ts-interval.Timestamp(rng.Intn(12)))
			below := pins[:pinsBelow(pins, last)]
			keep := func(v Version) bool {
				return v.Deleted > last || slices.ContainsFunc(below, v.VisibleAt)
			}
			lose := func(v Version) bool { return !keep(v) }
			before, wantAny := s.VersionCount(), false
			s.Scan(func(_ RowID, chain []Version) bool {
				wantAny = wantAny || slices.ContainsFunc(chain, lose)
				return true
			})
			if got := s.Reclaimable(last, below); got != wantAny {
				t.Fatalf("seed %d op %d: Reclaimable(%d, %v) = %v, want %v", seed, op, last, below, got, wantAny)
			}
			buf = s.VacuumPinned(last, below, buf[:0])
			for _, r := range buf {
				if keep(r.Ver) || !slices.Contains(hist[r.ID], r.Ver) {
					t.Fatalf("seed %d op %d: reclaimed %+v of row %d at (%d, %v)", seed, op, r.Ver, r.ID, last, below)
				}
			}
			for id, h := range hist {
				want := slices.DeleteFunc(slices.Clone(h), lose)
				if got := s.Chain(id); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: row %d keeps %v at (%d, %v), want %v", seed, op, id, got, last, below, want)
				}
			}
			if len(buf) != before-s.VersionCount() || s.Reclaimable(last, below) {
				t.Fatalf("seed %d op %d: %d reclaimed, VersionCount %d -> %d, and a second pass would reclaim more", seed, op, len(buf), before, s.VersionCount())
			}
			recount(t, s)
		}
	}
}

// Property: at every timestamp, at most one version of a row is visible, and
// the visible data matches a sequential-history oracle.
func TestVisibilityOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewStore()
	type event struct {
		ts   interval.Timestamp
		data any // nil means deleted
	}
	hist := map[RowID][]event{}
	var ids []RowID
	ts := interval.Timestamp(1)
	for op := 0; op < 3000; op++ {
		ts++
		switch {
		case len(ids) == 0 || rng.Intn(4) == 0:
			id := s.Insert(op, ts)
			ids = append(ids, id)
			hist[id] = []event{{ts, op}}
		default:
			id := ids[rng.Intn(len(ids))]
			ev := hist[id]
			if ev[len(ev)-1].data == nil {
				continue // already deleted
			}
			if rng.Intn(5) == 0 {
				s.Delete(id, ts)
				hist[id] = append(ev, event{ts, nil})
			} else {
				s.Update(id, op, ts)
				hist[id] = append(ev, event{ts, op})
			}
		}
	}
	for id, evs := range hist {
		for probe := interval.Timestamp(0); probe < ts+5; probe += 7 {
			var want any
			for _, e := range evs {
				if e.ts <= probe {
					want = e.data
				}
			}
			v, ok := s.VisibleAt(id, probe)
			if want == nil {
				if ok {
					t.Fatalf("row %d at %d: visible %v, want invisible", id, probe, v.Data)
				}
			} else if !ok || v.Data != want {
				t.Fatalf("row %d at %d: got %v,%v want %v", id, probe, v.Data, ok, want)
			}
		}
	}
}

// Property: vacuum at any horizon preserves visibility for all ts >= horizon.
func TestVacuumPreservesVisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewStore()
	var ids []RowID
	ts := interval.Timestamp(1)
	for op := 0; op < 500; op++ {
		ts++
		if len(ids) == 0 || rng.Intn(3) == 0 {
			ids = append(ids, s.Insert(op, ts))
		} else {
			id := ids[rng.Intn(len(ids))]
			if last, _ := s.Latest(id); last.Deleted == interval.Infinity {
				s.Update(id, op, ts)
			}
		}
	}
	type obs struct {
		data any
		ok   bool
	}
	horizon := ts / 2
	before := map[RowID]map[interval.Timestamp]obs{}
	for _, id := range ids {
		before[id] = map[interval.Timestamp]obs{}
		for probe := horizon; probe <= ts; probe += 3 {
			v, ok := s.VisibleAt(id, probe)
			before[id][probe] = obs{v.Data, ok}
		}
	}
	s.Vacuum(horizon, nil)
	for _, id := range ids {
		for probe, want := range before[id] {
			v, ok := s.VisibleAt(id, probe)
			if ok != want.ok || (ok && v.Data != want.data) {
				t.Fatalf("row %d at %d changed after vacuum: got %v,%v want %v,%v",
					id, probe, v.Data, ok, want.data, want.ok)
			}
		}
	}
}

// TestVersionCountMatchesScan: VersionCount is kept, not computed; after a
// random insert/update/delete/restore/vacuum history it must equal what a
// scan of every chain counts, at every step where it is read.
func TestVersionCountMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewStore()
	var live []RowID
	scan := func() int {
		n := 0
		s.Scan(func(_ RowID, chain []Version) bool { n += len(chain); return true })
		return n
	}
	ts := interval.Timestamp(1)
	for op := 0; op < 20000; op++ {
		ts++
		switch k := rng.Intn(10); {
		case k < 3 || len(live) == 0:
			live = append(live, s.Insert(op, ts))
		case k < 7:
			s.Update(live[rng.Intn(len(live))], op, ts)
		case k < 8:
			i := rng.Intn(len(live))
			s.Delete(live[i], ts)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case k < 9:
			id := s.NextID() + RowID(rng.Intn(3))
			if !s.RestoreInsert(id, op, ts) {
				t.Fatalf("RestoreInsert(%d) refused a fresh id", id)
			}
			if s.RestoreInsert(id, op, ts) {
				t.Fatalf("RestoreInsert(%d) accepted a duplicate", id)
			}
			live = append(live, id)
		default:
			s.Vacuum(ts-interval.Timestamp(rng.Intn(200)), nil)
		}
		if op%97 == 0 || op == 19999 {
			if got, want := s.VersionCount(), scan(); got != want {
				t.Fatalf("op %d: VersionCount = %d, a scan counts %d", op, got, want)
			}
		}
	}
	s.Vacuum(ts, nil)
	if got, want := s.VersionCount(), scan(); got != want || got != len(live) {
		t.Fatalf("after a full vacuum: VersionCount = %d, scan %d, live rows %d", got, want, len(live))
	}
}
