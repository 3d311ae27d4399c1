package mvcc

import (
	"math/rand"
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
	if !s.ReclaimableBelow(20) || s.ReclaimableBelow(19) {
		t.Fatal("ReclaimableBelow must track the oldest death (20)")
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

// TestVacuumOutOfOrderDeaths covers standalone (non-engine) stores where
// death timestamps are not recorded monotonically: reclamation may be
// delayed behind a blocking younger death, but never reclaims above the
// horizon and catches up once the horizon passes.
func TestVacuumOutOfOrderDeaths(t *testing.T) {
	s := NewStore()
	a := s.Insert("a", 1)
	b := s.Insert("b", 1)
	s.Delete(a, 50) // recorded first, dies later
	s.Delete(b, 10)

	var buf []Reclaimed
	if buf = s.Vacuum(20, buf[:0]); len(buf) != 0 {
		t.Fatalf("blocked entry must delay reclamation, got %v", buf)
	}
	if _, ok := s.VisibleAt(b, 5); !ok {
		t.Fatal("b must survive the blocked pass")
	}
	buf = s.Vacuum(60, buf[:0])
	if len(buf) != 2 || s.Len() != 0 {
		t.Fatalf("catch-up pass reclaimed %v, Len=%d", buf, s.Len())
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
