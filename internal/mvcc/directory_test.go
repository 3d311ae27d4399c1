package mvcc

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"txcache/internal/interval"
)

// mapStore is the store as it was before the row directory: a map from RowID
// to a separately allocated chain. It stays here as the oracle the paged
// store is driven against; the dead queue is the package's own, unchanged.
type mapStore struct {
	nextID RowID
	rows   map[RowID][]Version
	nVers  int
	dead   deadQueue
}

func newMapStore() *mapStore { return &mapStore{nextID: 1, rows: map[RowID][]Version{}} }

func (s *mapStore) Insert(data any, ts interval.Timestamp) RowID {
	id := s.nextID
	s.nextID++
	s.rows[id] = []Version{{Created: ts, Deleted: interval.Infinity, Data: data}}
	s.nVers++
	return id
}

func (s *mapStore) bound(id RowID, ts interval.Timestamp) {
	chain := s.rows[id]
	last := &chain[len(chain)-1]
	last.Deleted = ts
	s.dead.push(deadEntry{id: id, created: last.Created, deleted: ts})
}

func (s *mapStore) Update(id RowID, data any, ts interval.Timestamp) {
	s.bound(id, ts)
	s.rows[id] = append(s.rows[id], Version{Created: ts, Deleted: interval.Infinity, Data: data})
	s.nVers++
}

func (s *mapStore) Delete(id RowID, ts interval.Timestamp) { s.bound(id, ts) }

func (s *mapStore) RestoreInsert(id RowID, data any, ts interval.Timestamp) bool {
	if _, dup := s.rows[id]; dup {
		return false
	}
	s.rows[id] = []Version{{Created: ts, Deleted: interval.Infinity, Data: data}}
	s.nVers++
	if id >= s.nextID {
		s.nextID = id + 1
	}
	return true
}

func (s *mapStore) EnsureNextID(next RowID) {
	if next > s.nextID {
		s.nextID = next
	}
}

func (s *mapStore) Latest(id RowID) (Version, bool) {
	chain := s.rows[id]
	if len(chain) == 0 {
		return Version{}, false
	}
	return chain[len(chain)-1], true
}

func (s *mapStore) VisibleAt(id RowID, ts interval.Timestamp) (Version, bool) {
	chain := s.rows[id]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].VisibleAt(ts) {
			return chain[i], true
		}
	}
	return Version{}, false
}

func (s *mapStore) Vacuum(horizon interval.Timestamp, buf []Reclaimed) []Reclaimed {
	n0 := len(buf)
	buf = s.dead.reclaim(horizon, nil, buf)
	for j, r := range buf[n0:] {
		chain := s.rows[r.ID]
		for i := range chain {
			if chain[i].Created == r.Ver.Created && chain[i].Deleted == r.Ver.Deleted {
				buf[n0+j].Ver = chain[i]
				chain = slices.Delete(chain, i, i+1)
				s.nVers--
				if len(chain) == 0 {
					delete(s.rows, r.ID)
				} else {
					s.rows[r.ID] = chain
				}
				break
			}
		}
	}
	return buf
}

// heapAlloc returns the live heap after two collections.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBytesPerRow is the ratchet on what a row costs the store, payload
// aside: live heap per row with one version, with two, and after a vacuum
// back to one — which must give the second version's memory back. The map
// and its per-row chain measured 107, 182 and 139 B here (the two-version
// figures include the dead queue's entry for the bounded version).
func TestBytesPerRow(t *testing.T) {
	const n = 35_000
	before := heapAlloc()
	s := NewStore()
	for i := 0; i < n; i++ {
		s.Insert(nil, 1)
	}
	per := func() float64 { return float64(heapAlloc()-before) / n }
	one := per()
	for id := RowID(1); id <= n; id++ {
		s.Update(id, nil, 2)
	}
	two := per()
	if got := len(s.Vacuum(2, nil)); got != n {
		t.Fatalf("vacuum reclaimed %d versions, want %d", got, n)
	}
	s.dead = deadQueue{} // its recycled slabs are not a row's cost
	back := per()
	t.Logf("one version %.1f B/row, two versions %.1f, vacuumed back to one %.1f (Bytes() says %.1f)",
		one, two, back, float64(s.Bytes())/n)
	if one > 48 {
		t.Errorf("one version: %.1f B/row, ceiling 48", one)
	}
	if two > 176 {
		t.Errorf("two versions: %.1f B/row, ceiling 176", two)
	}
	if back > one+0.5 {
		t.Errorf("vacuumed back to one version: %.1f B/row, was %.1f before the updates", back, one)
	}
	if s.Len() != n || s.VersionCount() != n {
		t.Fatalf("Len = %d, VersionCount = %d, want %d", s.Len(), s.VersionCount(), n)
	}
}

// checkModel compares everything a caller can read off the two stores.
func checkModel(t *testing.T, s *Store, ref *mapStore, probe interval.Timestamp) {
	t.Helper()
	if s.Len() != len(ref.rows) || s.VersionCount() != ref.nVers || s.DeadCount() != ref.dead.pending() || s.NextID() != ref.nextID {
		t.Fatalf("Len %d VersionCount %d DeadCount %d NextID %d, the map store has %d %d %d %d",
			s.Len(), s.VersionCount(), s.DeadCount(), s.NextID(), len(ref.rows), ref.nVers, ref.dead.pending(), ref.nextID)
	}
	prev, seen := RowID(0), 0
	s.Scan(func(id RowID, chain []Version) bool {
		if seen > 0 && id <= prev {
			t.Fatalf("Scan visited row %d after row %d", id, prev)
		}
		if !slices.Equal(chain, ref.rows[id]) {
			t.Fatalf("Scan: row %d has chain %v, the map store %v", id, chain, ref.rows[id])
		}
		prev, seen = id, seen+1
		return true
	})
	if seen != len(ref.rows) {
		t.Fatalf("Scan visited %d rows, the map store has %d", seen, len(ref.rows))
	}
	for id, want := range ref.rows {
		if got := s.Chain(id); !slices.Equal(got, want) {
			t.Fatalf("Chain(%d) = %v, the map store has %v", id, got, want)
		}
		for _, ts := range []interval.Timestamp{probe, want[0].Created, want[len(want)-1].Created - 1} {
			gv, gok := s.VisibleAt(id, ts)
			wv, wok := ref.VisibleAt(id, ts)
			if gv != wv || gok != wok {
				t.Fatalf("VisibleAt(%d, %d) = %v, %v; the map store says %v, %v", id, ts, gv, gok, wv, wok)
			}
		}
	}
}

// runModel drives both stores with one seeded history and compares them as
// it goes. Ids come from the store, from just past its allocator, and from
// far away, so pages fill, empty, drop and the directory grows and loses
// levels.
func runModel(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	s, ref := NewStore(), newMapStore()
	var live []RowID // rows whose latest version is unbounded
	ts := interval.Timestamp(1)
	pick := func() (int, RowID) { i := rng.Intn(len(live)); return i, live[i] }
	drop := func(i int) { live[i] = live[len(live)-1]; live = live[:len(live)-1] }
	for op := 0; op < ops; op++ {
		ts++
		switch k := rng.Intn(100); {
		case k < 30 || len(live) == 0:
			id := s.Insert(op, ts)
			if want := ref.Insert(op, ts); id != want {
				t.Fatalf("op %d: Insert = %d, the map store %d", op, id, want)
			}
			live = append(live, id)
		case k < 60:
			_, id := pick()
			s.Update(id, op, ts)
			ref.Update(id, op, ts)
		case k < 75:
			i, id := pick()
			s.Delete(id, ts)
			ref.Delete(id, ts)
			drop(i)
		case k < 85:
			var id RowID
			switch rng.Intn(4) {
			case 0: // far beyond anything the store handed out
				id = RowID(rng.Uint64() >> uint(rng.Intn(40)))
			case 1: // maybe a row that exists: both must refuse it
				id = RowID(rng.Int63n(int64(min(s.NextID(), 1<<40)))) + 1
			default:
				id = s.NextID() + RowID(rng.Intn(3*pageSize))
			}
			got, want := s.RestoreInsert(id, op, ts), ref.RestoreInsert(id, op, ts)
			if got != want {
				t.Fatalf("op %d: RestoreInsert(%d) = %v, the map store %v", op, id, got, want)
			}
			if got {
				live = append(live, id)
			}
		case k < 88:
			next := s.NextID() + RowID(rng.Intn(2*pageSize))
			s.EnsureNextID(next)
			ref.EnsureNextID(next)
		default:
			h := ts - interval.Timestamp(rng.Intn(300))
			got, want := s.Vacuum(h, nil), ref.Vacuum(h, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: Vacuum(%d) reclaimed %v, the map store %v", op, h, got, want)
			}
		}
		if op%257 == 0 || op == ops-1 {
			checkModel(t, s, ref, ts-interval.Timestamp(rng.Intn(50)))
		}
	}
	// Everything dies and is reclaimed: the directory must be gone with it.
	for _, id := range live {
		ts++
		s.Delete(id, ts)
		ref.Delete(id, ts)
	}
	if got, want := s.Vacuum(ts, nil), ref.Vacuum(ts, nil); !slices.Equal(got, want) {
		t.Fatalf("final Vacuum reclaimed %d versions, the map store %d", len(got), len(want))
	}
	checkModel(t, s, ref, ts)
	if s.Len() != 0 || s.Bytes() != 0 || s.root != nil {
		t.Fatalf("emptied store: Len %d, Bytes %d, root %v", s.Len(), s.Bytes(), s.root)
	}
}

// bytesByWalk recomputes Bytes from the directory itself.
func bytesByWalk(s *Store) int {
	total := 0
	var walk func(n *dirNode, level int)
	walk = func(n *dirNode, level int) {
		total += nodeBytes
		for i := 0; i < fanout; i++ {
			if level > 1 && n.kids[i] != nil {
				walk(n.kids[i], level-1)
			} else if level == 1 && n.pages[i] != nil {
				total += pageBytes
				for j := range n.pages[i].slots {
					if sp := n.pages[i].slots[j].spill; sp != nil {
						total += spillBytes + versionBytes*cap(*sp)
					}
				}
			}
		}
	}
	if s.root != nil {
		walk(s.root, s.height)
	}
	return total
}

func TestRowDirectory(t *testing.T) {
	t.Run("ValidFlow", func(t *testing.T) {
		t.Run("MatchesTheMapStore", func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				runModel(t, seed, 20_000)
			}
		})

		t.Run("SpillsAndUnspills", func(t *testing.T) {
			s := NewStore()
			id := s.Insert("a", 1)
			inline := s.Bytes()
			if c := s.Chain(id); len(c) != 1 || &c[0] != &s.slot(id).one[0] {
				t.Fatalf("a row's only version is not the slot's own: %v", c)
			}
			s.Update(id, "b", 2)
			s.Update(id, "c", 3)
			if s.slot(id).spill == nil || s.Bytes() <= inline || s.slot(id).one[0] != (Version{}) {
				t.Fatalf("three versions: slot %+v, Bytes %d (inline %d)", s.slot(id), s.Bytes(), inline)
			}
			s.Vacuum(3, nil)
			if sl := s.slot(id); sl.spill != nil || sl.one[0].Data != "c" || s.Bytes() != inline {
				t.Fatalf("vacuumed back to one version: slot %+v, Bytes %d (inline %d)", sl, s.Bytes(), inline)
			}
		})

		// Insert 100,000 rows, delete and vacuum all but every 1,000th: what
		// is left is the survivors' pages, a page each.
		t.Run("ChurnReleasesPages", func(t *testing.T) {
			const n, keep = 100_000, 1000
			before := heapAlloc()
			s := NewStore()
			for i := 0; i < n; i++ {
				s.Insert(nil, 1)
			}
			full := heapAlloc() - before
			var buf []Reclaimed
			for id := RowID(1); id <= n; id++ {
				if id%keep != 0 {
					s.Delete(id, 2)
				}
				if id%keep == 0 { // as the vacuum ticker would, not once at the end
					buf = s.Vacuum(2, buf[:0])
				}
			}
			after := heapAlloc() - before
			survivors := n / keep
			t.Logf("heap %d B full, %d B after churn (%d survivors, a %d B page each); Bytes() %d",
				full, after, survivors, pageBytes, s.Bytes())
			if s.Len() != survivors || s.VersionCount() != survivors {
				t.Fatalf("Len = %d, VersionCount = %d, want %d", s.Len(), s.VersionCount(), survivors)
			}
			if limit := uint64(2 * survivors * pageBytes); after > limit {
				t.Errorf("heap after churn %d B, want within 2x of the survivors' pages (%d B)", after, limit)
			}
			if got := bytesByWalk(s); s.Bytes() != got || got > 2*survivors*pageBytes {
				t.Errorf("Bytes() = %d, a walk finds %d", s.Bytes(), got)
			}
			runtime.KeepAlive(s)
		})

		t.Run("RestoresDescendingIDs", func(t *testing.T) {
			const n = 5000
			s := NewStore()
			s.EnsureNextID(n + 1)
			for id := RowID(n); id >= 1; id-- {
				if !s.RestoreInsert(id, int(id), interval.Timestamp(id)) {
					t.Fatalf("RestoreInsert(%d) refused", id)
				}
			}
			want := RowID(1)
			s.Scan(func(id RowID, chain []Version) bool {
				if id != want || len(chain) != 1 || chain[0].Data != int(id) || chain[0].Created != interval.Timestamp(id) {
					t.Fatalf("Scan: row %d with %v, want row %d", id, chain, want)
				}
				want++
				return true
			})
			if want != n+1 || s.Len() != n || s.NextID() != n+1 {
				t.Fatalf("restored %d rows, Len %d, NextID %d", want-1, s.Len(), s.NextID())
			}
		})

		t.Run("ScanFromResumes", func(t *testing.T) {
			s := NewStore()
			var ids []RowID
			for i := 0; i < 3*pageSize; i++ {
				ids = append(ids, s.Insert(i, 1))
			}
			for _, id := range []RowID{1 << 20, 1<<20 + 1, 1 << 41} {
				s.RestoreInsert(id, 0, 1)
				ids = append(ids, id)
			}
			for _, from := range []RowID{0, 1, 2, pageSize - 1, pageSize, pageSize + 1, 3 * pageSize, 3*pageSize + 1, 1 << 20, 1<<20 + 1, 1<<20 + 2, 1 << 41, 1<<41 + 1, 1 << 63} {
				var got []RowID
				s.ScanFrom(from, func(id RowID, _ []Version) bool { got = append(got, id); return true })
				i, _ := slices.BinarySearch(ids, from)
				if !slices.Equal(got, ids[i:]) {
					t.Fatalf("ScanFrom(%d) visited %d rows starting %v, want the %d from %d on", from, len(got), got[:min(3, len(got))], len(ids)-i, from)
				}
			}
			// A stopped scan stops.
			n := 0
			s.Scan(func(RowID, []Version) bool { n++; return n < 300 })
			if n != 300 {
				t.Fatalf("a scan told to stop at 300 rows visited %d", n)
			}
		})
	})

	t.Run("RejectionFlow", func(t *testing.T) {
		// An id a snapshot or a log record names costs a page and a path to
		// it, whatever its value.
		t.Run("HostileIDCostsOnePage", func(t *testing.T) {
			for _, id := range []RowID{1 << 60, 1<<64 - 2} {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				s := NewStore()
				ok := s.RestoreInsert(id, "far", 5)
				runtime.ReadMemStats(&m1)
				if !ok {
					t.Fatalf("RestoreInsert(%d) refused on an empty store", id)
				}
				if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 || s.Bytes() >= 1<<20 {
					t.Fatalf("RestoreInsert(%d) allocated %d B (Bytes() %d), want under 1 MiB", id, got, s.Bytes())
				}
				if v, ok := s.VisibleAt(id, 5); !ok || v.Data != "far" || s.NextID() != id+1 || s.Len() != 1 {
					t.Fatalf("row %d: %v, %v; NextID %d, Len %d", id, v, ok, s.NextID(), s.Len())
				}
				if _, ok := s.Latest(id - 1); ok {
					t.Fatalf("row %d exists", id-1)
				}
				if s.RestoreInsert(id, "again", 6) {
					t.Fatalf("RestoreInsert(%d) accepted a duplicate", id)
				}
				// The store keeps working at both ends of the id space.
				low := RowID(7)
				if !s.RestoreInsert(low, "near", 6) || s.Len() != 2 {
					t.Fatalf("RestoreInsert(%d) beside row %d refused", low, id)
				}
				s.Delete(id, 7)
				s.Vacuum(7, nil)
				if _, ok := s.Latest(id); ok || s.Len() != 1 || s.Bytes() != bytesByWalk(s) {
					t.Fatalf("row %d survived its vacuum: Len %d", id, s.Len())
				}
			}
		})

		t.Run("DuplicateIDIsRefused", func(t *testing.T) {
			s := NewStore()
			id := s.Insert("a", 1)
			if s.RestoreInsert(id, "b", 2) {
				t.Fatal("RestoreInsert over a live row accepted")
			}
			s.Update(id, "c", 3)
			if s.RestoreInsert(id, "d", 4) {
				t.Fatal("RestoreInsert over a spilled row accepted")
			}
			s.Delete(id, 5)
			if s.RestoreInsert(id, "e", 6) {
				t.Fatal("RestoreInsert over a deleted, unvacuumed row accepted")
			}
			if c := s.Chain(id); len(c) != 2 || c[1].Data != "c" {
				t.Fatalf("a refused RestoreInsert changed the chain: %v", c)
			}
		})

		t.Run("WritesToMissingRowsPanic", func(t *testing.T) {
			for name, fn := range map[string]func(s *Store){
				"update of a row never inserted":   func(s *Store) { s.Update(99, "x", 9) },
				"delete of a row never inserted":   func(s *Store) { s.Delete(1<<50, 9) },
				"update of a vacuumed row":         func(s *Store) { s.Update(1, "x", 9) },
				"delete of a deleted row":          func(s *Store) { s.Delete(2, 9) },
				"update in a page with other rows": func(s *Store) { s.Update(5, "x", 9) },
			} {
				s := NewStore()
				gone, dead, _ := s.Insert("a", 1), s.Insert("b", 1), s.Insert("c", 1)
				s.Delete(gone, 2)
				s.Vacuum(2, nil)
				s.Delete(dead, 3)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s did not panic", name)
						}
					}()
					fn(s)
				}()
			}
		})
	})

	// Reads may run alongside each other (the package doc): under -race this
	// is the check that no read path writes.
	t.Run("ConcurrentReadersFlow", func(t *testing.T) {
		s := NewStore()
		const n = 4 * pageSize
		for i := 0; i < n; i++ {
			id := s.Insert(i, 1)
			if i%3 == 0 {
				s.Update(id, -i, 2)
			}
		}
		s.RestoreInsert(1<<33, "far", 1)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					id := RowID(1 + (i*7+g)%n)
					v, ok := s.VisibleAt(id, 2)
					c := s.Chain(id)
					l, _ := s.Latest(id)
					if !ok || v != c[len(c)-1] || l != v {
						t.Errorf("row %d: VisibleAt %v %v, Chain %v, Latest %v", id, v, ok, c, l)
						return
					}
				}
				rows := 0
				s.Scan(func(RowID, []Version) bool { rows++; return true })
				if rows != n+1 || s.Len() != rows || s.Bytes() == 0 || s.Reclaimable(1, nil) {
					t.Errorf("Scan visited %d rows, Len %d", rows, s.Len())
				}
			}(g)
		}
		wg.Wait()
	})

	// One table: a short history, and what the directory holds after it.
	t.Run("Table", func(t *testing.T) {
		const far = RowID(1) << 40
		for _, tc := range []struct {
			name                      string
			run                       func(s *Store)
			rows, versions            int
			pages, nodes, spilledVers int
		}{
			{"Empty", func(s *Store) {}, 0, 0, 0, 0, 0},
			{"OneRow", func(s *Store) { s.Insert(1, 1) }, 1, 1, 1, 1, 0},
			{"APageAndOneMore", func(s *Store) {
				for i := 0; i < pageSize; i++ { // ids 1..256: id 256 opens the second page
					s.Insert(i, 1)
				}
			}, pageSize, pageSize, 2, 1, 0},
			{"Updated", func(s *Store) { s.Update(s.Insert(1, 1), 2, 2) }, 1, 2, 1, 1, 2},
			{"UpdatedTwice", func(s *Store) { id := s.Insert(1, 1); s.Update(id, 2, 2); s.Update(id, 3, 3) }, 1, 3, 1, 1, 4},
			{"UpdatedAndVacuumed", func(s *Store) { s.Update(s.Insert(1, 1), 2, 2); s.Vacuum(2, nil) }, 1, 1, 1, 1, 0},
			{"DeletedNotVacuumed", func(s *Store) { s.Delete(s.Insert(1, 1), 2) }, 1, 1, 1, 1, 0},
			{"DeletedAndVacuumed", func(s *Store) { s.Delete(s.Insert(1, 1), 2); s.Vacuum(2, nil) }, 0, 0, 0, 0, 0},
			{"SecondLevel", func(s *Store) { s.RestoreInsert(pageSize*fanout, 1, 1) }, 1, 1, 1, 2, 0},
			{"FarAndNear", func(s *Store) { s.Insert(1, 1); s.RestoreInsert(far, 1, 1) }, 2, 2, 2, 9, 0},
			{"FarVacuumedAway", func(s *Store) {
				s.Insert(1, 1)
				s.RestoreInsert(far, 1, 1)
				s.Delete(far, 2)
				s.Vacuum(2, nil)
			}, 1, 1, 1, 1, 0},
			{"AllocatorJumpsThenInserts", func(s *Store) { s.EnsureNextID(far); s.Insert(1, 1) }, 1, 1, 1, 5, 0},
		} {
			t.Run(tc.name, func(t *testing.T) {
				s := NewStore()
				tc.run(s)
				if s.Len() != tc.rows || s.VersionCount() != tc.versions {
					t.Errorf("Len %d, VersionCount %d, want %d, %d", s.Len(), s.VersionCount(), tc.rows, tc.versions)
				}
				want := tc.pages*pageBytes + tc.nodes*nodeBytes
				if tc.spilledVers > 0 {
					want += spillBytes + tc.spilledVers*versionBytes
				}
				if got := s.Bytes(); got != want || got != bytesByWalk(s) {
					t.Errorf("Bytes() = %d (a walk finds %d), want %d pages, %d nodes and %d spilled versions: %d",
						got, bytesByWalk(s), tc.pages, tc.nodes, tc.spilledVers, want)
				}
			})
		}
	})
}

func BenchmarkStoreInsert(b *testing.B) {
	b.ReportAllocs()
	s := NewStore()
	for i := 0; i < b.N; i++ {
		s.Insert(nil, 1)
	}
}

func BenchmarkStoreVisibleAt(b *testing.B) {
	for _, versions := range []int{1, 4} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			const rows = 20_000
			s := NewStore()
			for i := 0; i < rows; i++ {
				id := s.Insert(nil, 1)
				for v := 2; v <= versions; v++ {
					s.Update(id, nil, interval.Timestamp(v))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			found := 0
			for i := 0; i < b.N; i++ {
				if _, ok := s.VisibleAt(RowID(1+i*7919%rows), interval.Timestamp(1+i%versions)); ok {
					found++
				}
			}
			if found != b.N {
				b.Fatalf("%d of %d reads saw a version", found, b.N)
			}
		})
	}
}
