package cacheserver

import (
	"context"
	"testing"
	"time"

	"txcache/internal/clock"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// An equal-Lo put is the same version offered again. It stores nothing new,
// but when it proves the stored copy valid for longer — the copy was closed
// conservatively, or installed bounded by a transaction that could prove no
// more — the stored bound moves out, by exactly the rules a fresh insert of
// the offer would have been subject to.

func TestEqualLoPutWidens(t *testing.T) {
	tag := ids([]invalidation.Tag{invalidation.KeyTag("accounts", "id", "1")})
	inf := interval.Infinity

	type offer struct {
		hi      interval.Timestamp
		still   bool
		genSnap interval.Timestamp
		tagged  bool
	}
	cases := []struct {
		name  string
		setup func(s *Server) // leaves a version of "k" with Lo 2; horizon ends at 80
		offer offer
		// want is the stored version's validity as a lookup reports it at
		// horizon 80; wantStill whether it is subscribed again.
		want      interval.Interval
		wantStill bool
		immune    bool // ends up with no tags: no message can close it
	}{
		{
			name: "BoundedThenStillValid",
			setup: func(s *Server) {
				s.Put("k", []byte("v"), iv(2, 50), false, 0, nil)
				advanceTo(s, 80)
			},
			offer: offer{hi: inf, still: true, genSnap: 77, tagged: true},
			want:  iv(2, 81), wantStill: true,
		},
		{
			name: "StillValidOfferGeneratedBeforeARetainedInvalidationEndsThere",
			setup: func(s *Server) {
				s.Put("k", []byte("v"), iv(2, 50), false, 0, nil)
				advanceTo(s, 59)
				s.ApplyInvalidation(invalidation.Message{TS: 60, Tags: tag, WallTime: time.Unix(60, 0)})
				advanceTo(s, 80)
			},
			offer: offer{hi: inf, still: true, genSnap: 55, tagged: true},
			want:  iv(2, 60),
		},
		{
			name: "StillValidOfferWhoseInvalidationPredatesTheStoredBoundChangesNothing",
			setup: func(s *Server) {
				s.ApplyInvalidation(invalidation.Message{TS: 40, Tags: tag, WallTime: time.Unix(40, 0)})
				s.Put("k", []byte("v"), iv(2, 50), false, 0, nil)
				advanceTo(s, 80)
			},
			offer: offer{hi: inf, still: true, genSnap: 30, tagged: true},
			want:  iv(2, 50),
		},
		{
			name: "ClosedAtTheHistoryFloorThenReprovedAboveIt",
			setup: func(s *Server) {
				streamTo(s, 70, time.Unix(70, 0))
				s.Put("k", []byte("v"), iv(2, inf), true, 20, tag) // below the floor: closed at 21
				advanceTo(s, 80)
			},
			offer: offer{hi: inf, still: true, genSnap: 75, tagged: true},
			want:  iv(2, 81), wantStill: true,
		},
		{
			name: "StillBelowTheFloorWidensOnlyToItsOwnSnapshot",
			setup: func(s *Server) {
				streamTo(s, 70, time.Unix(70, 0))
				s.Put("k", []byte("v"), iv(2, inf), true, 20, tag)
				advanceTo(s, 80)
			},
			offer: offer{hi: inf, still: true, genSnap: 30, tagged: true},
			want:  iv(2, 31),
		},
		{
			name: "ClosedByAStreamGapThenRecomputed",
			setup: func(s *Server) {
				advanceTo(s, 20)
				s.Put("k", []byte("v"), iv(2, inf), true, 20, tag)
				streamTo(s, 70, time.Unix(70, 0)) // a gap: closed at 21
				advanceTo(s, 80)
			},
			offer: offer{hi: inf, still: true, genSnap: 72, tagged: true},
			want:  iv(2, 81), wantStill: true,
		},
		{
			name: "WiderBoundedOffer",
			setup: func(s *Server) {
				s.Put("k", []byte("v"), iv(2, 50), false, 0, nil)
				advanceTo(s, 80)
			},
			offer: offer{hi: 66},
			want:  iv(2, 66),
		},
		{
			name: "NarrowerBoundedOfferChangesNothing",
			setup: func(s *Server) {
				s.Put("k", []byte("v"), iv(2, 50), false, 0, nil)
				advanceTo(s, 80)
			},
			offer: offer{hi: 40},
			want:  iv(2, 50),
		},
		{
			name: "AnyOfferAgainstAStillValidVersionChangesNothing",
			setup: func(s *Server) {
				advanceTo(s, 10)
				s.Put("k", []byte("v"), iv(2, inf), true, 10, tag)
				advanceTo(s, 80)
			},
			offer: offer{hi: 40},
			want:  iv(2, 81), wantStill: true,
		},
		{
			name: "TaglessStillValidOffer",
			setup: func(s *Server) {
				s.Put("k", []byte("v"), iv(2, 50), false, 0, nil)
				advanceTo(s, 80)
			},
			offer: offer{hi: inf, still: true},
			want:  iv(2, 81), wantStill: true, immune: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			tc.setup(s)
			before := s.Stats()
			var tags []invalidation.TagID
			if tc.offer.tagged {
				tags = tag
			}
			s.Put("k", []byte("another copy"), iv(2, tc.offer.hi), tc.offer.still, tc.offer.genSnap, tags)

			r := s.Lookup(context.Background(), "k", 2, 80, 0, inf)
			if !r.Found || r.Validity != tc.want || r.Still != tc.wantStill {
				t.Fatalf("after the offer: found=%v validity=%v still=%v, want %v still=%v", r.Found, r.Validity, r.Still, tc.want, tc.wantStill)
			}
			if string(r.Data) != "v" {
				t.Fatalf("payload replaced: %q", r.Data)
			}
			if tc.want.Hi > 78 {
				if r := s.Lookup(context.Background(), "k", 77, 77, 0, inf); !r.Found {
					t.Fatal("lookup at 77 misses a version valid through 80")
				}
			}
			after := s.Stats()
			if after.BytesUsed != before.BytesUsed || after.Versions != before.Versions {
				t.Fatalf("bytes %d -> %d, versions %d -> %d: an equal-Lo put must store nothing",
					before.BytesUsed, after.BytesUsed, before.Versions, after.Versions)
			}

			// A widened still-valid version is subscribed like any other:
			// the next matching message closes it, whichever shard counters
			// the fan-out consults.
			s.ApplyInvalidation(invalidation.Message{TS: 90, Tags: tag, WallTime: time.Unix(90, 0)})
			r = s.Lookup(context.Background(), "k", 2, 90, 0, inf)
			wantHi := tc.want.Hi
			switch {
			case tc.immune:
				wantHi = 91
			case tc.wantStill:
				wantHi = 90
			}
			if !r.Found || r.Validity.Hi != wantHi {
				t.Fatalf("after a matching message at 90: found=%v validity=%v, want hi %d", r.Found, r.Validity, wantHi)
			}
		})
	}
}

// TestWidenedVersionAndTheStalenessSweep: a version that sat in the
// staleness queue when it was widened back to still-valid must not be swept
// as stale, and must be swept on schedule once it is invalidated for real.
func TestWidenedVersionAndTheStalenessSweep(t *testing.T) {
	clk := &clock.Virtual{}
	s := New(Config{MaxStaleness: 10 * time.Second, Clock: clk})
	tag := ids([]invalidation.Tag{invalidation.KeyTag("accounts", "id", "1")})
	advanceTo(s, 20)
	s.Put("k", []byte("v"), iv(2, interval.Infinity), true, 20, tag)
	streamTo(s, 70, clk.Now()) // a gap: closed at 21 and queued for the sweep
	s.Put("k", []byte("v"), iv(2, interval.Infinity), true, 70, tag)

	clk.Advance(time.Minute)
	s.SweepStale()
	if r := s.Lookup(context.Background(), "k", 70, 70, 0, interval.Infinity); !r.Found || !r.Still {
		t.Fatalf("a re-proved version was swept as stale: %+v", r)
	}

	s.ApplyInvalidation(invalidation.Message{TS: 75, Tags: tag, WallTime: clk.Now()})
	s.SweepStale()
	if r := s.Lookup(context.Background(), "k", 74, 74, 0, interval.Infinity); !r.Found || r.Validity != iv(2, 75) {
		t.Fatalf("freshly invalidated version gone or wrong before its staleness ran out: %+v", r)
	}
	clk.Advance(time.Minute)
	s.SweepStale()
	if st := s.Stats(); st.Versions != 0 || st.EvictedStale != 1 {
		t.Fatalf("after the staleness bound: %d versions, %d stale evictions; want 0 and 1", st.Versions, st.EvictedStale)
	}
}
