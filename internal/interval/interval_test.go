package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func iv(lo, hi Timestamp) Interval { return Interval{Lo: lo, Hi: hi} }

func TestIntervalEmpty(t *testing.T) {
	cases := []struct {
		iv    Interval
		empty bool
	}{
		{Interval{}, true},
		{iv(5, 5), true},
		{iv(6, 5), true},
		{iv(5, 6), false},
		{iv(0, Infinity), false},
	}
	for _, c := range cases {
		if got := c.iv.Empty(); got != c.empty {
			t.Errorf("%v.Empty() = %v, want %v", c.iv, got, c.empty)
		}
	}
}

func TestIntervalContains(t *testing.T) {
	x := iv(10, 20)
	for _, ts := range []Timestamp{10, 15, 19} {
		if !x.Contains(ts) {
			t.Errorf("%v should contain %d", x, ts)
		}
	}
	for _, ts := range []Timestamp{0, 9, 20, 21, Infinity} {
		if x.Contains(ts) {
			t.Errorf("%v should not contain %d", x, ts)
		}
	}
	if !iv(10, Infinity).Contains(1 << 60) {
		t.Error("unbounded interval should contain large timestamps")
	}
	if iv(10, Infinity).Contains(Infinity) {
		t.Error("half-open: Infinity itself is never contained")
	}
}

func TestIntervalIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Interval
	}{
		{iv(1, 10), iv(5, 20), iv(5, 10)},
		{iv(1, 10), iv(10, 20), Interval{}},
		{iv(1, 10), iv(0, 100), iv(1, 10)},
		{iv(1, Infinity), iv(5, Infinity), iv(5, Infinity)},
		{Interval{}, iv(5, 20), Interval{}},
	}
	for _, c := range cases {
		if got := c.a.Intersect(c.b); got != c.want {
			t.Errorf("%v.Intersect(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Intersect(c.a); got != c.want {
			t.Errorf("intersect not commutative for %v, %v", c.a, c.b)
		}
	}
}

func TestOverlapsRange(t *testing.T) {
	x := iv(10, 20)
	cases := []struct {
		lo, hi Timestamp
		want   bool
	}{
		{0, 9, false},
		{0, 10, true},  // inclusive hi touches Lo
		{19, 30, true}, // 19 < Hi
		{20, 30, false},
		{12, 14, true},
		{14, 12, false}, // malformed range
	}
	for _, c := range cases {
		if got := x.OverlapsRange(c.lo, c.hi); got != c.want {
			t.Errorf("%v.OverlapsRange(%d,%d) = %v, want %v", x, c.lo, c.hi, got, c.want)
		}
	}
	if (Interval{}).OverlapsRange(0, Infinity) {
		t.Error("empty interval overlaps nothing")
	}
}

func TestMaskAddCoalesce(t *testing.T) {
	var m Mask
	m.Add(iv(10, 20))
	m.Add(iv(30, 40))
	if len(m.ivs) != 2 {
		t.Fatalf("want 2 intervals, got %v", m.String())
	}
	m.Add(iv(20, 30)) // touches both => coalesce to one
	if len(m.ivs) != 1 {
		t.Fatalf("want coalesced single interval, got %v", m.String())
	}
	if got := m.ivs[0]; got != iv(10, 40) {
		t.Fatalf("want [10,40), got %v", got)
	}
	m.Add(iv(0, 5))
	m.Add(iv(50, Infinity))
	if len(m.ivs) != 3 {
		t.Fatalf("want 3 intervals, got %v", m.String())
	}
	if m.Covers(45) {
		t.Error("45 should not be covered")
	}
	for _, ts := range []Timestamp{0, 4, 10, 39, 50, 1 << 62} {
		if !m.Covers(ts) {
			t.Errorf("%d should be covered by %v", ts, m.String())
		}
	}
}

func TestMaskSubtract(t *testing.T) {
	var m Mask
	m.Add(iv(10, 20))
	m.Add(iv(40, 50))

	// Component containing 30 is [20, 40).
	if got := m.Subtract(iv(0, Infinity), 30); got != iv(20, 40) {
		t.Errorf("Subtract = %v, want [20,40)", got)
	}
	// Bounded by the base interval too.
	if got := m.Subtract(iv(25, 35), 30); got != iv(25, 35) {
		t.Errorf("Subtract = %v, want [25,35)", got)
	}
	// ts inside mask => empty.
	if got := m.Subtract(iv(0, Infinity), 15); !got.Empty() {
		t.Errorf("Subtract at masked ts = %v, want empty", got)
	}
	// ts outside base interval => empty.
	if got := m.Subtract(iv(0, 10), 30); !got.Empty() {
		t.Errorf("Subtract outside base = %v, want empty", got)
	}
	// Component above all mask intervals is unbounded.
	if got := m.Subtract(iv(0, Infinity), 60); got != iv(50, Infinity) {
		t.Errorf("Subtract = %v, want [50,inf)", got)
	}
	// Empty mask: identity.
	var e Mask
	if got := e.Subtract(iv(3, 9), 5); got != iv(3, 9) {
		t.Errorf("empty-mask Subtract = %v, want [3,9)", got)
	}
}

// Property: Subtract returns an interval that (a) contains ts, (b) lies
// within the base interval, (c) excludes all masked timestamps, and (d) is
// maximal (its bounds touch either the base interval or a masked interval).
func TestMaskSubtractProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		var m Mask
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			lo := Timestamp(rng.Intn(100))
			hi := lo + Timestamp(rng.Intn(20)+1)
			m.Add(iv(lo, hi))
		}
		base := iv(0, 120)
		ts := Timestamp(rng.Intn(120))
		got := m.Subtract(base, ts)
		if m.Covers(ts) || !base.Contains(ts) {
			if !got.Empty() {
				t.Fatalf("want empty for masked ts %d mask %v, got %v", ts, m.String(), got)
			}
			continue
		}
		if !got.Contains(ts) {
			t.Fatalf("result %v does not contain ts %d (mask %v)", got, ts, m.String())
		}
		if got.Lo < base.Lo || got.Hi > base.Hi {
			t.Fatalf("result %v escapes base %v", got, base)
		}
		for u := got.Lo; u < got.Hi; u++ {
			if m.Covers(u) {
				t.Fatalf("result %v includes masked ts %d (mask %v)", got, u, m.String())
			}
		}
		// Maximality.
		if got.Lo > base.Lo && !m.Covers(got.Lo-1) {
			t.Fatalf("result %v not maximal at Lo (mask %v)", got, m.String())
		}
		if got.Hi < base.Hi && !m.Covers(got.Hi) {
			t.Fatalf("result %v not maximal at Hi (mask %v)", got, m.String())
		}
	}
}

// Property: mask membership matches a brute-force union of the added
// intervals, regardless of insertion order.
func TestMaskCoversProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var m Mask
		covered := make(map[Timestamp]bool)
		for i := 0; i < rng.Intn(12); i++ {
			lo := Timestamp(rng.Intn(64))
			hi := lo + Timestamp(rng.Intn(16))
			m.Add(iv(lo, hi))
			for u := lo; u < hi; u++ {
				covered[u] = true
			}
		}
		for u := Timestamp(0); u < 90; u++ {
			if m.Covers(u) != covered[u] {
				return false
			}
		}
		// Disjointness/sortedness invariant.
		ivs := m.ivs
		for i := 1; i < len(ivs); i++ {
			if ivs[i-1].Hi >= ivs[i].Lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
