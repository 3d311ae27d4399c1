// Package interval implements validity intervals and invalidity masks,
// the core bookkeeping TxCache uses to reason about when a query result or
// cached object was current (paper §4.1, §5.2).
//
// Timestamps are logical commit sequence numbers assigned by the database.
// An Interval is half-open [Lo, Hi): a value is valid *at* timestamp ts iff
// Lo <= ts < Hi. Hi == Infinity means the value is still valid.
package interval

import (
	"fmt"
	"math"
	"sort"
)

// Timestamp is a logical commit timestamp. The database assigns one to each
// committed read/write transaction, in commit order. A snapshot is identified
// by the timestamp of the last transaction visible to it (paper §5.1).
type Timestamp uint64

// Infinity is the upper bound of intervals that are still valid: no
// committed transaction has invalidated them yet.
const Infinity Timestamp = math.MaxUint64

// Zero is "before all history"; no committed data carries timestamp 0.
const Zero Timestamp = 0

func (t Timestamp) String() string {
	if t == Infinity {
		return "inf"
	}
	return fmt.Sprintf("%d", uint64(t))
}

// Interval is a half-open validity interval [Lo, Hi). The zero value is the
// empty interval. The lower bound is the commit time of the transaction that
// made the value valid; the upper bound is the commit time of the first
// subsequent transaction that changed it (paper §4.1).
type Interval struct {
	Lo Timestamp
	Hi Timestamp
}

// All is the interval covering every timestamp, [0, Infinity). A query that
// touches no tuples (e.g. over an empty table region) is valid over all time
// until the invalidity mask says otherwise.
var All = Interval{Lo: Zero, Hi: Infinity}

// Empty reports whether the interval contains no timestamps.
func (iv Interval) Empty() bool { return iv.Lo >= iv.Hi }

// Contains reports whether the value is valid at ts.
func (iv Interval) Contains(ts Timestamp) bool { return iv.Lo <= ts && ts < iv.Hi }

// Unbounded reports whether the value is still valid (no invalidating
// transaction has committed).
func (iv Interval) Unbounded() bool { return iv.Hi == Infinity }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(o Interval) Interval {
	r := Interval{Lo: max(iv.Lo, o.Lo), Hi: min(iv.Hi, o.Hi)}
	if r.Empty() {
		return Interval{}
	}
	return r
}

// OverlapsRange reports whether the interval contains any timestamp in the
// inclusive range [lo, hi]. Cache lookups send pin-set *bounds* as an
// inclusive range (paper §6.2).
func (iv Interval) OverlapsRange(lo, hi Timestamp) bool {
	if iv.Empty() || lo > hi {
		return false
	}
	return iv.Lo <= hi && lo < iv.Hi
}

func (iv Interval) String() string {
	if iv.Empty() {
		return "[empty)"
	}
	return fmt.Sprintf("[%s,%s)", iv.Lo, iv.Hi)
}

// Mask is an invalidity mask: a union of intervals during which a query's
// result would have differed because of tuples that matched the query
// predicate but failed the snapshot visibility check (phantoms, paper §5.2).
// The zero value is an empty mask.
type Mask struct {
	// ivs is kept sorted by Lo and coalesced: no two intervals touch or
	// overlap.
	ivs []Interval
}

// Add unions iv into the mask. The update is in place — the backing array
// is reused (growing only when a disjoint interval is inserted into a full
// one), so a mask that is reset and refilled per query settles into zero
// steady-state allocation.
func (m *Mask) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// Find insertion window: all intervals that overlap or touch iv.
	i := sort.Search(len(m.ivs), func(i int) bool { return m.ivs[i].Hi >= iv.Lo })
	j := i
	merged := iv
	for j < len(m.ivs) && m.ivs[j].Lo <= iv.Hi {
		merged.Lo = min(merged.Lo, m.ivs[j].Lo)
		merged.Hi = max(merged.Hi, m.ivs[j].Hi)
		j++
	}
	switch {
	case i == j:
		// Disjoint: open a slot at i.
		m.ivs = append(m.ivs, Interval{})
		copy(m.ivs[i+1:], m.ivs[i:])
	case j > i+1:
		// Swallowed several intervals: close the gap.
		m.ivs = append(m.ivs[:i+1], m.ivs[j:]...)
	}
	m.ivs[i] = merged
}

// Reset empties the mask, keeping its backing array for reuse.
func (m *Mask) Reset() { m.ivs = m.ivs[:0] }

// Covers reports whether ts lies inside the mask.
func (m *Mask) Covers(ts Timestamp) bool {
	i := sort.Search(len(m.ivs), func(i int) bool { return m.ivs[i].Hi > ts })
	return i < len(m.ivs) && m.ivs[i].Contains(ts)
}

// Subtract returns the maximal sub-interval of iv that contains ts and
// excludes every timestamp in the mask. This implements the paper's final
// step: "the invalidity mask is subtracted from the result tuple validity to
// give the query's final validity interval" — the component containing the
// query's snapshot timestamp. If ts is masked or outside iv, the result is
// empty (which would indicate a tracking bug; callers treat it as
// uncacheable).
func (m *Mask) Subtract(iv Interval, ts Timestamp) Interval {
	if !iv.Contains(ts) || m.Covers(ts) {
		return Interval{}
	}
	out := iv
	// Intervals entirely below ts raise the lower bound; entirely above
	// lower the upper bound. Because the mask is sorted and does not cover
	// ts, a binary search finds the neighbors.
	i := sort.Search(len(m.ivs), func(i int) bool { return m.ivs[i].Hi > ts })
	if i > 0 {
		out.Lo = max(out.Lo, m.ivs[i-1].Hi)
	}
	if i < len(m.ivs) {
		// m.ivs[i].Hi > ts and ts not covered, so m.ivs[i].Lo > ts.
		out.Hi = min(out.Hi, m.ivs[i].Lo)
	}
	return out
}

func (m *Mask) String() string {
	s := "{"
	for i, iv := range m.ivs {
		if i > 0 {
			s += " "
		}
		s += iv.String()
	}
	return s + "}"
}

func min(a, b Timestamp) Timestamp {
	if a < b {
		return a
	}
	return b
}

func max(a, b Timestamp) Timestamp {
	if a > b {
		return a
	}
	return b
}
