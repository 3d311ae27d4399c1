// Package loadgen is an open-loop load harness: it generates request
// arrivals on a schedule that does not depend on how fast the system under
// test responds, and it measures latency from each request's *intended*
// send time. Closed-loop drivers (a fixed worker pool where each worker
// politely waits for its reply before sending the next request) understate
// tail latency by exactly the amount the system stalls them — the
// "coordinated omission" problem — because a stalled worker silently stops
// generating the arrivals that would have observed the stall. An open-loop
// driver keeps the arrival clock running, so a one-second server stall
// shows up as hundreds of one-second latencies instead of one.
//
// The package is transport-agnostic: a Target executes one request; the
// HTTP target in http.go drives a txcache-serve front end over real TCP
// sockets. A run's Service histogram is the closed-loop view of the same
// requests, so both are read off one run.
package loadgen

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram geometry: values are recorded in nanoseconds into log-spaced
// buckets with 128 sub-buckets per power of two, giving a worst-case
// relative error of 1/64 ≈ 1.6% — the HDR-histogram layout with two
// significant digits. The top of the range is 2^42 ns ≈ 73 minutes; larger
// values clamp into the last bucket (and the exact maximum is tracked
// separately, so a clamped p100 is still truthful).
const (
	histSubBits  = 7
	histSubCount = 1 << histSubBits // 128 sub-buckets
	histMaxShift = 42 - histSubBits + 1
	// Index layout: [0, histSubCount) is the exact low range (shift 0);
	// each further shift region adds histSubCount/2 buckets. The largest
	// index is histSubCount/2*histMaxShift + histSubCount - 1.
	histNBuckets = (histSubCount/2)*histMaxShift + histSubCount
)

// histIndex maps a non-negative nanosecond value to its bucket.
func histIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v))
	s := msb - (histSubBits - 1)
	if s > histMaxShift {
		s = histMaxShift
	}
	idx := (histSubCount/2)*s + int(v>>uint(s))
	if idx >= histNBuckets {
		idx = histNBuckets - 1
	}
	return idx
}

// histValue returns the midpoint latency of bucket idx.
func histValue(idx int) int64 {
	if idx < histSubCount {
		return int64(idx)
	}
	s := idx/(histSubCount/2) - 1
	sub := int64(idx - (histSubCount/2)*s)
	low := sub << uint(s)
	return low + int64(1)<<uint(s)/2
}

// Hist is a concurrent fixed-memory latency histogram. Record is wait-free
// (one atomic add plus a CAS loop for the max) so thousands of workers can
// share one instance; readers see a consistent-enough view for reporting.
type Hist struct {
	counts [histNBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// Record adds one latency observation.
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.n.Load() }

// Max returns the exact largest recorded value.
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the arithmetic mean of recorded values.
func (h *Hist) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Quantile returns the latency at quantile q in [0, 1]: the recorded value
// below which a fraction q of observations fall, to within the bucket
// resolution (≤ 1.6% relative error). q=0.999 is the p999 of the run.
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based.
	rank := uint64(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen uint64
	for i := 0; i < histNBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			v := histValue(i)
			if m := h.max.Load(); v > m {
				v = m // never report past the true maximum
			}
			return time.Duration(v)
		}
	}
	return h.Max()
}

// Merge adds o's observations into h. (The exact max merges; the mean and
// quantiles merge within bucket resolution.)
func (h *Hist) Merge(o *Hist) {
	for i := 0; i < histNBuckets; i++ {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
	h.sum.Add(o.sum.Load())
	for {
		m, om := h.max.Load(), o.max.Load()
		if om <= m || h.max.CompareAndSwap(m, om) {
			break
		}
	}
}

// Summary is a one-line quantile digest of a histogram, the shape every
// report row prints.
type Summary struct {
	Count                     uint64
	Mean, P50, P90, P99, P999 time.Duration
	Max                       time.Duration
}

// Summarize digests the histogram.
func (h *Hist) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// String renders the summary as a fixed-width report row fragment.
func (s Summary) String() string {
	return fmt.Sprintf("p50=%-9v p90=%-9v p99=%-9v p999=%-9v max=%v",
		round(s.P50), round(s.P90), round(s.P99), round(s.P999), round(s.Max))
}

// round trims a duration to a readable precision for report rows.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}
