package atfix

import "sync/atomic"

// Regression fixture: the PR 6 shape — a counter bumped atomically on the
// hot path but snapshotted with a plain read, a data race the runtime
// detector only catches when the two happen to overlap in a test run.
type counters struct {
	hits   uint64
	misses uint64
}

func (c *counters) incr() {
	atomic.AddUint64(&c.hits, 1)
}

func (c *counters) snapshot() uint64 {
	return c.hits // want "plain access to hits"
}

// Clean: every access goes through sync/atomic.
func (c *counters) snapshotAtomic() uint64 {
	return atomic.LoadUint64(&c.hits)
}

// Clean: misses is only ever accessed plainly.
func (c *counters) missPlain() uint64 {
	c.misses++
	return c.misses
}

var total uint64

func addTotal() {
	atomic.AddUint64(&total, 1)
}

func resetTotal() {
	total = 0 // want "plain access to total"
}

// Clean: typed atomics make the invariant structural.
type gauge struct {
	v atomic.Int64
}

func (g *gauge) set(n int64) { g.v.Store(n) }
func (g *gauge) get() int64  { return g.v.Load() }

// Clean: a &local handed to a typed atomic's Store is being published, not
// turned into an atomic cell (the copy-on-write table shape).
var table atomic.Pointer[[]int]

func publish() {
	grown := []int{1}
	table.Store(&grown)
	grown = append(grown, 2)
	_ = grown
}

type lazyInit struct {
	n uint64
}

func (l *lazyInit) bump() {
	atomic.AddUint64(&l.n, 1)
}

func newLazy() *lazyInit {
	l := &lazyInit{}
	//lint:allow atomicfield not yet shared: plain initialization before publication
	l.n = 1
	return l
}
