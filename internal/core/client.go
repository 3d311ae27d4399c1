// Package core implements the TxCache application-side library (paper §6):
// transaction management with lazy timestamp selection over a pin set,
// cacheable-function memoization, validity-interval and tag accumulation
// across nested calls, and the staleness-bounded consistency protocol.
package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/consistent"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/pincushion"
	"txcache/internal/sql"
)

// DBTx is the database transaction handle the library drives; *db.Tx
// implements it, as does the network client's transaction.
type DBTx interface {
	Query(src string, args ...sql.Value) (*db.Result, error)
	Exec(src string, args ...sql.Value) (int, error)
	Commit() (interval.Timestamp, error)
	Abort()
	// Snapshot is the timestamp the transaction reads at. A transaction
	// begun at the latest snapshot (snap 0) may not know it yet: the
	// network client's Begin travels with its first statement, so its
	// Snapshot is 0 until that statement's reply has arrived.
	Snapshot() interval.Timestamp
}

// DB is the database the library talks to; *db.Engine implements it
// in-process (modulo return-type wrapping, see EngineDB), and the dbnet
// client implements it over TCP. Begin binds the transaction to ctx:
// in-process transactions observe its cancellation on every statement,
// remote ones additionally map its deadline onto their round trips. A
// read-only Begin at snap 0 is ★: its session pins the latest snapshot.
// PinLatest and Unpin are for wrappers; the library calls neither.
type DB interface {
	Begin(ctx context.Context, readOnly bool, snap interval.Timestamp) (DBTx, error)
	PinLatest() (interval.Timestamp, time.Time)
	Unpin(ts interval.Timestamp)
}

// EngineDB adapts *db.Engine to the DB interface.
type EngineDB struct{ *db.Engine }

// Begin starts an engine transaction bound to ctx.
func (e EngineDB) Begin(ctx context.Context, readOnly bool, snap interval.Timestamp) (DBTx, error) {
	return e.Engine.BeginTx(ctx, readOnly, snap)
}

// Config configures a Client.
type Config struct {
	// DB is the backing database (required).
	DB DB
	// Nodes maps cache node names to connections. Keys are ring positions;
	// an empty map disables caching (the no-cache baseline).
	Nodes map[string]cacheserver.Node
	// Pincushion tracks pinned snapshots (required unless Nodes is empty
	// and all transactions are read/write).
	Pincushion pincushion.Service
	// Clock supplies wall time; defaults to the real clock.
	Clock clock.Clock
	// FreshPinThreshold is the pin-creation policy knob of §6.2: when the
	// newest fresh pin is older than this and ★ is available, the library
	// runs in the present and pins a new snapshot. Defaults to 5s.
	FreshPinThreshold time.Duration
	// NoConsistency reproduces the paper's §8.3 comparator: cache reads
	// accept any version within the staleness window and never constrain
	// the pin set, abandoning transactional consistency.
	NoConsistency bool
}

// Client is the per-application-server TxCache library instance. It is safe
// for concurrent use; each goroutine runs its own transactions. The cache
// cluster membership is dynamic: AddNode and RemoveNode reconfigure the
// consistent-hash ring, connections, and stream subscriptions while
// transactions are running.
type Client struct {
	db    DB
	pc    pincushion.Service
	clk   clock.Clock
	ring  *consistent.Ring
	fresh time.Duration
	noCon bool

	mu    sync.RWMutex
	nodes map[string]cacheserver.Node

	// The pin-set lease (lease.go): read-only transactions begin on the
	// current lease instead of each asking the pincushion.
	leaseTerm time.Duration
	leaseMu   sync.Mutex
	lease     *pinLease     // current lease; nil until a Begin fetches one
	fetching  chan struct{} // non-nil while a GetPins is in flight; closed when it returns

	stats ClientStats
}

// closable is the interface of nodes holding network resources
// (*cacheserver.Client's connection pool, whose Close first drains its
// queue of asynchronous puts, for a bounded time).
type closable interface{ Close() }

// ClientStats aggregates library-side counters across transactions.
type ClientStats struct {
	ROBegun   atomic.Uint64
	RWBegun   atomic.Uint64
	Committed atomic.Uint64
	Aborted   atomic.Uint64

	CacheHits       atomic.Uint64
	MissCompulsory  atomic.Uint64
	MissConsistency atomic.Uint64
	MissStaleness   atomic.Uint64
	MissCapacity    atomic.Uint64
	// MissNoPins counts lookups skipped because the transaction had no
	// pinned snapshots to bound (no fresh pins existed and ★ cannot match
	// cached data); these surface as staleness in Figure 8 terms.
	MissNoPins atomic.Uint64
	// MissDefensive counts hits rejected because accepting them would have
	// emptied the pin set (a freshness race the paper's invariant-2 proof
	// assumes away; we degrade to a miss instead).
	MissDefensive atomic.Uint64

	DBQueries  atomic.Uint64
	CachePuts  atomic.Uint64
	PinsPlaced atomic.Uint64

	// LeaseFetches counts GetPins calls that came back with pins and became
	// a lease; LeasedBegins counts read-only transactions begun on a lease
	// already held, with no pincushion traffic at all. PinFetchEmpty counts
	// GetPins calls that returned nothing — no fresh pins yet, or the
	// pincushion is unreachable, which otherwise looks like a cold cache
	// (every lookup of such a transaction is a MissNoPins).
	LeaseFetches  atomic.Uint64
	LeasedBegins  atomic.Uint64
	PinFetchEmpty atomic.Uint64

	// EncodeErrors counts cacheable results that could not be serialized
	// (the result was returned to the caller but never cached);
	// DecodeErrors counts cache hits whose bytes could not be decoded into
	// the caller's type (recomputed as a miss). Both were previously
	// silent, making a misconfigured type look like a mysteriously cold
	// cache.
	EncodeErrors atomic.Uint64
	DecodeErrors atomic.Uint64

	// NodesAdded / NodesRemoved count live membership changes.
	NodesAdded   atomic.Uint64
	NodesRemoved atomic.Uint64
}

// Hits returns total cache hits.
func (s *ClientStats) Hits() uint64 { return s.CacheHits.Load() }

// Misses returns total cache misses of all kinds.
func (s *ClientStats) Misses() uint64 {
	return s.MissCompulsory.Load() + s.MissConsistency.Load() + s.MissStaleness.Load() +
		s.MissCapacity.Load() + s.MissNoPins.Load() + s.MissDefensive.Load()
}

// HitRate returns hits / (hits + misses). With zero lookups it returns 0,
// never NaN, so idle clients render as "0%" in dashboards and printouts
// rather than poisoning downstream arithmetic.
func (s *ClientStats) HitRate() float64 {
	h, m := s.Hits(), s.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// NewClient builds a library instance.
func NewClient(cfg Config) *Client {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.FreshPinThreshold <= 0 {
		cfg.FreshPinThreshold = 5 * time.Second
	}
	c := &Client{
		db:        cfg.DB,
		pc:        cfg.Pincushion,
		clk:       cfg.Clock,
		ring:      consistent.New(0),
		nodes:     make(map[string]cacheserver.Node, len(cfg.Nodes)),
		fresh:     cfg.FreshPinThreshold,
		leaseTerm: cfg.FreshPinThreshold / leaseTermDivisor,
		noCon:     cfg.NoConsistency,
	}
	for name, n := range cfg.Nodes {
		c.nodes[name] = n
		c.ring.Add(name)
	}
	return c
}

// Stats exposes the library counters.
func (c *Client) Stats() *ClientStats { return &c.stats }

// CacheEnabled reports whether any cache nodes are configured.
func (c *Client) CacheEnabled() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes) > 0
}

// node returns the cache node responsible for key under consistent hashing,
// or nil when no node is responsible (empty cluster, or the ring briefly
// naming a node that has just been removed). Callers treat nil as a
// compulsory miss.
func (c *Client) node(key string) cacheserver.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.nodes) == 0 {
		return nil
	}
	return c.nodes[c.ring.Get(key)]
}

// NodeNames returns the current cache cluster membership in unspecified
// order.
func (c *Client) NodeNames() []string { return c.ring.Nodes() }

// AddNode joins a cache node to the running cluster (idempotent): the node
// is registered before the ring remaps keys onto it, so no lookup can route
// to an unknown name. The join needs no other step, and the node's stream
// may reach it before or after: a node serves no still-valid entry before
// its first stream message, and that message closes whatever it was given
// earlier (it cannot know what those entries missed), so it is cold until
// then and exact afterwards.
func (c *Client) AddNode(name string, node cacheserver.Node) {
	c.mu.Lock()
	if _, ok := c.nodes[name]; ok {
		c.mu.Unlock()
		return
	}
	c.nodes[name] = node
	c.mu.Unlock()
	c.ring.Add(name)
	c.stats.NodesAdded.Add(1)
}

// RemoveNode drains a cache node out of the running cluster (idempotent):
// the ring stops routing new lookups to it and its connections are torn down once
// its queued asynchronous puts have been written or its drain time is up.
// In-flight lookups against the node degrade to misses. Reports whether
// the node was a member.
func (c *Client) RemoveNode(name string) bool {
	c.ring.Remove(name)
	c.mu.Lock()
	node, ok := c.nodes[name]
	delete(c.nodes, name)
	c.mu.Unlock()
	if !ok {
		return false
	}
	if cl, ok := node.(closable); ok {
		cl.Close()
	}
	c.stats.NodesRemoved.Add(1)
	return true
}

// Close gives the pin-set lease back to the pincushion (at once, or when the
// last transaction still running on it ends) and removes every cache node,
// draining its connections. The database handle is not touched.
func (c *Client) Close() {
	c.endLease(nil)
	for _, name := range c.NodeNames() {
		c.RemoveNode(name)
	}
}
