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
	PinLatest() (interval.Timestamp, time.Time) // kept for benchmark/ (ROADMAP 1)
	Unpin(ts interval.Timestamp)                // kept for benchmark/ (ROADMAP 1)
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
	// Nodes maps cache node names to connections. NewClient reads it once:
	// the names place the nodes on the hash ring, the set is fixed for the
	// client's life, and Client.Close closes them. An empty map disables
	// caching (the no-cache baseline).
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
// for concurrent use; each goroutine runs its own transactions. Its cache
// nodes are the Config.Nodes it was built with, and a key's node is fixed
// for the client's life (paper §4: every application server holds the full
// server list).
type Client struct {
	db    DB
	pc    pincushion.Service
	clk   clock.Clock
	ring  *consistent.Ring // built by NewClient, read-only after
	nodes map[string]cacheserver.Node
	fresh time.Duration
	noCon bool

	// The pin-set lease (lease.go): read-only transactions begin on the
	// current lease instead of each asking the pincushion.
	leaseTerm time.Duration
	leaseMu   sync.Mutex
	lease     *pinLease     // current lease; nil until a Begin fetches one
	fetching  chan struct{} // non-nil while a GetPins is in flight; closed when it returns

	stats ClientStats
}

// closable is the interface of nodes holding network resources
// (*cacheserver.Client's connection pool).
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
	// SweptRetries counts read-only transactions whose pinned snapshot was
	// swept before their first statement, which failed with
	// ErrSerialization; ReadOnly re-runs each.
	SweptRetries atomic.Uint64

	// EncodeErrors counts cacheable results that could not be serialized
	// (the result was returned to the caller but never cached);
	// DecodeErrors counts cache hits whose bytes could not be decoded into
	// the caller's type (recomputed as a miss). Both were previously
	// silent, making a misconfigured type look like a mysteriously cold
	// cache.
	EncodeErrors atomic.Uint64
	DecodeErrors atomic.Uint64
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
func (c *Client) CacheEnabled() bool { return len(c.nodes) > 0 }

// node returns the cache node responsible for key under consistent hashing.
// Only a client with cache nodes calls it.
func (c *Client) node(key string) cacheserver.Node { return c.nodes[c.ring.Get(key)] }

// Close closes every cache node that holds network resources. A second
// Close returns at once, and a cacheable call after Close misses on every
// closed node. The database
// handle and the pincushion are not touched.
func (c *Client) Close() {
	for _, n := range c.nodes {
		if cl, ok := n.(closable); ok {
			cl.Close()
		}
	}
}
