// Package txcache is a transactional application-data cache with automatic
// management, reproducing "Transactional Consistency and Automatic
// Management in an Application Data Cache" (Ports, Clements, Zhang, Madden,
// Liskov — OSDI 2010).
//
// TxCache guarantees that all data an application sees during a read-only
// transaction — whether it came from the cache or from the database —
// reflects one consistent, possibly slightly stale, snapshot of the
// database. Applications get caching by declaring cacheable functions;
// TxCache memoizes them, names their cache entries, tracks their database
// dependencies, and invalidates them automatically when the database
// changes.
//
// The facade re-exports the pieces of a complete deployment:
//
//   - Client / Tx / MakeCacheable — the application-side library (paper §6)
//   - Engine — the multiversion database substrate with validity-interval
//     tracking and invalidation tags (paper §5)
//   - CacheServer — the versioned cache node (paper §4)
//   - Pincushion — the pinned-snapshot registry (paper §5.4)
//   - Bus — the ordered invalidation stream (paper §4.2)
//
// A minimal in-process deployment:
//
//	bus := txcache.NewBus(false)
//	engine := txcache.NewEngine(txcache.EngineOptions{Bus: bus})
//	node := txcache.NewCacheServer(txcache.CacheConfig{})
//	go node.ConsumeStream(bus.Subscribe())
//	pc := txcache.NewPincushion(txcache.PincushionConfig{DB: engine})
//	client := txcache.NewClient(txcache.Config{
//		DB:         txcache.WrapEngine(engine),
//		Nodes:      map[string]txcache.CacheNode{"local": node},
//		Pincushion: pc,
//	})
//
//	getUser := txcache.MakeCacheable(client, "getUser",
//		func(tx *txcache.Tx, args ...txcache.Value) (string, error) {
//			r, err := tx.Query("SELECT name FROM users WHERE id = ?", args...)
//			if err != nil || len(r.Rows) == 0 {
//				return "", err
//			}
//			return r.Rows[0][0].(string), nil
//		})
//
//	tx, err := client.Begin(ctx, txcache.WithStaleness(30*time.Second))
//	name, err := getUser(tx, int64(7))
//	ts, err := tx.Commit()
//
// Or, with the closure runners (which begin, commit, release pins on every
// exit path, and retry serialization failures: a read/write conflict, or a
// read-only transaction's snapshot swept before its first statement):
//
//	var name string
//	ts, err := client.ReadOnly(ctx, func(tx *txcache.Tx) error {
//		var err error
//		name, err = getUser(tx, int64(7))
//		return err
//	})
//
// Every transaction is bound to a context: cancel it (or let its deadline
// pass) and the transaction's statements, cache lookups, and remote round
// trips stop promptly, releasing pinned snapshots on the way out. See
// DESIGN.md ("Public API & context semantics") for the exact guarantees at
// each layer and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package txcache

import (
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/sql"
)

// Timestamp is a logical commit timestamp assigned by the database.
type Timestamp = interval.Timestamp

// Infinity is the upper bound of still-valid intervals.
const Infinity = interval.Infinity

// Interval is a half-open validity interval [Lo, Hi).
type Interval = interval.Interval

// Value is a SQL value: nil, int64, float64, string, or bool.
type Value = sql.Value

// Client is the TxCache library handle (paper §6).
type Client = core.Client

// Config configures a Client.
type Config = core.Config

// Tx is a TxCache transaction (BEGIN-RO/BEGIN-RW of paper Figure 2),
// started with Client.Begin (or the ReadOnly/ReadWrite closure runners)
// and bound to the context given there.
type Tx = core.Tx

// TxOption configures a transaction started by Client.Begin, ReadOnly, or
// ReadWrite.
type TxOption = core.TxOption

// WithStaleness bounds how stale the read-only transaction's snapshot may
// be; without it 30s, the paper's standard setting, applies.
func WithStaleness(d time.Duration) TxOption { return core.WithStaleness(d) }

// WithMinTimestamp guarantees the snapshot is no older than ts; thread a
// Commit's timestamp into the next transaction for session causality.
func WithMinTimestamp(ts Timestamp) TxOption { return core.WithMinTimestamp(ts) }

// WithReadWrite makes the transaction read/write (latest state, cache
// bypassed).
func WithReadWrite() TxOption { return core.WithReadWrite() }

// WithoutCache runs a read-only transaction with the cache disabled;
// consistency guarantees are unchanged.
func WithoutCache() TxOption { return core.WithoutCache() }

// Tx errors.
var (
	// ErrTxDone is returned when using a finished transaction.
	ErrTxDone = core.ErrTxDone
	// ErrReadOnly is returned when a read-only transaction writes.
	ErrReadOnly = core.ErrReadOnly
)

// ClientStats aggregates library counters.
type ClientStats = core.ClientStats

// NewClient builds a library instance.
func NewClient(cfg Config) *Client { return core.NewClient(cfg) }

// MakeCacheable wraps a pure function of (arguments, database state) into a
// memoized cacheable function (paper Figure 2). T must be built from string,
// int64, int, float64, bool, sql.Value, structs of exported fields, slices
// and pointers (db.Result included); MakeCacheable panics, naming the type,
// on anything else — see core.MakeCacheable.
func MakeCacheable[T any](c *Client, name string, fn core.Cacheable[T]) core.Cacheable[T] {
	return core.MakeCacheable(c, name, fn)
}

// Engine is the multiversion database substrate (paper §5).
type Engine = db.Engine

// EngineOptions configures an Engine.
type EngineOptions = db.Options

// EngineStats is a snapshot of engine counters.
type EngineStats = db.Stats

// Result is a query result with validity metadata.
type Result = db.Result

// PoolConfig simulates a bounded buffer cache with disk-read penalties.
type PoolConfig = db.PoolConfig

// NewEngine creates an empty database engine.
func NewEngine(opts EngineOptions) *Engine { return db.New(opts) }

// WrapEngine adapts an *Engine to the Client's DB interface.
func WrapEngine(e *Engine) core.DB { return core.EngineDB{Engine: e} }

// ErrSerialization is the retryable serialization failure: a
// first-committer-wins conflict, or a read-only transaction's pinned
// snapshot swept before its first statement.
var ErrSerialization = db.ErrSerialization

// CacheServer is one versioned cache node (paper §4).
type CacheServer = cacheserver.Server

// CacheConfig configures a cache node.
type CacheConfig = cacheserver.Config

// CacheNode is the node interface (in-process server or TCP client).
type CacheNode = cacheserver.Node

// CacheStats are cache-node counters, including the Figure 8 miss taxonomy.
type CacheStats = cacheserver.Stats

// CacheClient is the TCP client for a remote cache node: each lookup and
// each put leases a connection of its pool and goes out in its caller's
// goroutine, a put as a one-way frame.
type CacheClient = cacheserver.Client

// CacheClientStats are client-side transport counters (puts sent and
// failed, reconnects, timeouts), as opposed to the remote node's CacheStats.
type CacheClientStats = cacheserver.ClientStats

// CacheLookupResult is the reply to a cache lookup.
type CacheLookupResult = cacheserver.LookupResult

// NewCacheServer creates a cache node.
func NewCacheServer(cfg CacheConfig) *CacheServer { return cacheserver.New(cfg) }

// DialCache connects to a remote cache node.
func DialCache(addr string, poolSize int) (*CacheClient, error) {
	return cacheserver.Dial(addr, poolSize)
}

// Pincushion tracks pinned snapshots (paper §5.4).
type Pincushion = pincushion.Pincushion

// PincushionConfig configures a Pincushion.
type PincushionConfig = pincushion.Config

// NewPincushion creates a pincushion.
func NewPincushion(cfg PincushionConfig) *Pincushion { return pincushion.New(cfg) }

// Bus is the ordered invalidation stream fan-out (paper §4.2).
type Bus = invalidation.Bus

// InvalidationTag is a dependency tag ("table:column=key" or "table:?").
type InvalidationTag = invalidation.Tag

// TagID is a tag's hash: the form results, cache entries and the
// invalidation stream carry (see invalidation.TagID). It prints as
// "%08x:%08x", or "%08x:?" for a wildcard.
type TagID = invalidation.TagID

// InternTag returns the TagID of a tag — the same in every process, so it
// is also how to find a tag you know by name in output that prints IDs.
func InternTag(t InvalidationTag) TagID { return invalidation.Intern(t) }

// NewBus creates an invalidation bus. A subscription starts at the next
// message: a node that joins late needs no replay (it is cold until its first
// message and exact afterwards). The argument is ignored.
func NewBus(bool) *Bus { return invalidation.NewBus(false) }

// Clock abstracts wall time (real in production, virtual in tests).
type Clock = clock.Clock

// VirtualClock is a manually-advanced clock for deterministic tests.
type VirtualClock = clock.Virtual
