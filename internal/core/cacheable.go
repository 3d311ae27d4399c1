package core

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/sql"
)

// Cacheable is a cacheable function over values of type T: a pure function
// of its arguments and the database state (paper §2.1). The wrapper returned
// by MakeCacheable memoizes it through the cache cluster.
type Cacheable[T any] func(tx *Tx, args ...sql.Value) (T, error)

// MakeCacheable wraps fn (paper Figure 2): the wrapper first consults the
// cache for the result of a prior call with the same arguments consistent
// with the transaction's pin set; on a miss it runs fn, accumulating the
// validity intervals and invalidation tags of every query fn makes and of
// every cache hit its nested cacheable calls return (§6.3), and installs the
// result — still-valid, under the union of those tags, when nothing fn saw
// was bounded. name must uniquely identify the function across the
// application (it is the cache-key prefix).
//
// Results are serialized by a codec compiled from T here, once (see
// codec.go): T must be a string, int64, int, float64, bool or sql.Value, or
// a struct of exported fields, a slice or a pointer built from those
// (db.Result included). MakeCacheable panics on any other T — a type that
// can never be cached is a programming error, reported at registration
// rather than paid for on every call. A value that cannot be encoded (a nil
// pointer, a foreign type inside a sql.Value) skips the install, and an
// undecodable hit (bytes written under another layout of T) recomputes —
// both silently for the caller, but counted in ClientStats.EncodeErrors /
// DecodeErrors so a cache that stays cold shows up in monitoring.
func MakeCacheable[T any](c *Client, name string, fn Cacheable[T]) Cacheable[T] {
	codec, err := planOf(reflect.TypeFor[T]())
	if err != nil {
		panic(fmt.Sprintf("core: MakeCacheable(%q): %v", name, err))
	}
	return func(tx *Tx, args ...sql.Value) (T, error) {
		var zero T
		if tx == nil || tx.done {
			return zero, ErrTxDone
		}
		if err := tx.ctxErr(); err != nil {
			return zero, err
		}
		// Read/write transactions bypass the cache entirely so TxCache
		// introduces no new anomalies (paper §2.2). Caching is also skipped
		// when no cache nodes are configured (the no-cache baseline) and
		// for transactions begun WithoutCache.
		if !tx.cacheOK() {
			return fn(tx, args...)
		}

		key := cacheKey(name, args)

		if data, ok := tx.lookup(key); ok {
			var out T
			if err := codec.decode(data, reflect.ValueOf(&out).Elem()); err == nil {
				return out, nil
			}
			// Undecodable cached bytes (e.g. the type changed across a
			// deploy): fall through and recompute.
			tx.c.stats.DecodeErrors.Add(1)
		}

		// Miss: execute the implementation under a fresh frame.
		f := &frame{proven: interval.All, open: true}
		tx.frames = append(tx.frames, f)
		out, err := fn(tx, args...)
		tx.frames = tx.frames[:len(tx.frames)-1]
		if err != nil {
			return zero, err
		}

		// Install the result tagged with the accumulated validity interval
		// and dependency set.
		if data, encErr := codec.encode(reflect.ValueOf(&out).Elem()); encErr == nil {
			tx.put(key, data, f)
		} else {
			tx.c.stats.EncodeErrors.Add(1)
		}
		return out, nil
	}
}

// cacheKey serializes the function name and arguments into the cache key.
// Argument encoding is the self-delimiting ordenc form, so distinct
// argument vectors can never collide — the class of bug the paper's §2.1
// found in MediaWiki's hand-chosen keys.
func cacheKey(name string, args []sql.Value) string {
	b := make([]byte, 0, len(name)+16*len(args)+1)
	b = append(b, name...)
	b = append(b, 0)
	for _, a := range args {
		b = sql.EncodeKey(b, a)
	}
	return string(b)
}

// lookup consults the cache and, on a hit, narrows the pin set. It rejects
// (degrading to a miss) any value whose acceptance would empty the pin set.
func (tx *Tx) lookup(key string) ([]byte, bool) {
	lo, hi, ok := tx.bounds()
	if !ok {
		tx.c.stats.MissNoPins.Add(1)
		return nil, false
	}
	node := tx.c.node(key)
	if node == nil {
		tx.c.stats.MissCompulsory.Add(1)
		return nil, false
	}
	r := node.Lookup(tx.ctx, key, lo, hi, tx.origLo, interval.Infinity)
	if !r.Found {
		tx.countMiss(r.Miss)
		return nil, false
	}
	return tx.accept(r)
}

// countMiss attributes a miss to the library-side taxonomy counters.
func (tx *Tx) countMiss(kind cacheserver.MissKind) {
	switch kind {
	case cacheserver.MissCompulsory:
		tx.c.stats.MissCompulsory.Add(1)
	case cacheserver.MissConsistency:
		tx.c.stats.MissConsistency.Add(1)
	case cacheserver.MissCapacity:
		tx.c.stats.MissCapacity.Add(1)
	default:
		tx.c.stats.MissStaleness.Add(1)
	}
}

// accept applies the consistency checks to a found cache result and, if it
// passes, observes it (narrowing the pin set) and returns its data.
func (tx *Tx) accept(r cacheserver.LookupResult) ([]byte, bool) {
	if !tx.c.noCon {
		// Once a database snapshot is reified, every accepted value must be
		// valid at it (paper §6.2: the transaction now runs at a specific
		// timestamp). The lookup already sent [dbSnap, dbSnap] bounds, but
		// the reply is a node's word, from outside the process: it is
		// checked, not trusted.
		if tx.dbSnap != 0 && !r.Validity.Contains(tx.dbSnap) {
			tx.c.stats.MissDefensive.Add(1)
			return nil, false
		}
		// Defensive invariant-2 check: the returned interval must leave at
		// least one serialization point. The paper's proof guarantees this
		// when the generating snapshot is still pinned and fresh; under
		// pin-expiry races we reject the value rather than violate
		// consistency. Until a database session pins dbSnap, a candidate
		// counts only within the staleness bound: past it the pincushion may
		// have swept it, and vacuum may have reclaimed versions only it could
		// see, which leaves cached intervals too wide there (DESIGN.md
		// "Vacuum by the pin set").
		var oldest time.Time
		if tx.dbSnap == 0 {
			oldest = tx.c.clk.Now().Add(-tx.staleness)
		}
		any := false
		for _, p := range tx.pinSet {
			if r.Validity.Contains(p.TS) && !p.Wall.Before(oldest) {
				any = true
				break
			}
		}
		if !any {
			tx.c.stats.MissDefensive.Add(1)
			return nil, false
		}
	}
	tx.c.stats.CacheHits.Add(1)
	tx.observe(r.Validity, r.Tags, r.Still)
	return r.Data, true
}

// put installs a computed result as far as it was proven. An open frame —
// nothing the function saw had ended — becomes a still-valid entry from
// proven.Lo on, under the tags of every query the function made and of every
// still-valid cache hit it used, nested cacheable calls included (§6.3), and
// genSnap = proven.Hi-1 is the promise that goes with them: no invalidation
// at or below it matches any of the tags, so the node replays everything
// after it. A frame that is not open is history exactly on proven — a
// dependency that had ended bounds it, and so does the last timestamp any
// other dependency was checked at — and history needs no tags.
// The responsible node is resolved at install time, not lookup time, so
// after a membership change the entry lands on the key's current owner.
func (tx *Tx) put(key string, data []byte, f *frame) {
	if f.proven.Empty() {
		return // conservative tracking produced nothing usable
	}
	node := tx.c.node(key)
	if node == nil {
		return // cluster emptied while we computed
	}
	iv := f.proven
	var tags []invalidation.TagID
	if f.open {
		iv.Hi = interval.Infinity
		tags = make([]invalidation.TagID, 0, len(f.tags))
		for t := range f.tags {
			tags = append(tags, t)
		}
	}
	tx.c.stats.CachePuts.Add(1)
	node.Put(key, data, iv, f.open, f.proven.Hi-1, tags)
}

// String renders a human-readable description of the transaction state for
// debugging ("pins [3 7 9] ★" style).
func (tx *Tx) String() string {
	var b strings.Builder
	mode := "RO"
	if tx.rw {
		mode = "RW"
	}
	fmt.Fprintf(&b, "Tx{%s pins=[", mode)
	for i, p := range tx.pinSet {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.TS.String())
	}
	b.WriteByte(']')
	if tx.star {
		b.WriteString(" ★")
	}
	if tx.dbSnap != 0 {
		fmt.Fprintf(&b, " @%s", tx.dbSnap)
	}
	b.WriteByte('}')
	return b.String()
}
