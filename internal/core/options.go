package core

import (
	"time"

	"txcache/internal/interval"
)

// TxOption configures one transaction started by Client.Begin (and the
// closure runners Client.ReadOnly / Client.ReadWrite, which accept the same
// options). The zero configuration is a read-only transaction at the
// client's default staleness limit, using the cache.
type TxOption func(*txOptions)

// txOptions is the resolved option set of one Begin call.
type txOptions struct {
	staleness time.Duration
	minTS     interval.Timestamp
	hasMinTS  bool
	rw        bool
	noCache   bool
}

// defaultStaleness is the staleness limit Begin applies when no
// WithStaleness option is given: the paper's standard setting.
const defaultStaleness = 30 * time.Second

// WithStaleness bounds how stale the read-only transaction's snapshot may
// be (paper §2.2's BEGIN-RO staleness argument). Without this option
// defaultStaleness applies. Read/write transactions always run on the
// latest state; the option is ignored for them.
func WithStaleness(d time.Duration) TxOption {
	return func(o *txOptions) { o.staleness = d }
}

// WithMinTimestamp additionally guarantees the snapshot is no older than
// ts. Applications thread the timestamp returned by a Commit into the next
// transaction so a user session never observes time moving backwards
// (paper §2.2's session causality).
func WithMinTimestamp(ts interval.Timestamp) TxOption {
	return func(o *txOptions) { o.minTS, o.hasMinTS = ts, true }
}

// WithReadWrite makes the transaction read/write: it runs directly on the
// latest database state, bypassing the cache entirely, so TxCache
// introduces no new anomalies (paper §2.2).
func WithReadWrite() TxOption {
	return func(o *txOptions) { o.rw = true }
}

// withReadOnly forces a read-only transaction; the ReadOnly runner applies
// it last so a stray WithReadWrite in its option list cannot flip the mode.
func withReadOnly() TxOption {
	return func(o *txOptions) { o.rw = false }
}

// WithoutCache runs a read-only transaction with the cache disabled:
// cacheable calls execute directly against the database and install
// nothing. Consistency guarantees are unchanged (the transaction still
// runs at one snapshot); use it to bypass a cold or misbehaving cluster,
// or to measure the no-cache baseline per request instead of per client.
func WithoutCache() TxOption {
	return func(o *txOptions) { o.noCache = true }
}
