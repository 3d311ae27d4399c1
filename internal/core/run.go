package core

import (
	"context"
	"errors"

	"txcache/internal/interval"
)

// ReadOnly begins a read-only transaction, runs fn inside it, and commits,
// returning the timestamp the transaction ran at. The transaction is
// finished on every exit path — an fn error, a panic, or a cancelled
// context all abort it, releasing its pins and database snapshot — so
// callers can never leak one. fn must use the provided transaction and must
// not Commit or Abort it itself. When the pinned snapshot the transaction
// chose was swept before its first statement (db.ErrNotPinned, an
// ErrSerialization) the whole closure is re-run, as ReadWrite re-runs one
// after a conflict, so fn must be safe to execute more than once.
func (c *Client) ReadOnly(ctx context.Context, fn func(*Tx) error, opts ...TxOption) (interval.Timestamp, error) {
	return c.retry(ctx, fn, append(cloneOpts(opts), withReadOnly()))
}

// maxRetries bounds how many times ReadWrite and ReadOnly re-run their
// closure after a serialization failure before giving up and returning
// ErrSerialization.
const maxRetries = 5

// ReadWrite begins a read/write transaction, runs fn inside it, and
// commits, returning the new commit timestamp (which applications thread
// into a later transaction's WithMinTimestamp for session causality). Like
// ReadOnly it finishes the transaction on every exit path. When Commit
// fails with a serialization conflict the whole closure is re-run — fn must
// therefore be safe to execute more than once — up to maxRetries times,
// the standard client idiom under snapshot isolation; conflicts beyond the
// bound surface as ErrSerialization.
func (c *Client) ReadWrite(ctx context.Context, fn func(*Tx) error, opts ...TxOption) (interval.Timestamp, error) {
	return c.retry(ctx, fn, append(cloneOpts(opts), WithReadWrite()))
}

// retry runs runTx until it ends in anything but ErrSerialization, at most
// maxRetries times more. It retries at once: the database returns a
// conflict only once the winning commit is visible, so the next attempt
// begins past it, and a cancelled ctx ends the next Begin.
func (c *Client) retry(ctx context.Context, fn func(*Tx) error, opts []TxOption) (interval.Timestamp, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for attempt := 0; ; attempt++ {
		ts, err := c.runTx(ctx, fn, opts)
		if err == nil || !errors.Is(err, ErrSerialization) || attempt >= maxRetries {
			return ts, err
		}
	}
}

// runTx is the shared runner body: begin, run, commit, with an abort on
// every other exit path (error, panic).
func (c *Client) runTx(ctx context.Context, fn func(*Tx) error, opts []TxOption) (ts interval.Timestamp, err error) {
	tx, err := c.Begin(ctx, opts...)
	if err != nil {
		return 0, err
	}
	defer func() {
		// Abort is a no-op once the transaction committed; on an fn error,
		// a Commit error, or a panic it releases pins and the snapshot.
		tx.Abort()
	}()
	if err = fn(tx); err != nil {
		return 0, err
	}
	return tx.Commit()
}

// cloneOpts copies the caller's option slice so appending the mode option
// can never scribble on a shared backing array.
func cloneOpts(opts []TxOption) []TxOption {
	out := make([]TxOption, 0, len(opts)+1)
	return append(out, opts...)
}
