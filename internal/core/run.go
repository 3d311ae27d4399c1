package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"txcache/internal/interval"
)

// ReadOnly begins a read-only transaction, runs fn inside it, and commits,
// returning the timestamp the transaction ran at. The transaction is
// finished on every exit path — an fn error, a panic, or a cancelled
// context all abort it, releasing its pins and database snapshot — so
// callers can never leak one. fn must use the provided transaction and must
// not Commit or Abort it itself.
func (c *Client) ReadOnly(ctx context.Context, fn func(*Tx) error, opts ...TxOption) (interval.Timestamp, error) {
	return c.runTx(ctx, fn, append(cloneOpts(opts), withReadOnly()))
}

// rwRetries bounds how many times ReadWrite re-runs its closure after a
// serialization conflict before giving up and returning ErrSerialization.
const rwRetries = 5

// ReadWrite begins a read/write transaction, runs fn inside it, and
// commits, returning the new commit timestamp (which applications thread
// into a later transaction's WithMinTimestamp for session causality). Like
// ReadOnly it finishes the transaction on every exit path. When Commit
// fails with a serialization conflict the whole closure is re-run — fn must
// therefore be safe to execute more than once — up to rwRetries times with a
// short growing backoff, the standard client idiom under
// snapshot isolation; conflicts beyond the bound surface as
// ErrSerialization.
func (c *Client) ReadWrite(ctx context.Context, fn func(*Tx) error, opts ...TxOption) (interval.Timestamp, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	all := append(cloneOpts(opts), WithReadWrite())
	for attempt := 0; ; attempt++ {
		ts, err := c.runTx(ctx, fn, all)
		if err == nil || !errors.Is(err, ErrSerialization) || attempt >= rwRetries {
			return ts, err
		}
		select {
		case <-time.After(time.Duration(attempt+1) * 100 * time.Microsecond):
		case <-ctx.Done():
			return 0, fmt.Errorf("txcache: %w", ctx.Err())
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
