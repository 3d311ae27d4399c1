package core

import (
	"context"
	"time"

	"txcache/internal/interval"
	"txcache/internal/pincushion"
)

// leaseTermDivisor sets the lease term as a fraction of FreshPinThreshold,
// the one tolerance for pin age the library already has: a pin another
// client placed is seen at most a tenth of that threshold late (500 ms at
// the default 5 s), which moves the ★ decision of ensureDBTx by no more.
const leaseTermDivisor = 10

// pinLease is the result of one GetPins, held in use at the pincushion on
// behalf of every read-only transaction the client begins while it is
// current (DESIGN.md "Pin-set lease"). The pincushion counted one use per
// pin when it answered; the lease gives them back with one Release once it
// has been retired and the last transaction begun on it has ended.
//
// pins is immutable after the fetch (transactions copy it); everything else
// is guarded by Client.leaseMu.
type pinLease struct {
	pins      []pincushion.Pin // ascending by timestamp, as GetPins returned them
	staleness time.Duration    // the bound it was fetched with
	fetched   time.Time        // client clock, taken before the request went out
	refs      int              // running transactions begun on this lease
	retired   bool             // no longer current: released when refs reaches zero
	idle      *time.Timer      // retires the lease one term after the fetch
}

// acquireLease returns a lease whose pins cover staleness, holding one
// reference for the caller's transaction, and the client-clock reading the
// caller filters pin ages against. It asks the pincushion only when the
// current lease is older than its term or was fetched with a smaller bound;
// concurrent callers wait for one fetch instead of each making their own. A
// nil lease means the pincushion had nothing to offer (no fresh pins, daemon
// down, cancelled ctx — GetPins cannot tell them apart); that answer is
// never kept, so the next Begin asks again.
func (c *Client) acquireLease(ctx context.Context, staleness time.Duration) (*pinLease, time.Time) {
	for {
		c.leaseMu.Lock()
		now := c.clk.Now()
		if l := c.lease; l != nil && l.staleness >= staleness && now.Sub(l.fetched) < c.leaseTerm {
			l.refs++
			c.leaseMu.Unlock()
			c.stats.LeasedBegins.Add(1)
			return l, now
		}
		if inFlight := c.fetching; inFlight != nil {
			c.leaseMu.Unlock()
			select {
			case <-inFlight:
				continue
			case <-ctx.Done():
				return nil, now
			}
		}
		fetched := make(chan struct{})
		c.fetching = fetched
		c.leaseMu.Unlock()

		// No lock is held across the round trip: transactions ending, and
		// waiters whose context expires, never queue behind the daemon.
		pins := c.pc.GetPins(ctx, staleness)

		c.leaseMu.Lock()
		c.fetching = nil
		close(fetched)
		if len(pins) == 0 {
			c.leaseMu.Unlock()
			c.stats.PinFetchEmpty.Add(1)
			return nil, now
		}
		l := &pinLease{pins: pins, staleness: staleness, fetched: now, refs: 1}
		l.idle = time.AfterFunc(c.leaseTerm, func() { c.endLease(l) })
		superseded := c.retireLocked(c.lease)
		c.lease = l
		c.leaseMu.Unlock()
		c.stats.LeaseFetches.Add(1)
		c.releaseLease(superseded)
		return l, now
	}
}

// dropLease gives back one transaction's reference, if it holds one. The
// last transaction off a retired lease sends its Release; a long transaction
// keeps the uses of the lease it began on, not of whichever is current.
func (c *Client) dropLease(l *pinLease) {
	if l == nil {
		return
	}
	c.leaseMu.Lock()
	l.refs--
	last := l.retired && l.refs == 0
	c.leaseMu.Unlock()
	if last {
		c.releaseLease(l)
	}
}

// endLease retires l — the current lease when l is nil — so the next Begin
// fetches afresh. Its callers are the idle timer (a quiet client must not
// hold the vacuum horizon past one term), takeStar after registering a ★
// pin the lease cannot contain, and Close.
func (c *Client) endLease(l *pinLease) {
	c.leaseMu.Lock()
	if l == nil {
		l = c.lease
	}
	unused := c.retireLocked(l)
	c.leaseMu.Unlock()
	c.releaseLease(unused)
}

// retireLocked marks l no longer current and returns it if no transaction
// holds it, in which case the caller must releaseLease it after unlocking;
// otherwise dropLease will. Retiring twice is a no-op, which is what makes
// the Release exactly-once.
func (c *Client) retireLocked(l *pinLease) *pinLease {
	if l == nil || l.retired {
		return nil
	}
	l.retired = true
	l.idle.Stop()
	if c.lease == l {
		c.lease = nil
	}
	if l.refs > 0 {
		return nil
	}
	return l
}

// releaseLease returns a lease's uses to the pincushion; nil is a no-op.
func (c *Client) releaseLease(l *pinLease) {
	if l == nil {
		return
	}
	tss := make([]interval.Timestamp, len(l.pins))
	for i, p := range l.pins {
		tss[i] = p.TS
	}
	c.pc.Release(tss)
}
