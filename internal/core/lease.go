package core

import (
	"context"
	"time"

	"txcache/internal/pincushion"
)

// leaseTermDivisor sets the lease term as a fraction of FreshPinThreshold,
// the one tolerance for pin age the library already has: a pin another
// client placed is seen at most a tenth of that threshold late (500 ms at
// the default 5 s), which moves the ★ decision of ensureDBTx by no more.
const leaseTermDivisor = 10

// pinLease is the result of one GetPins, reused by every read-only
// transaction the client begins within one term of the fetch (DESIGN.md
// "Pin-set lease"). It is a cached answer and nothing more: the pincushion
// counts no uses, so there is nothing to give back when it expires. A
// snapshot the pincushion sweeps before a transaction's first statement
// fails that statement with db.ErrNotPinned, which ReadOnly retries.
//
// A lease is immutable once fetched; Client.leaseMu guards which one is
// current.
type pinLease struct {
	pins      []pincushion.Pin // ascending by timestamp, as GetPins returned them
	staleness time.Duration    // the bound it was fetched with
	fetched   time.Time        // client clock, taken before the request went out
}

// acquireLease returns a lease whose pins cover staleness and the
// client-clock reading the caller filters pin ages against. It asks the
// pincushion only when the current lease is older than its term or was
// fetched with a smaller bound; concurrent callers wait for one fetch
// instead of each making their own. A nil lease means the pincushion had
// nothing to offer (no fresh pins, daemon down, cancelled ctx — GetPins
// cannot tell them apart); that answer is never kept, so the next Begin
// asks again.
func (c *Client) acquireLease(ctx context.Context, staleness time.Duration) (*pinLease, time.Time) {
	for {
		c.leaseMu.Lock()
		now := c.clk.Now()
		if l := c.lease; l != nil && l.staleness >= staleness && now.Sub(l.fetched) < c.leaseTerm {
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

		// No lock is held across the round trip: waiters whose context
		// expires never queue behind the daemon.
		pins := c.pc.GetPins(ctx, staleness)

		c.leaseMu.Lock()
		c.fetching = nil
		close(fetched)
		if len(pins) == 0 {
			c.leaseMu.Unlock()
			c.stats.PinFetchEmpty.Add(1)
			return nil, now
		}
		l := &pinLease{pins: pins, staleness: staleness, fetched: now}
		c.lease = l
		c.leaseMu.Unlock()
		c.stats.LeaseFetches.Add(1)
		return l, now
	}
}

// endLease drops the current lease, so the next Begin fetches afresh.
func (c *Client) endLease() {
	c.leaseMu.Lock()
	c.lease = nil
	c.leaseMu.Unlock()
}
