package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Target executes one request against the system under test. worker is the
// stable index of the simulated user issuing the request; implementations
// key per-session state (connections, churn counters) off it. Do must
// observe ctx's deadline.
type Target interface {
	Do(ctx context.Context, rng *rand.Rand, worker int) error
}

// ErrShed marks a request the server rejected by load shedding (HTTP 503
// with the shed marker). The driver counts these separately from errors:
// shedding under overload is the server working as designed, not a bug.
var ErrShed = errors.New("loadgen: request shed by server")

// Config drives an open-loop run.
type Config struct {
	// Schedule is the arrival process (required).
	Schedule Schedule
	// Duration is how long arrivals are generated. Requests in flight when
	// the schedule ends are allowed to finish and are recorded.
	Duration time.Duration
	// Warmup discards observations whose intended send time falls before
	// this offset: caches fill and connections establish during warmup, and
	// mixing that transient into the percentiles would flatter nobody.
	Warmup time.Duration
	// Workers is the number of concurrent simulated users (default 256).
	// Each holds its own connection to the target; this bounds concurrency
	// like a real user population does, while the *schedule* stays open
	// loop: an arrival whose turn comes while all users are busy waits in
	// the dispatch queue with its intended timestamp intact, and its
	// eventual latency includes that wait.
	Workers int
	// Timeout bounds each request (default 5s), measured from actual
	// dispatch. A timed-out request records its true latency from intended
	// send time and counts in Timeouts.
	Timeout time.Duration
	// QueueCap bounds the dispatch backlog (default 1<<16). Arrivals beyond
	// it are counted in Dropped — reported loudly, never silently
	// discarded — and mean the offered load outran the harness itself.
	QueueCap int
	// Seed makes the schedule and every worker's request stream repeatable.
	Seed int64
	// Ctx, when set, aborts the run early when cancelled.
	Ctx context.Context
}

// Result reports one run.
type Result struct {
	// Intended measures latency from each request's scheduled send time:
	// queueing delay inside the harness and the server both count. This is
	// the open-loop, coordinated-omission-free series — the one to publish.
	Intended Hist
	// Service measures latency from actual dispatch (the moment a worker
	// picked the request up): the view a closed-loop driver would report.
	// The gap between Service and Intended percentiles is the magnitude of
	// coordinated omission.
	Service Hist

	Sent      uint64 // arrivals dispatched to workers (post-warmup)
	Completed uint64 // requests that finished without error
	Errors    uint64 // requests that failed (excluding sheds and timeouts)
	Sheds     uint64 // requests the server rejected via load shedding (ErrShed)
	Timeouts  uint64 // requests that hit Config.Timeout
	Dropped   uint64 // arrivals discarded because the dispatch queue was full
	Elapsed   time.Duration
	Nominal   float64 // the schedule's nominal rate, for reporting
}

// Throughput returns completed requests per second of measured run time.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// String renders the headline row.
func (r *Result) String() string {
	return fmt.Sprintf("%.0f req/s (nominal %.0f): intended %v | service %v | errors=%d sheds=%d timeouts=%d dropped=%d",
		r.Throughput(), r.Nominal, r.Intended.Summarize(), r.Service.Summarize(),
		r.Errors, r.Sheds, r.Timeouts, r.Dropped)
}

// job is one scheduled arrival: the offset from run start at which it was
// supposed to be sent. The intended timestamp travels with the job so that
// however long it waits for a free worker, its latency is measured from the
// schedule, not from dispatch.
type job struct {
	intended time.Duration
}

// Run drives an open-loop load test: a dispatcher thread walks the arrival
// schedule in real time and enqueues jobs; Workers simulated users execute
// them. Latency is recorded from intended send time, so a stall anywhere in
// the pipeline — server, network, or a saturated worker pool — is charged
// to every request it delayed.
func Run(target Target, cfg Config) *Result {
	if cfg.Workers <= 0 {
		cfg.Workers = 256
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1 << 16
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{Nominal: cfg.Schedule.Rate()}
	var sent, completed, errs, sheds, timeouts, dropped atomic.Uint64

	jobs := make(chan job, cfg.QueueCap)
	var wg sync.WaitGroup
	start := time.Now()

	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 7919*int64(w) + 1))
			for j := range jobs {
				record := j.intended >= cfg.Warmup
				if record {
					sent.Add(1)
				}
				dispatched := time.Now()
				rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
				err := target.Do(rctx, rng, w)
				cancel()
				end := time.Now()
				if record {
					res.Intended.Record(end.Sub(start.Add(j.intended)))
					res.Service.Record(end.Sub(dispatched))
					switch {
					case err == nil:
						completed.Add(1)
					case errors.Is(err, ErrShed):
						sheds.Add(1)
					case errors.Is(err, context.DeadlineExceeded):
						timeouts.Add(1)
					default:
						errs.Add(1)
					}
				}
			}
		}(w)
	}

	// Dispatcher: generate arrivals in schedule time. time.Sleep wakes at
	// millisecond-ish granularity; at high rates many arrivals mature per
	// wake and are enqueued back to back with their distinct intended
	// timestamps — which is exactly what the latency math needs.
	rng := rand.New(rand.NewSource(cfg.Seed))
	next := time.Duration(0)
dispatch:
	for next < cfg.Duration {
		next += cfg.Schedule.Interarrival(rng, next)
		if next >= cfg.Duration {
			break
		}
		if ahead := next - time.Since(start); ahead > 0 {
			select {
			case <-time.After(ahead):
			case <-ctx.Done():
				break dispatch
			}
		}
		select {
		case jobs <- job{intended: next}:
		default:
			if next >= cfg.Warmup {
				dropped.Add(1)
			}
		}
	}
	close(jobs)
	wg.Wait()

	res.Sent = sent.Load()
	res.Completed = completed.Load()
	res.Errors = errs.Load()
	res.Sheds = sheds.Load()
	res.Timeouts = timeouts.Load()
	res.Dropped = dropped.Load()
	res.Elapsed = time.Since(start) - cfg.Warmup
	if res.Elapsed < 0 {
		res.Elapsed = 0
	}
	return res
}
