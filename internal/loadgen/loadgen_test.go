package loadgen

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// stallTarget answers instantly except for one request, which sleeps for a
// fixed stall — a synthetic server hiccup at a known point in the schedule.
type stallTarget struct {
	mu      sync.Mutex
	n       int
	stallAt int           // 1-based request ordinal that stalls
	stall   time.Duration // how long it stalls
}

func (t *stallTarget) Do(ctx context.Context, _ *rand.Rand, _ int) error {
	t.mu.Lock()
	t.n++
	hit := t.n == t.stallAt
	t.mu.Unlock()
	if hit {
		select {
		case <-time.After(t.stall):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// TestOpenLoopSeesStall is the coordinated-omission property test: a uniform
// 1000/s schedule is driven through a single worker, and one request stalls
// for 400ms. Every arrival scheduled during the stall queues behind it, so an
// honest recorder must show a fat tail: roughly 40% of requests were delayed,
// ~10% of them by more than 300ms. A closed-loop recorder would log exactly
// ONE slow sample (the stalled request itself) and report a clean p90 — which
// is what Service (latency from dispatch) shows, and the gap between the two
// histograms over identical requests is the proof.
func TestOpenLoopSeesStall(t *testing.T) {
	target := &stallTarget{stallAt: 100, stall: 400 * time.Millisecond}
	res := Run(target, Config{
		Schedule: Uniform{PerSec: 1000},
		Duration: time.Second,
		Workers:  1, // serialize, so the stall visibly queues the schedule
		Timeout:  5 * time.Second,
		Seed:     42,
	})

	if res.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 (queue cap must hold a 1s backlog)", res.Dropped)
	}
	if res.Errors != 0 || res.Timeouts != 0 {
		t.Fatalf("errors=%d timeouts=%d, want 0", res.Errors, res.Timeouts)
	}
	if res.Sent < 900 {
		t.Fatalf("Sent = %d, want ≈999 (uniform 1000/s over 1s)", res.Sent)
	}

	intended := res.Intended.Summarize()
	service := res.Service.Summarize()
	t.Logf("intended: %v", intended)
	t.Logf("service:  %v", service)

	// The honest series must reflect the stall far down the distribution:
	// arrivals in the first quarter of the stall window waited ≥300ms, and
	// they alone are ~10% of the run.
	if intended.P999 < 300*time.Millisecond {
		t.Errorf("intended p999 = %v, want ≥300ms: the recorder omitted the stall", intended.P999)
	}
	if intended.P90 < 80*time.Millisecond {
		t.Errorf("intended p90 = %v, want ≥80ms: ~40%% of arrivals queued behind the stall", intended.P90)
	}
	// The dispatch-time series — what a closed-loop driver reports — sees the
	// same requests but charges the queueing to nobody: its median stays tiny.
	if service.P50 > 20*time.Millisecond {
		t.Errorf("service p50 = %v, want ≤20ms: only ONE request actually ran slow", service.P50)
	}
	// And the gap between the two IS coordinated omission, quantified.
	if intended.P90 < 4*service.P50+50*time.Millisecond {
		t.Errorf("no omission gap: intended p90 %v vs service p50 %v", intended.P90, service.P50)
	}
}

// TestRunWarmupFilter checks that observations scheduled before the warmup
// offset are excluded from the histograms and counters.
func TestRunWarmupFilter(t *testing.T) {
	target := &stallTarget{} // no stall: every request instant
	res := Run(target, Config{
		Schedule: Uniform{PerSec: 500},
		Duration: 600 * time.Millisecond,
		Warmup:   300 * time.Millisecond,
		Workers:  4,
		Seed:     1,
	})
	// 500/s over [300ms, 600ms) is ~150 arrivals.
	if res.Sent < 100 || res.Sent > 200 {
		t.Errorf("Sent = %d, want ≈150 post-warmup arrivals", res.Sent)
	}
	if res.Intended.Count() != res.Sent {
		t.Errorf("histogram holds %d samples, Sent = %d", res.Intended.Count(), res.Sent)
	}
	if res.Completed != res.Sent {
		t.Errorf("Completed = %d, want %d", res.Completed, res.Sent)
	}
}

// TestRunCancel checks the run aborts promptly when its context is cancelled.
func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	target := &stallTarget{}
	done := make(chan *Result, 1)
	go func() {
		done <- Run(target, Config{
			Schedule: Uniform{PerSec: 100},
			Duration: time.Hour, // would run forever without the cancel
			Workers:  2,
			Seed:     1,
			Ctx:      ctx,
		})
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5s of cancellation")
	}
}
