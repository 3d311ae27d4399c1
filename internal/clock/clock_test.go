package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealClockMonotonicEnough(t *testing.T) {
	var c Real
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestVirtualAdvance(t *testing.T) {
	var v Virtual
	start := v.Now()
	v.Advance(5 * time.Second)
	if got := v.Now().Sub(start); got != 5*time.Second {
		t.Fatalf("advance: got %v, want 5s", got)
	}
	v.Advance(-time.Hour) // ignored
	if got := v.Now().Sub(start); got != 5*time.Second {
		t.Fatalf("negative advance should be ignored, got %v", got)
	}
}

func TestVirtualZeroValueSafeForStaleness(t *testing.T) {
	var v Virtual
	if v.Now().Add(-30 * time.Second).Before(time.Unix(0, 0)) {
		t.Fatal("zero-value virtual clock must leave headroom for staleness subtraction")
	}
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	var v Virtual
	start := v.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := v.Now().Sub(start); got != 8*1000*time.Millisecond {
		t.Fatalf("concurrent advance lost updates: %v", got)
	}
}
