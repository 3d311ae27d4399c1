package consistent

import (
	"fmt"
	"testing"
)

func TestEmptyRing(t *testing.T) {
	r := New(0)
	if got := r.Get("anything"); got != "" {
		t.Fatalf("empty ring Get = %q", got)
	}
}

func TestSingleNode(t *testing.T) {
	r := New(0)
	r.Add("cache1")
	for i := 0; i < 100; i++ {
		if got := r.Get(fmt.Sprintf("key%d", i)); got != "cache1" {
			t.Fatalf("Get = %q, want cache1", got)
		}
	}
}

func TestDeterministic(t *testing.T) {
	r1, r2 := New(0), New(0)
	for _, n := range []string{"a", "b", "c"} {
		r1.Add(n)
		r2.Add(n)
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%d", i)
		if r1.Get(k) != r2.Get(k) {
			t.Fatalf("rings disagree on %q", k)
		}
	}
}

func TestBalance(t *testing.T) {
	r := New(0)
	nodes := []string{"n1", "n2", "n3", "n4"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.Get(fmt.Sprintf("key-%d", i))]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 0.10 || share > 0.45 {
			t.Errorf("node %s has share %.2f, want roughly 0.25", n, share)
		}
	}
}

// TestMinimalRemapping verifies the defining property of consistent hashing:
// adding a fifth node to four moves keys only onto the new node, and about
// a fifth of them.
func TestMinimalRemapping(t *testing.T) {
	r := New(0)
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		r.Add(n)
	}
	const keys = 5000
	before := make([]string, keys)
	for i := 0; i < keys; i++ {
		before[i] = r.Get(fmt.Sprintf("key-%d", i))
	}
	r.Add("n5")
	moved := 0
	for i := 0; i < keys; i++ {
		after := r.Get(fmt.Sprintf("key-%d", i))
		if after == before[i] {
			continue
		}
		if after != "n5" {
			t.Fatalf("key-%d moved from %s to %s though only n5 was added", i, before[i], after)
		}
		moved++
	}
	if share := float64(moved) / keys; share < 0.10 || share > 0.30 {
		t.Fatalf("%d of %d keys (%.2f) moved onto n5, want about 0.20", moved, keys, share)
	}
}
