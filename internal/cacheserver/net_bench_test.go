package cacheserver

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// benchRig starts a TCP-served cache node preloaded with still-valid
// entries and returns a connected client.
func benchRig(b *testing.B, keys int) (*Client, func()) {
	b.Helper()
	s := New(Config{})
	s.ApplyInvalidation(invalidation.Message{TS: 1 << 20, WallTime: time.Now()})
	payload := make([]byte, 256)
	for i := 0; i < keys; i++ {
		s.Put(fmt.Sprintf("key-%d", i), payload,
			interval.Interval{Lo: interval.Timestamp(i + 1), Hi: interval.Infinity}, true,
			interval.Timestamp(i+1), ids([]invalidation.Tag{invalidation.KeyTag("t", "id", fmt.Sprint(i))}))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	c, err := Dial(l.Addr().String(), 0)
	if err != nil {
		l.Close()
		b.Fatal(err)
	}
	return c, func() { c.Close(); l.Close() }
}

// BenchmarkCacheLookupTCP measures cache lookups over TCP: sequential
// lookups on one goroutine and pipelined lookups from parallel goroutines.
func BenchmarkCacheLookupTCP(b *testing.B) {
	const keys = 4096
	b.Run("single", func(b *testing.B) {
		c, stop := benchRig(b, keys)
		defer stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := c.Lookup(context.Background(), fmt.Sprintf("key-%d", i%keys), 1<<19, 1<<21, 0, interval.Infinity)
			if !r.Found {
				b.Fatalf("miss at %d", i)
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		c, stop := benchRig(b, keys)
		defer stop()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				r := c.Lookup(context.Background(), fmt.Sprintf("key-%d", i%keys), 1<<19, 1<<21, 0, interval.Infinity)
				if !r.Found {
					b.Fatalf("miss at %d", i)
				}
				i++
			}
		})
	})
}
