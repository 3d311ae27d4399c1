package rpc

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"
)

// echoBody is the body both round-trip benchmarks carry.
var echoBody = []byte("round trip")

// BenchmarkCallRoundTrip is one echo through Client.Call over loopback TCP:
// encode, the lease, the write, the caller's own read of the reply and the
// serve loop. BenchmarkRawRoundTrip is the floor beneath it.
func BenchmarkCallRoundTrip(b *testing.B) {
	c := dial(b, startDaemon(b, new(service).handle).addr, 1, 5*time.Second)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if op, _, err := c.Call(ctx, NewFrame(opEcho).Raw(echoBody)); err != nil || op != opEchoed {
			b.Fatalf("echo: opcode %d, %v", op, err)
		}
	}
}

// BenchmarkRawRoundTrip is the same bytes over one loopback socket pair with
// no transport at all: a write, an echoing peer, then ReadFull on the writer.
func BenchmarkRawRoundTrip(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(conn, conn)
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	var frame bytes.Buffer
	if err := NewFrame(opEcho).Raw(echoBody).WriteFrame(&frame); err != nil {
		b.Fatal(err)
	}
	msg := frame.Bytes()
	buf := make([]byte, len(msg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			b.Fatal(err)
		}
	}
}
