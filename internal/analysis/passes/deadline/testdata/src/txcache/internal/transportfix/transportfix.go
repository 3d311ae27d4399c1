package transportfix

import (
	"context"
	"net"
	"os"
	"time"

	"txcache/internal/wire"
)

// A package outside internal/rpc growing its own transport: each way in
// is a finding, bounded or not.
func dial(ctx context.Context, addr string) (net.Conn, error) {
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil { // want "a dial outside internal/rpc"
		return c, nil
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr) // want "a dial outside internal/rpc"
}

// An unbounded dial out here is one finding, not two.
func dialUnbounded(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr) // want "a dial outside internal/rpc"
}

func serve(l net.Listener) error {
	for {
		c, err := l.Accept() // want "an accept outside internal/rpc"
		if err != nil {
			return err
		}
		_ = c.SetReadDeadline(time.Now().Add(time.Second)) // want "a connection deadline outside internal/rpc"
		_ = wire.NewFrameReader(c)                         // want "a frame reader outside internal/rpc"
		c.Close()
	}
}

// Clean: a listener's address and a file's deadline are neither.
func clean(f *os.File, l net.Listener) net.Addr {
	_ = f.SetDeadline(time.Now())
	return l.Addr()
}
