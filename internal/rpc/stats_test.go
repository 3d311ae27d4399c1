package rpc_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/rpc"
	"txcache/internal/wire"
)

// stats_test.go covers OpStats across the three services that answer it:
// a counter leaves a process one way, its service's Stats() as JSON, and
// what comes off the wire is what the process holds.

// statsService is one service behind a loopback listener, started with
// its counters moved by traffic that has finished.
type statsService struct {
	addr string
	// check decodes an OpStats reply and holds it to the in-process Stats().
	check func(t *testing.T, blob json.RawMessage)
	// work is one unit of client traffic that moves the counters, safe for
	// concurrent use. Some of it is one-way, so it may land after it returns.
	work func(t *testing.T)
}

// serveOn serves on a loopback listener for the test's lifetime.
func serveOn(t *testing.T, serve func(net.Listener) error) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go serve(l)
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// sameStats decodes blob and fails unless it equals want.
func sameStats[S comparable](t *testing.T, blob json.RawMessage, want S) S {
	t.Helper()
	var got S
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatalf("stats reply %s: %v", blob, err)
	}
	if got != want {
		t.Fatalf("stats over the wire\n%+v\nin process\n%+v", got, want)
	}
	return got
}

// startCache serves a node whose history no longer reaches back to a put's
// generating snapshot, so FloorClosed and Horizon both have something to say.
func startCache(t *testing.T) statsService {
	s := cacheserver.New(cacheserver.Config{HistoryLen: 4})
	for ts := interval.Timestamp(10); ts <= 30; ts += 2 {
		s.ApplyInvalidation(invalidation.Message{TS: ts, WallTime: time.Unix(int64(ts), 0)})
	}
	tags := []invalidation.TagID{invalidation.Intern(invalidation.KeyTag("t", "id", "1"))}
	s.Put("k", []byte("v"), interval.Interval{Lo: 5, Hi: interval.Infinity}, true, 10, tags)
	s.Lookup(context.Background(), "k", 5, 30, 5, 30)
	addr := serveOn(t, s.Serve)
	cl, err := cacheserver.Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	var n atomic.Int64
	return statsService{
		addr: addr,
		check: func(t *testing.T, blob json.RawMessage) {
			st := sameStats(t, blob, s.Stats())
			if st.FloorClosed != 1 || st.Horizon != 30 || st.Lookups == 0 {
				t.Fatalf("node stats %+v: want FloorClosed 1, Horizon 30 and lookups", st)
			}
			if typed := cl.Stats(); typed != st {
				t.Fatalf("Client.Stats() = %+v, want %+v", typed, st)
			}
		},
		work: func(t *testing.T) {
			if r := cl.Lookup(context.Background(), "k", 5, 30, 5, 30); !r.Found {
				t.Errorf("lookup missed: %+v", r)
			}
			cl.Put(fmt.Sprint("p", n.Add(1)), []byte("v"), interval.Interval{Lo: 30, Hi: 31}, false, 0, nil)
		},
	}
}

// startDB serves a durable engine on its second boot, so its recovery
// report is not the zero value.
func startDB(t *testing.T) statsService {
	opts := db.Options{Durability: &db.DurabilityOptions{Dir: t.TempDir()}}
	e, _, err := db.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DDL(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	tx, err := e.BeginTx(context.Background(), false, 0)
	if err == nil {
		_, err = tx.Exec("INSERT INTO kv (k, v) VALUES (0, 0)")
	}
	if err == nil {
		_, err = tx.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, info, err := db.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	srv := &dbnet.Server{Engine: e}
	addr := serveOn(t, srv.Serve)
	cl, err := dbnet.Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	var n atomic.Int64
	work := func(t *testing.T) {
		tx, err := cl.Begin(context.Background(), false, 0)
		if err == nil {
			_, err = tx.Exec("INSERT INTO kv (k, v) VALUES (?, 1)", n.Add(1))
		}
		if err == nil {
			_, err = tx.Commit()
		}
		if err != nil {
			t.Errorf("commit: %v", err)
		}
	}
	work(t)
	return statsService{
		addr: addr,
		check: func(t *testing.T, blob json.RawMessage) {
			st := sameStats(t, blob, srv.Stats())
			if st.Durability.Recovery != info || info.RecoveredTS < 2 || st.DB.Commits == 0 {
				t.Fatalf("daemon stats %+v: want recovery %+v and commits", st, info)
			}
		},
		work: work,
	}
}

// startPincushion serves a pincushion on a virtual clock, so the pins' ages
// do not move between the two reads being compared.
func startPincushion(t *testing.T) statsService {
	clk := &clock.Virtual{}
	p := pincushion.New(pincushion.Config{Clock: clk})
	p.Register(3, clk.Now())
	p.Register(4, clk.Now())
	p.GetPins(context.Background(), time.Minute)
	addr := serveOn(t, p.Serve)
	cl, err := pincushion.Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return statsService{
		addr: addr,
		check: func(t *testing.T, blob json.RawMessage) {
			st := sameStats(t, blob, p.Stats())
			if st.Pins != 2 || st.Requests == 0 || st.InClass(pincushion.PinActive) != 2 {
				t.Fatalf("pincushion stats %+v: want two active pins and a request", st)
			}
		},
		work: func(t *testing.T) {
			pins := cl.GetPins(context.Background(), time.Minute)
			tss := make([]interval.Timestamp, len(pins))
			for i, pin := range pins {
				tss[i] = pin.TS
			}
			cl.Release(tss)
		},
	}
}

func TestStats(t *testing.T) {
	bg := context.Background()
	services := []struct {
		name  string
		start func(*testing.T) statsService
	}{
		{"cacheserver", startCache},
		{"dbnet", startDB},
		{"pincushion", startPincushion},
	}
	// dial opens a plain transport client on svc's address, as any monitor
	// would: it speaks OpStats and nothing of the service's own protocol.
	dial := func(t *testing.T, svc statsService) *rpc.Client {
		c, err := rpc.Dial(rpc.TCP, "monitor", "test", svc.addr, 2, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}

	t.Run("ValidFlow", func(t *testing.T) {
		for _, s := range services {
			t.Run(s.name, func(t *testing.T) {
				svc := s.start(t)
				blob, err := dial(t, svc).Stats(bg)
				if err != nil {
					t.Fatal(err)
				}
				svc.check(t, blob)
			})
		}
	})

	t.Run("RejectionFlow", func(t *testing.T) {
		for _, s := range services {
			t.Run(s.name+"/UnknownOpcode", func(t *testing.T) {
				c := dial(t, s.start(t))
				var remote rpc.RemoteError
				if _, _, err := c.Call(bg, rpc.NewFrame(0x77)); !errors.As(err, &remote) {
					t.Fatalf("unknown opcode: %v, want the error frame", err)
				}
				if _, err := c.Stats(bg); err != nil {
					t.Fatalf("stats after a refused request: %v", err)
				}
			})
		}
		// A peer that does not answer OpStats, or answers it with something
		// else, is an error, not an empty set of counters.
		for name, h := range map[string]rpc.Handler{
			"Refuses": func(op byte, _ []byte) (*wire.Buffer, error) { return nil, fmt.Errorf("unknown opcode %d", op) },
			"Acks":    func(byte, []byte) (*wire.Buffer, error) { return nil, nil },
		} {
			t.Run("PeerThat"+name, func(t *testing.T) {
				c := dial(t, statsService{addr: serveOn(t, func(l net.Listener) error {
					return rpc.Serve(l, func() (rpc.Handler, func()) { return h, nil })
				})})
				if blob, err := c.Stats(bg); err == nil {
					t.Fatalf("Stats = %s, want an error", blob)
				}
			})
		}
	})

	t.Run("ConcurrentFlow", func(t *testing.T) {
		for _, s := range services {
			t.Run(s.name, func(t *testing.T) {
				svc := s.start(t)
				c := dial(t, svc)
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(2)
					go func() {
						defer wg.Done()
						for i := 0; i < 50; i++ {
							svc.work(t)
						}
					}()
					go func() {
						defer wg.Done()
						for i := 0; i < 50; i++ {
							blob, err := c.Stats(bg)
							if err == nil && !json.Valid(blob) {
								err = fmt.Errorf("invalid JSON %q", blob)
							}
							if err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	})
}
