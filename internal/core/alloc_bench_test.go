package core

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/sql"
)

// Allocation-budget coverage for MakeCacheable. The hit path — cache-key
// build, node lookup, pin-set narrowing, fast-codec decode — is the
// library half of the zero-allocation read path; the miss path adds the
// query, the codec encode, and the install.

type benchUser struct {
	ID     int64
	Name   string
	Rating int64
	Active bool
}

// benchSite builds an engine + in-process cache node + pincushion with the
// node's invalidation horizon advanced past the data, so still-valid
// entries are servable and hits actually hit.
func benchSite(tb testing.TB) (*Client, *cacheserver.Server, func() interval.Timestamp) {
	tb.Helper()
	engine := db.New(db.Options{})
	for _, d := range []string{
		`CREATE TABLE users (id BIGINT PRIMARY KEY, name TEXT NOT NULL, rating BIGINT)`,
	} {
		if err := engine.DDL(d); err != nil {
			tb.Fatal(err)
		}
	}
	tx, err := engine.Begin(false, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if _, err := tx.Exec("INSERT INTO users (id, name, rating) VALUES (?, ?, ?)", i, "u", i%10); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	srv := cacheserver.New(cacheserver.Config{})
	// Advance the node's consistency horizon to the engine's last commit so
	// still-valid installs are immediately servable (§4.2's effective upper
	// bound is lastInval+1).
	srv.ApplyInvalidation(invalidation.Message{TS: engine.LastCommit(), WallTime: time.Now()})
	pc := pincushion.New(pincushion.Config{})
	client := NewClient(Config{
		DB:         EngineDB{Engine: engine},
		Nodes:      map[string]cacheserver.Node{"n0": srv},
		Pincushion: pc,
	})
	ts, wall := engine.PinLatest()
	pc.Register(ts, wall)
	return client, srv, engine.LastCommit
}

func benchFns(c *Client) (Cacheable[benchUser], Cacheable[string]) {
	user := MakeCacheable(c, "bench.user", func(tx *Tx, args ...sql.Value) (benchUser, error) {
		r, err := tx.Query("SELECT id, name, rating FROM users WHERE id = ?", args[0])
		if err != nil {
			return benchUser{}, err
		}
		row := r.Rows[0]
		return benchUser{ID: row[0].(int64), Name: row[1].(string), Rating: row[2].(int64), Active: true}, nil
	})
	page := MakeCacheable(c, "bench.page", func(tx *Tx, args ...sql.Value) (string, error) {
		r, err := tx.Query("SELECT name FROM users WHERE id = ?", args[0])
		if err != nil {
			return "", err
		}
		return r.Rows[0][0].(string), nil
	})
	return user, page
}

// BenchmarkMakeCacheableHit: every call after the first finds a servable
// still-valid version.
func BenchmarkMakeCacheableHit(b *testing.B) {
	client, _, _ := benchSite(b)
	user, page := benchFns(client)
	b.Run("struct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tx := beginRO(client, WithStaleness(time.Minute))
			if _, err := user(tx, int64(i%64)); err != nil {
				b.Fatal(err)
			}
			tx.Commit()
		}
	})
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tx := beginRO(client, WithStaleness(time.Minute))
			if _, err := page(tx, int64(i%64)); err != nil {
				b.Fatal(err)
			}
			tx.Commit()
		}
	})
}

// BenchmarkMakeCacheableMiss forces a compulsory miss per call (fresh key
// space), measuring lookup-miss + query + encode + install.
func BenchmarkMakeCacheableMiss(b *testing.B) {
	client, _, _ := benchSite(b)
	user, _ := benchFns(client)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := beginRO(client, WithStaleness(time.Minute))
		// Vary an extra argument so every key is new to the cache.
		if _, err := user(tx, int64(i%64), int64(i)); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

// Hit-path budget: transaction begin (Tx, pin copy, release list), the
// cache key, the lookup, and the decoded value. The struct decode
// allocates the name string; the rest is reuse.
const cacheableHitAllocCeiling = 12

func TestAllocBudgetMakeCacheableHit(t *testing.T) {
	client, _, _ := benchSite(t)
	user, _ := benchFns(client)
	call := func() {
		tx := beginRO(client, WithStaleness(time.Minute))
		if _, err := user(tx, int64(5)); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	call() // install
	if avg := testing.AllocsPerRun(200, call); avg > cacheableHitAllocCeiling {
		t.Fatalf("cacheable hit allocates %.1f objects/op, budget is %d", avg, cacheableHitAllocCeiling)
	}
}

// TestCodecRoundTrip pins the fast codec's correctness over the shapes it
// claims: scalars, flat structs, slices, row data, and the gob fallback.
func TestCodecRoundTrip(t *testing.T) {
	check := func(name string, encode func() ([]byte, error), decode func(data []byte) (any, error), want any) {
		t.Helper()
		data, err := encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if fmtv(got) != fmtv(want) {
			t.Fatalf("%s: round trip %#v != %#v", name, got, want)
		}
	}

	s := "hello\x00world"
	check("string",
		func() ([]byte, error) { return encodeCacheable(&s) },
		func(d []byte) (any, error) { var v string; err := decodeCacheable(d, &v); return v, err }, s)

	n := int64(-42)
	check("int64",
		func() ([]byte, error) { return encodeCacheable(&n) },
		func(d []byte) (any, error) { var v int64; err := decodeCacheable(d, &v); return v, err }, n)

	u := benchUser{ID: 7, Name: "alice", Rating: 9, Active: true}
	check("struct",
		func() ([]byte, error) { return encodeCacheable(&u) },
		func(d []byte) (any, error) { var v benchUser; err := decodeCacheable(d, &v); return v, err }, u)

	us := []benchUser{{ID: 1, Name: "a"}, {ID: 2, Name: "b", Active: true}}
	check("struct-slice",
		func() ([]byte, error) { return encodeCacheable(&us) },
		func(d []byte) (any, error) { var v []benchUser; err := decodeCacheable(d, &v); return v, err }, us)

	ss := []string{"x", "", "z"}
	check("string-slice",
		func() ([]byte, error) { return encodeCacheable(&ss) },
		func(d []byte) (any, error) { var v []string; err := decodeCacheable(d, &v); return v, err }, ss)

	vals := []sql.Value{nil, int64(3), "s", 2.5, true}
	check("values",
		func() ([]byte, error) { return encodeCacheable(&vals) },
		func(d []byte) (any, error) { var v []sql.Value; err := decodeCacheable(d, &v); return v, err }, vals)

	rows := [][]sql.Value{{int64(1), "a"}, {nil, false}}
	check("rows",
		func() ([]byte, error) { return encodeCacheable(&rows) },
		func(d []byte) (any, error) { var v [][]sql.Value; err := decodeCacheable(d, &v); return v, err }, rows)

	res := db.Result{Cols: []string{"id", "name"}, Rows: rows, Validity: interval.Interval{Lo: 1, Hi: 5}}
	check("result",
		func() ([]byte, error) { return encodeCacheable(&res) },
		func(d []byte) (any, error) {
			var v db.Result
			err := decodeCacheable(d, &v)
			// Validity/Tags are intentionally not round-tripped.
			v.Validity = res.Validity
			return v, err
		}, res)

	// Gob fallback: a map is outside the fast format.
	m := map[string]int64{"a": 1}
	check("gob-map",
		func() ([]byte, error) { return encodeCacheable(&m) },
		func(d []byte) (any, error) { var v map[string]int64; err := decodeCacheable(d, &v); return v, err }, m)
}

// TestCodecForeignValueNoPanic: a []sql.Value holding a type outside the
// SQL scalar domain must yield an encode error (or a successful gob
// fallback), never a panic — the install is skipped and counted, exactly
// like the old gob path's failure mode.
func TestCodecForeignValueNoPanic(t *testing.T) {
	type odd struct{ X int }
	for _, v := range []any{
		&[]sql.Value{odd{1}},
		&[][]sql.Value{{odd{2}}},
		&db.Result{Cols: []string{"c"}, Rows: [][]sql.Value{{odd{3}}}},
	} {
		if data, err := encodeCacheable(v); err == nil && len(data) == 0 {
			t.Fatalf("%T: empty payload without error", v)
		}
	}
}

// TestCodecFingerprintMismatch: bytes encoded for one struct layout must
// not decode into a different one.
func TestCodecFingerprintMismatch(t *testing.T) {
	type v1 struct {
		A int64
		B string
	}
	type v2 struct {
		A int64
		C string
	}
	src := v1{A: 1, B: "x"}
	data, err := encodeCacheable(&src)
	if err != nil {
		t.Fatal(err)
	}
	var dst v2
	if err := decodeCacheable(data, &dst); err == nil {
		t.Fatal("decode across relayout must fail, not misread")
	}
}

func fmtv(v any) string { return fmt.Sprintf("%#v", v) }

// benchPins is how many fresh pins the begin benchmarks keep registered:
// what a deployment placing one every FreshPinThreshold (5 s) holds inside a
// 30 s staleness window.
const benchPins = 8

// beginSite is a client over a pincushion holding benchPins fresh pins,
// reached in-process or through pincushion.Dial over loopback.
func beginSite(tb testing.TB, tcp bool) *Client {
	tb.Helper()
	pc := pincushion.New(pincushion.Config{})
	now := time.Now()
	for i := 0; i < benchPins; i++ {
		pc.Register(interval.Timestamp(i+1), now)
	}
	var svc pincushion.Service = pc
	if tcp {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { l.Close() })
		go pc.Serve(l)
		cl, err := pincushion.Dial(l.Addr().String(), 4)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(cl.Close)
		svc = cl
	}
	return NewClient(Config{DB: EngineDB{Engine: db.New(db.Options{})}, Pincushion: svc})
}

// beginCommit is one read-only transaction that begins, finds its pins and
// ends: the pincushion's whole share of a cached page.
func beginCommit(tb testing.TB, c *Client) {
	tx, err := c.Begin(context.Background(), WithStaleness(time.Minute))
	if err != nil {
		tb.Fatal(err)
	}
	if tx.PinSetSize() != benchPins {
		tb.Fatalf("pin set holds %d pins, want %d", tx.PinSetSize(), benchPins)
	}
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkBeginCommitRO measures Begin + Commit of a read-only transaction
// (EXPERIMENTS.md "PR 14" has the numbers from before the pin-set lease).
func BenchmarkBeginCommitRO(b *testing.B) {
	for _, mode := range []string{"inproc", "tcp"} {
		b.Run(mode, func(b *testing.B) {
			c := beginSite(b, mode == "tcp")
			defer c.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				beginCommit(b, c)
			}
		})
	}
}

// A leased Begin + Commit allocates the Tx, the WithStaleness closure and
// the transaction's copy of the leased pins. Before the lease it was 13
// in-process (the GetPins result grown by append, its reflective sort, the
// release list) and 25 over TCP.
const beginLeasedAllocCeiling = 3

func TestAllocBudgetBeginLeased(t *testing.T) {
	c := beginSite(t, false)
	defer c.Close()
	beginCommit(t, c) // fetches the lease
	if avg := testing.AllocsPerRun(200, func() { beginCommit(t, c) }); avg > beginLeasedAllocCeiling {
		t.Fatalf("leased Begin+Commit allocates %.1f objects/op, budget is %d", avg, beginLeasedAllocCeiling)
	}
}
