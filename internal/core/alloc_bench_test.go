package core

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
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
	tx, err := engine.BeginTx(context.Background(), false, 0)
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
	if raceEnabled {
		t.Skip("allocation ceilings are checked without the race detector (make alloc-regression)")
	}
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

// encodeAs and decodeAs run the codec the way MakeCacheable[T] does.
func encodeAs[T any](v T) ([]byte, error) {
	p, err := planOf(reflect.TypeFor[T]())
	if err != nil {
		return nil, err
	}
	return p.encode(reflect.ValueOf(&v).Elem())
}

func decodeAs[T any](data []byte) (T, error) {
	var v T
	p, err := planOf(reflect.TypeFor[T]())
	if err != nil {
		return v, err
	}
	return v, p.decode(data, reflect.ValueOf(&v).Elem())
}

// codecCase is one row of TestCodecRoundTrip; FuzzDecodeCacheable seeds its
// corpus from the same rows.
type codecCase struct {
	name string
	run  func(t *testing.T)
	// decode feeds arbitrary bytes to the row's type; payload is what the
	// row's value encodes to (nil for a refused type).
	decode  func(data []byte) error
	payload []byte
}

// roundTrips is a row whose value must come back as want.
func roundTrips[T any](name string, in, want T) codecCase {
	payload, encErr := encodeAs(in)
	return codecCase{name: name, payload: payload,
		decode: func(data []byte) error { _, err := decodeAs[T](data); return err },
		run: func(t *testing.T) {
			if encErr != nil {
				t.Fatalf("encode: %v", encErr)
			}
			got, err := decodeAs[T](payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip %#v != %#v", got, want)
			}
			// A payload is exactly its value: one byte more or less is refused.
			if _, err := decodeAs[T](append(payload[:len(payload):len(payload)], 0)); err == nil {
				t.Fatal("a trailing byte decoded")
			}
			if _, err := decodeAs[T](payload[:len(payload)-1]); err == nil {
				t.Fatal("a truncated payload decoded")
			}
		}}
}

func roundTrip[T any](name string, v T) codecCase { return roundTrips(name, v, v) }

// refused is a row whose type the plan cannot express: MakeCacheable must
// panic at registration, naming the type.
func refused[T any](name, typeName string) codecCase {
	return codecCase{name: name, run: func(t *testing.T) {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, typeName) || !strings.Contains(msg, `"refused.`+name+`"`) {
				t.Fatalf("MakeCacheable panicked with %q; want the function's name and %q", msg, typeName)
			}
		}()
		MakeCacheable(nil, "refused."+name, func(*Tx, ...sql.Value) (T, error) { var zero T; return zero, nil })
		t.Fatal("MakeCacheable registered a type the codec cannot express")
	}}
}

type codecInner struct {
	Tags  []string
	Score float64
}

type codecOuter struct {
	ID    int64
	Inner codecInner
	Hist  []codecInner
	Next  *codecInner
}

type codecSelfRef struct {
	Name string
	Next *codecSelfRef
}

func codecCases() []codecCase {
	rows := [][]sql.Value{{int64(1), "a"}, {nil, false}}
	res := db.Result{Cols: []string{"id", "name"}, Rows: rows, Validity: interval.Interval{Lo: 1, Hi: 5}}
	// Validity and Tags are intentionally not round-tripped.
	bare := db.Result{Cols: res.Cols, Rows: rows}
	return []codecCase{
		roundTrip("string", "hello\x00world"),
		roundTrip("int64", int64(-42)),
		roundTrip("int", -7),
		roundTrip("float64", 2.5),
		roundTrip("bool", true),
		roundTrip("struct", benchUser{ID: 7, Name: "alice", Rating: 9, Active: true}),
		roundTrip("struct-slice", []benchUser{{ID: 1, Name: "a"}, {ID: 2, Name: "b", Active: true}}),
		roundTrip("string-slice", []string{"x", "", "z"}),
		roundTrip("values", []sql.Value{nil, int64(3), "s", 2.5, true}),
		roundTrip("rows", rows),
		roundTrips("result", res, bare),
		roundTrips("result-pointer", &res, &bare),
		roundTrip("nested-slice", [][]string{{"a"}, {}, {"b", "c"}}),
		roundTrip("struct-in-struct", codecOuter{
			ID:    3,
			Inner: codecInner{Tags: []string{"t"}, Score: 0.5},
			Hist:  []codecInner{{Tags: []string{}, Score: 1}, {Tags: []string{"u", "v"}}},
			Next:  &codecInner{Tags: []string{}, Score: -1},
		}),
		refused[map[string]int]("map", "map[string]int"),
		refused[struct {
			A int64
			b string
		}]("unexported-field", "unexported field b"),
		refused[[]float32]("float32-slice", "[]float32"),
		refused[codecSelfRef]("self-reference", "codecSelfRef contains itself"),
		refused[[]struct{}]("empty-struct", "has no fields"),
	}
}

// TestCodecRoundTrip pins the codec's correctness over the shapes it
// claims — scalars, structs, slices, pointers and row data, nested any way
// — and that every other type is refused when the function is registered.
func TestCodecRoundTrip(t *testing.T) {
	for _, c := range codecCases() {
		t.Run(c.name, c.run)
	}
}

// parentPayloads are cached payloads as the build before this codec wrote
// them: a plan-encoded string ('F', fingerprint 0) and a gob stream ('G').
var parentPayloads = []string{
	"F\x01\x00\x00\x00\x00\x04page",
	"G\r\x7f\x04\x01\x02\xff\x80\x00\x01\f\x01\x04\x00\x00\a\xff\x80\x00\x01\x01a\x02",
}

// TestCodecErrorsCounted: what the codec cannot do shows up on /statsz and
// nowhere else. A result holding a type outside the SQL scalar domain is
// returned to the caller, not installed, and counted as an encode error; a
// hit whose bytes an earlier build wrote (a cache node outlives a deploy)
// is recomputed, never decoded into a value, and counted as a decode error.
func TestCodecErrorsCounted(t *testing.T) {
	client, srv, last := benchSite(t)
	type odd struct{ X int }
	foreign := MakeCacheable(client, "test.foreign", func(tx *Tx, args ...sql.Value) ([]sql.Value, error) {
		return []sql.Value{int64(1), odd{2}}, nil
	})
	_, page := benchFns(client)

	tx := beginRO(client, WithStaleness(time.Minute))
	defer tx.Commit()
	if got, err := foreign(tx); err != nil || len(got) != 2 {
		t.Fatalf("foreign() = %v, %v; want the computed value", got, err)
	}
	if st := client.Stats().Snapshot(); st.EncodeErrors != 1 || st.DecodeErrors != 0 || st.CachePuts != 0 {
		t.Fatalf("after an unencodable result: encodeErrors=%d decodeErrors=%d cachePuts=%d, want 1 0 0",
			st.EncodeErrors, st.DecodeErrors, st.CachePuts)
	}

	for i, payload := range parentPayloads {
		id := int64(i)
		srv.Put(cacheKey("bench.page", []sql.Value{id}), []byte(payload),
			interval.Interval{Lo: last(), Hi: interval.Infinity}, true, last(), nil)
		if got, err := page(tx, id); err != nil || got != "u" {
			t.Fatalf("page(%d) over parent-format bytes = %q, %v; want the database's %q", id, got, err, "u")
		}
		st := client.Stats().Snapshot()
		if st.DecodeErrors != uint64(i+1) || st.CacheHits != uint64(i+1) {
			t.Fatalf("after parent payload %d: decodeErrors=%d cacheHits=%d, want both %d",
				i, st.DecodeErrors, st.CacheHits, i+1)
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
	data, err := encodeAs(v1{A: 1, B: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAs[v2](data); err == nil {
		t.Fatal("decode across relayout must fail, not misread")
	}
	if _, err := decodeAs[v1](data); err != nil {
		t.Fatalf("decode under the same layout: %v", err)
	}
}

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
	if raceEnabled {
		t.Skip("allocation ceilings are checked without the race detector (make alloc-regression)")
	}
	c := beginSite(t, false)
	defer c.Close()
	beginCommit(t, c) // fetches the lease
	if avg := testing.AllocsPerRun(200, func() { beginCommit(t, c) }); avg > beginLeasedAllocCeiling {
		t.Fatalf("leased Begin+Commit allocates %.1f objects/op, budget is %d", avg, beginLeasedAllocCeiling)
	}
}
