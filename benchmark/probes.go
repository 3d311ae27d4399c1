package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"time"

	"txcache/internal/btree"
	"txcache/internal/cacheserver"
	"txcache/internal/consistent"
	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/mvcc"
	"txcache/internal/pincushion"
	"txcache/internal/sql"
	"txcache/internal/wal"
	"txcache/internal/wire"
)

// Layer probes time public functions of the layers the decorators cannot see
// inside, and the same operation in-process and over loopback TCP for the
// three wire services. One goroutine, fixed operation counts, so the counts
// repeat exactly and only the times vary.

// timeEach runs fn n times and returns each call's duration in ns, sorted.
func timeEach(n int, fn func(i int)) []int64 {
	d := make([]int64, n)
	for i := range d {
		t0 := time.Now()
		fn(i)
		d[i] = int64(time.Since(t0))
	}
	return sortedCopy(d)
}

// timeTotal runs fn n times and returns the mean ns per call.
func timeTotal(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func runProbes(set func(name, unit string, v float64, samples int)) error {
	ctx := context.Background()
	us := func(sorted []int64) float64 { return float64(quantile(sorted, 0.5)) / 1e3 }

	// wal: append one 200-byte record and fdatasync, in the same temporary
	// directory the workloads log to. This is the host's flush cost.
	dir, err := os.MkdirTemp("", "txcache-benchmark-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := wal.OpenWriter(dir, wal.SyncFdatasync, nil)
	if err != nil {
		return err
	}
	rec := bytes.Repeat([]byte{0xab}, 200)
	var werr error
	const walAppends = 200
	d := timeEach(walAppends, func(i int) {
		if err := w.Append(rec, uint64(i+1)); err != nil {
			werr = err
		}
	})
	if err := w.Close(); err != nil || werr != nil {
		return fmt.Errorf("wal probe: %v %v", werr, err)
	}
	set("wal.append_sync_us_p50", "us", us(d), walAppends)

	// btree: sorted batches of 64 inserts into a tree of 64k keys, then
	// point gets.
	const treeKeys, batch, batches = 1 << 16, 64, 256
	key := func(i int) []byte {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i))
		return b[:]
	}
	items := make([]btree.Item, treeKeys)
	for i := range items {
		items[i] = btree.Item{Key: key(2 * i), Posts: []uint64{uint64(i)}}
	}
	tree := btree.BulkLoad(items)
	ops := make([]btree.Op, batch)
	perBatch := timeTotal(batches, func(b int) {
		for j := range ops {
			ops[j] = btree.Op{Key: key(2*(b*batch+j) + 1), ID: uint64(j)}
		}
		tree.ApplyBatch(ops)
	})
	set("btree.apply_batch_ns_per_op", "ns", perBatch/batch, batches*batch)
	const gets = 200_000
	found := 0
	set("btree.get_ns", "ns", timeTotal(gets, func(i int) { found += len(tree.Get(key(2 * (i * 7919 % treeKeys)))) }), gets)
	if found != gets {
		return fmt.Errorf("btree probe: %d of %d gets found their key", found, gets)
	}

	// mvcc: visibility checks on rows with four versions each, then one
	// vacuum pass that reclaims three of the four.
	const rows = 20_000
	store := mvcc.NewStore()
	ids := make([]mvcc.RowID, rows)
	for i := range ids {
		ids[i] = store.Insert(i, 1)
		for v := 2; v <= 4; v++ {
			store.Update(ids[i], i, interval.Timestamp(v))
		}
	}
	visible := 0
	set("mvcc.visible_at_ns", "ns", timeTotal(gets, func(i int) {
		if _, ok := store.VisibleAt(ids[i%rows], interval.Timestamp(1+i%4)); ok {
			visible++
		}
	}), gets)
	if visible != gets {
		return fmt.Errorf("mvcc probe: %d of %d reads saw a version", visible, gets)
	}
	var reclaimed []mvcc.Reclaimed
	t0 := time.Now()
	reclaimed = store.Vacuum(4, reclaimed)
	vac := float64(time.Since(t0))
	if len(reclaimed) != 3*rows {
		return fmt.Errorf("mvcc probe: vacuum reclaimed %d versions, want %d", len(reclaimed), 3*rows)
	}
	set("mvcc.vacuum_ns_per_version", "ns", vac/float64(len(reclaimed)), len(reclaimed))

	// sql: parse a typical statement, with and without the statement cache.
	const stmt = "SELECT id, name, max_bid, nb_of_bids, end_date FROM items WHERE region = ? AND category = ? ORDER BY end_date LIMIT 20"
	const parses = 20_000
	var perr error
	set("sql.parse_ns", "ns", timeTotal(parses, func(int) {
		if _, err := sql.Parse(stmt); err != nil {
			perr = err
		}
	}), parses)
	set("sql.parse_cached_ns", "ns", timeTotal(gets, func(int) {
		if _, err := sql.ParseCached(stmt); err != nil {
			perr = err
		}
	}), gets)
	if perr != nil {
		return fmt.Errorf("sql probe: %w", perr)
	}

	// wire: frame a 256-byte payload into a buffer and read it back.
	var buf bytes.Buffer
	payload := bytes.Repeat([]byte{0xcd}, 256)
	var ferr error
	set("wire.frame_roundtrip_ns", "ns", timeTotal(gets, func(int) {
		buf.Reset()
		if err := wire.WriteFrame(&buf, payload); err != nil {
			ferr = err
		}
		if _, err := wire.ReadFrame(&buf); err != nil {
			ferr = err
		}
	}), gets)
	if ferr != nil {
		return fmt.Errorf("wire probe: %w", ferr)
	}

	// consistent: route a key on a two-node ring, as core does per lookup.
	ring := consistent.New(0)
	ring.Add("cache0")
	ring.Add("cache1")
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("page.viewItem|%d", i)
	}
	routed := 0
	set("consistent.get_ns", "ns", timeTotal(gets, func(i int) { routed += len(ring.Get(keys[i%len(keys)])) }), gets)
	if routed == 0 {
		return fmt.Errorf("consistent probe: no key routed")
	}

	// invalidation: intern tags that are already known, the per-row cost on
	// the query and commit paths.
	tags := make([]invalidation.Tag, 1024)
	for i := range tags {
		tags[i] = invalidation.KeyTag("items", "id", fmt.Sprint(i))
		invalidation.Intern(tags[i])
	}
	var sum invalidation.TagID
	set("invalidation.intern_ns", "ns", timeTotal(gets, func(i int) { sum += invalidation.Intern(tags[i%len(tags)]) }), gets)
	if sum == 0 {
		return fmt.Errorf("invalidation probe: interned nothing")
	}

	if err := probeCacheServer(ctx, set, us); err != nil {
		return err
	}
	if err := probeDatabase(ctx, set, us); err != nil {
		return err
	}
	return probePincushion(ctx, set, us)
}

// rpcCalls is how many calls each transport probe makes on each side.
const rpcCalls = 5000

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func probeCacheServer(ctx context.Context, set func(string, string, float64, int), us func([]int64) float64) error {
	const keys = 1024
	now := time.Now()
	node := cacheserver.New(cacheserver.Config{})
	node.ApplyInvalidation(invalidation.Message{TS: 1 << 20, WallTime: now})
	page := make([]byte, 512)
	for i := 0; i < keys; i++ {
		tag := invalidation.Intern(invalidation.KeyTag("probe", "id", fmt.Sprint(i)))
		node.Put(fmt.Sprintf("key-%d", i), page, interval.Interval{Lo: 1, Hi: interval.Infinity}, true, 1, []invalidation.TagID{tag})
	}
	l, err := listenLoopback()
	if err != nil {
		return err
	}
	defer l.Close()
	go node.Serve(l)
	cl, err := cacheserver.Dial(l.Addr().String(), 1)
	if err != nil {
		return err
	}
	defer cl.Close()
	for name, n := range map[string]cacheserver.Node{"cacheserver.probe_lookup_inproc_us": node, "cacheserver.probe_lookup_tcp_us": cl} {
		found := 0
		d := timeEach(rpcCalls, func(i int) {
			if n.Lookup(ctx, fmt.Sprintf("key-%d", i%keys), 1<<19, 1<<21, 0, interval.Infinity).Found {
				found++
			}
		})
		if found != rpcCalls {
			return fmt.Errorf("%s: %d of %d lookups hit", name, found, rpcCalls)
		}
		set(name, "us", us(d), rpcCalls)
	}
	return nil
}

func probeDatabase(ctx context.Context, set func(string, string, float64, int), us func([]int64) float64) error {
	const rows = 1024
	e := db.New(db.Options{})
	if err := e.DDL(`CREATE TABLE users (id BIGINT PRIMARY KEY, name TEXT NOT NULL, rating BIGINT)`); err != nil {
		return err
	}
	load, err := e.BeginTx(ctx, false, 0)
	if err != nil {
		return err
	}
	for i := int64(0); i < rows; i++ {
		if _, err := load.Exec("INSERT INTO users (id, name, rating) VALUES (?, ?, ?)", i, fmt.Sprintf("user-%d", i), i%10); err != nil {
			load.Abort()
			return err
		}
	}
	if _, err := load.Commit(); err != nil {
		return err
	}
	l, err := listenLoopback()
	if err != nil {
		return err
	}
	defer l.Close()
	go (&dbnet.Server{Engine: e}).Serve(l)
	cl, err := dbnet.Dial(l.Addr().String(), 1)
	if err != nil {
		return err
	}
	defer cl.Close()

	type querier interface {
		Query(src string, args ...sql.Value) (*db.Result, error)
		Abort()
	}
	local, err := e.BeginTx(ctx, true, 0)
	if err != nil {
		return err
	}
	remote, err := cl.Begin(ctx, true, 0)
	if err != nil {
		local.Abort()
		return err
	}
	for name, tx := range map[string]querier{"db.probe_point_select_inproc_us": local, "dbnet.probe_point_select_tcp_us": remote} {
		got := 0
		var qerr error
		d := timeEach(rpcCalls, func(i int) {
			r, err := tx.Query("SELECT name, rating FROM users WHERE id = ?", int64(i%rows))
			if err != nil {
				qerr = err
				return
			}
			got += len(r.Rows)
		})
		tx.Abort()
		if qerr != nil || got != rpcCalls {
			return fmt.Errorf("%s: %d of %d selects returned their row: %v", name, got, rpcCalls, qerr)
		}
		set(name, "us", us(d), rpcCalls)
	}
	return nil
}

func probePincushion(ctx context.Context, set func(string, string, float64, int), us func([]int64) float64) error {
	now := time.Now()
	pc := pincushion.New(pincushion.Config{})
	for i := 0; i < 4; i++ {
		pc.Register(interval.Timestamp(i+1), now)
	}
	l, err := listenLoopback()
	if err != nil {
		return err
	}
	defer l.Close()
	go pc.Serve(l)
	cl, err := pincushion.Dial(l.Addr().String(), 1)
	if err != nil {
		return err
	}
	defer cl.Close()
	// GetPins and the matching Release: a read-only transaction's pincushion work.
	for name, svc := range map[string]pincushion.Service{"pincushion.probe_getpins_inproc_us": pc, "pincushion.probe_getpins_tcp_us": cl} {
		tss := make([]interval.Timestamp, 0, 8)
		got := 0
		d := timeEach(rpcCalls, func(int) {
			pins := svc.GetPins(ctx, time.Minute)
			got += len(pins)
			tss = tss[:0]
			for _, p := range pins {
				tss = append(tss, p.TS)
			}
			svc.Release(tss)
		})
		if got == 0 {
			return fmt.Errorf("%s: no pins returned", name)
		}
		set(name, "us", us(d), rpcCalls)
	}
	return nil
}
