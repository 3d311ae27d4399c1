package cacheserver

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/consistent"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// model_test.go checks the cache node against a brute-force oracle: a flat
// list of (key, interval, tags) facts driven through random puts,
// invalidations, and lookups. The oracle recomputes every entry's effective
// validity from the full invalidation history, so any divergence in
// truncation, ordering, or effective-bound logic shows up.

type modelVersion struct {
	key   string
	lo    interval.Timestamp
	hi    interval.Timestamp // Infinity while still valid
	still bool
	tags  []invalidation.Tag
}

type model struct {
	versions  []*modelVersion
	widened   int // equal-Lo puts that moved a stored version's bound out
	lastInval interval.Timestamp
	msgs      []modelMsg // full history (the model never forgets)
}

// modelMsg is an invalidation as the model keeps it: tags by name, never by
// ID, so the rule it applies owes nothing to the hash under test.
type modelMsg struct {
	ts   interval.Timestamp
	tags []invalidation.Tag
}

func (m *model) put(key string, lo interval.Timestamp, hi interval.Timestamp, still bool, genSnap interval.Timestamp, tags []invalidation.Tag) {
	if still && len(tags) > 0 {
		// Retroactive replay: an invalidation processed before this insert
		// but after its generating snapshot truncates it.
		for _, msg := range m.msgs {
			if msg.ts > genSnap && matches(msg, tags) {
				still, hi = false, msg.ts
				break
			}
		}
	}
	for _, v := range m.versions {
		if v.key == key && v.lo == lo {
			// Same version offered again: nothing new is stored, but an offer
			// that proves it valid for longer widens it in place.
			if !v.still && (still || hi > v.hi) {
				v.hi, v.still, v.tags = hi, still, tags
				m.widened++
			}
			return
		}
	}
	if lo >= hi {
		return
	}
	m.versions = append(m.versions, &modelVersion{key: key, lo: lo, hi: hi, still: still, tags: tags})
}

func matches(msg modelMsg, tags []invalidation.Tag) bool {
	for _, mt := range msg.tags {
		for _, vt := range tags {
			if mt.Wildcard && mt.Table == vt.Table {
				return true
			}
			if vt.Wildcard && vt.Table == mt.Table {
				return true
			}
			if mt == vt {
				return true
			}
		}
	}
	return false
}

func (m *model) invalidate(msg modelMsg) {
	if msg.ts <= m.lastInval {
		return
	}
	m.msgs = append(m.msgs, msg)
	for _, v := range m.versions {
		if !v.still {
			continue
		}
		if matches(msg, v.tags) {
			v.still = false
			v.hi = msg.ts
		}
	}
	m.lastInval = msg.ts
}

// lookup returns the newest version whose effective interval intersects
// [lo, hi], mirroring the server's contract.
func (m *model) lookup(key string, lo, hi interval.Timestamp) (*modelVersion, bool) {
	var best *modelVersion
	for _, v := range m.versions {
		if v.key != key {
			continue
		}
		effHi := v.hi
		if v.still {
			effHi = m.lastInval + 1
		}
		iv := interval.Interval{Lo: v.lo, Hi: effHi}
		if !iv.OverlapsRange(lo, hi) {
			continue
		}
		if best == nil || v.lo > best.lo {
			best = v
		}
	}
	return best, best != nil
}

func TestServerMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := New(Config{}) // unlimited capacity: the model has no eviction
	m := &model{}

	keys := []string{"a", "b", "c", "d", "e", "f"}
	tables := []string{"t1", "t2", "t3"}
	ts := interval.Timestamp(1)

	randTags := func() []invalidation.Tag {
		var tags []invalidation.Tag
		n := rng.Intn(3) + 1
		for i := 0; i < n; i++ {
			table := tables[rng.Intn(len(tables))]
			if rng.Intn(5) == 0 {
				tags = append(tags, invalidation.Tag{Table: table, Wildcard: true})
			} else {
				tags = append(tags, invalidation.KeyTag(table, "k", fmt.Sprint(rng.Intn(4))))
			}
		}
		return tags
	}

	for op := 0; op < 20000; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // put
			key := keys[rng.Intn(len(keys))]
			if rng.Intn(2) == 0 {
				// Still-valid entry created at some recent commit.
				lo := ts - interval.Timestamp(rng.Intn(3))
				if lo < 1 {
					lo = 1
				}
				// The generating snapshot lags the horizon by anything from
				// nothing to the version's whole life, as a value composed
				// from cached parts does.
				genSnap := lo + interval.Timestamp(rng.Intn(int(ts-lo)+1))
				tags := randTags()
				s.Put(key, []byte("v"), interval.Interval{Lo: lo, Hi: interval.Infinity}, true, genSnap, ids(tags))
				m.put(key, lo, interval.Infinity, true, genSnap, tags)
			} else {
				// Historical closed version.
				lo := interval.Timestamp(rng.Intn(int(ts)) + 1)
				hi := lo + interval.Timestamp(rng.Intn(5)+1)
				s.Put(key, []byte("v"), interval.Interval{Lo: lo, Hi: hi}, false, 0, nil)
				m.put(key, lo, hi, false, 0, nil)
			}
		case 3, 4: // invalidation (a committed update transaction)
			ts++
			tags := randTags()
			s.ApplyInvalidation(invalidation.Message{TS: ts, Tags: ids(tags)})
			m.invalidate(modelMsg{ts, tags})
		default: // lookup
			key := keys[rng.Intn(len(keys))]
			lo := interval.Timestamp(rng.Intn(int(ts)) + 1)
			hi := lo + interval.Timestamp(rng.Intn(6))
			got := s.Lookup(context.Background(), key, lo, hi, 0, interval.Infinity)
			want, found := m.lookup(key, lo, hi)
			if got.Found != found {
				t.Fatalf("op %d: lookup(%q,[%d,%d]) found=%v, model=%v (lastInval %d)",
					op, key, lo, hi, got.Found, found, m.lastInval)
			}
			if found {
				if got.Validity.Lo != want.lo {
					t.Fatalf("op %d: lookup(%q,[%d,%d]) returned version lo=%d, model wants lo=%d",
						op, key, lo, hi, got.Validity.Lo, want.lo)
				}
				wantHi := want.hi
				if want.still {
					wantHi = m.lastInval + 1
				}
				if got.Validity.Hi != wantHi {
					t.Fatalf("op %d: effective hi=%d, model wants %d (still=%v)",
						op, got.Validity.Hi, wantHi, want.still)
				}
			}
		}
	}
	// Final sanity: every still-valid server answer must also be
	// still-valid in the model.
	st := s.Stats()
	if st.Lookups == 0 || st.Puts == 0 || st.Invalidations == 0 || m.widened == 0 {
		t.Fatalf("vacuous run: %+v, %d widenings", st, m.widened)
	}
}

// ---------------------------------------------------------------------------
// Concurrent pipelined model test.
//
// TestConcurrentPipelinedModel drives a 3-node TCP cluster with concurrent
// lookups, one-way puts, LookupBatch calls, an ordered
// invalidation stream, and live node churn (clients torn down and redialed,
// ring membership cycling), all against a fact oracle.
//
// The oracle exploits a determinism property of the node: with unbounded
// history, a still-valid insert's final upper bound is the timestamp of the
// FIRST matching invalidation after its generating snapshot, regardless of
// the arrival interleaving of puts and stream messages (§4.2's ordering
// machinery). Puts may be lost (a churned connection) — the cache is
// allowed to forget — so the invariant checked is soundness: any version
// any node ever RETURNS must be a recorded fact with exactly its
// deterministic validity interval. Completeness is checked only in
// aggregate (the run must produce hits).
// ---------------------------------------------------------------------------

// cfact is one oracle fact: a put that was recorded before its frame was
// handed to any client.
type cfact struct {
	key   string
	lo    interval.Timestamp
	hi    interval.Timestamp // Infinity for still-valid facts
	still bool               // subscribed to invalidations (single key tag)
	// prefix marks a still fact whose conservative bounded copy [lo, lo+1)
	// is put first, so the still-valid put arrives as an equal-Lo widening
	// racing the stream.
	prefix bool
}

// cmsg is one invalidation-stream message of the concurrent model: at ts,
// the given keys were invalidated (wild invalidates every key).
type cmsg struct {
	ts   interval.Timestamp
	keys map[string]bool
	wild bool
}

// coracle is the concurrent model's ground truth.
type coracle struct {
	mu    sync.Mutex
	ts    interval.Timestamp // latest invalidation timestamp recorded
	facts map[string]map[interval.Timestamp]cfact
	msgs  []cmsg // ascending ts
}

func newCOracle() *coracle {
	return &coracle{ts: 1, facts: make(map[string]map[interval.Timestamp]cfact)}
}

// allocStill records a still-valid fact at the current stream position,
// returning ok=false when (key, lo) is already taken.
func (o *coracle) allocStill(key string, prefix bool) (cfact, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	lo := o.ts
	if _, dup := o.facts[key][lo]; dup {
		return cfact{}, false
	}
	f := cfact{key: key, lo: lo, hi: interval.Infinity, still: true, prefix: prefix}
	o.addLocked(f)
	return f, true
}

// allocBounded records a closed historical version ending before the
// current stream position.
func (o *coracle) allocBounded(key string, span interval.Timestamp) (cfact, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	lo := o.ts
	if _, dup := o.facts[key][lo]; dup {
		return cfact{}, false
	}
	f := cfact{key: key, lo: lo, hi: lo + 1 + span, still: false}
	o.addLocked(f)
	return f, true
}

func (o *coracle) addLocked(f cfact) {
	m := o.facts[f.key]
	if m == nil {
		m = make(map[interval.Timestamp]cfact)
		o.facts[f.key] = m
	}
	m[f.lo] = f
}

// record appends the next invalidation message (ts strictly ascending) and
// returns it; it must be recorded BEFORE being pushed so that any server
// state reflecting it is explainable by the oracle.
func (o *coracle) record(keys map[string]bool, wild bool) (interval.Timestamp, cmsg) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ts++
	m := cmsg{ts: o.ts, keys: keys, wild: wild}
	o.msgs = append(o.msgs, m)
	return o.ts, m
}

func (o *coracle) now() interval.Timestamp {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ts
}

// expectedHi returns the deterministic final upper bound of a fact: bounded
// facts keep their interval; still facts are truncated at the first
// matching message after their generating snapshot (== lo), else Infinity.
// Must be called with o.mu held.
func (o *coracle) expectedHiLocked(f cfact) (interval.Timestamp, bool) {
	if !f.still {
		return f.hi, false
	}
	for _, m := range o.msgs {
		if m.ts > f.lo && (m.wild || m.keys[f.key]) {
			return m.ts, false
		}
	}
	return interval.Infinity, true
}

// cdata is the payload every put carries: derived from (key, lo), so a
// transport bug that cross-wires replies is caught by a data mismatch.
func cdata(key string, lo interval.Timestamp) string {
	return fmt.Sprintf("%s@%d", key, uint64(lo))
}

// checkFound validates one Found lookup result against the oracle. final
// selects the stricter end-of-run checks (still-valid upper bounds are only
// deterministic once the stream has quiesced).
func (o *coracle) checkFound(t *testing.T, key string, reqLo, reqHi interval.Timestamp, r LookupResult, final bool) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	f, ok := o.facts[key][r.Validity.Lo]
	if !ok {
		t.Errorf("lookup(%q,[%d,%d]) returned fabricated version lo=%d", key, reqLo, reqHi, r.Validity.Lo)
		return
	}
	if got, want := string(r.Data), cdata(key, f.lo); got != want {
		t.Errorf("lookup(%q) returned cross-wired data %q, want %q", key, got, want)
	}
	if !r.Validity.OverlapsRange(reqLo, reqHi) {
		t.Errorf("lookup(%q,[%d,%d]) returned non-overlapping validity %v", key, reqLo, reqHi, r.Validity)
	}
	wantHi, wantStill := o.expectedHiLocked(f)
	if f.prefix && !r.Still && r.Validity.Hi == f.lo+1 {
		// The bounded copy, not (or not yet) widened: the still-valid put may
		// have been dropped, or closed at or before lo+1 by the replay.
		return
	}
	if !r.Still {
		// A truncated version's bound is final the moment it is reported:
		// it must be exactly the first matching invalidation (which the
		// oracle recorded before any server could have applied it).
		if r.Validity.Hi != wantHi {
			t.Errorf("lookup(%q) version lo=%d truncated at %d, oracle wants %d", key, f.lo, r.Validity.Hi, wantHi)
		}
		if final && wantStill {
			t.Errorf("lookup(%q) version lo=%d reported closed, oracle says still-valid", key, f.lo)
		}
		return
	}
	// Still-valid: the server may not yet have applied a matching message,
	// but it must never extend validity past one it could only know about
	// if it had applied it.
	if r.Validity.Hi != interval.Infinity && r.Validity.Hi > o.ts+1 {
		t.Errorf("lookup(%q) effective hi %d beyond stream position %d", key, r.Validity.Hi, o.ts)
	}
	if final {
		if !wantStill {
			t.Errorf("lookup(%q) version lo=%d reported still-valid, oracle truncated it at %d", key, f.lo, wantHi)
		} else if r.Validity.Hi != o.ts+1 {
			t.Errorf("lookup(%q) still-valid hi %d, want horizon %d", key, r.Validity.Hi, o.ts+1)
		}
	}
}

// churnSet is the live cluster view: a ring over the current members plus
// one client per member. The churner swaps members out (closing their client
// mid-use) and back in with fresh connections; a ring is only ever built,
// so each swap rebuilds it from the members left.
type churnSet struct {
	mu   sync.RWMutex
	ring *consistent.Ring
	m    map[string]*Client
}

func (cs *churnSet) pick(key string) *Client {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return cs.m[cs.ring.Get(key)]
}

func (cs *churnSet) remove(name string) *Client {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c := cs.m[name]
	delete(cs.m, name)
	cs.ring = consistent.New(churnReplicas)
	for n := range cs.m {
		cs.ring.Add(n)
	}
	return c
}

func (cs *churnSet) add(name string, c *Client) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.m[name] = c
	cs.ring.Add(name)
}

// churnReplicas keeps the churned rings small: each swap rebuilds one.
const churnReplicas = 64

func TestConcurrentPipelinedModel(t *testing.T) {
	const (
		nodes    = 4
		keyCount = 16
		maxTS    = 1500 // < default HistoryLen, so replay never falls back to conservative closing
		// budgetBytes caps node 1 so the run exercises capacity eviction
		// under the global atomic budget while invalidations fan out across
		// shards; the other nodes are unbounded so completeness stays
		// non-vacuous.
		budgetBytes = 32 << 10
	)
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}

	servers := make([]*Server, nodes)
	addrs := make([]string, nodes)
	pushers := make([]*Client, nodes) // dedicated, never churned: the stream must be reliable and ordered
	listeners := make([]net.Listener, nodes)
	set := &churnSet{ring: consistent.New(churnReplicas), m: make(map[string]*Client)}
	// Shard-count diversity: node 0 is the default sharded node, node 1 the
	// single-lock degenerate case (plus the byte budget), node 2 heavily
	// sharded so most shards hold at most one key and a wildcard invalidation
	// finds its versions one per shard, node 3 with four shards per key, so
	// most of every walk visits shards with nothing to match. The oracle
	// holds all four to the same facts.
	cfgs := [nodes]Config{1: {CapacityBytes: budgetBytes}}
	shards := [nodes]int{1: 1, 2: 32, 3: 64} // 0: New's default
	for i := 0; i < nodes; i++ {
		if shards[i] > 0 {
			servers[i] = newSharded(cfgs[i], shards[i])
		} else {
			servers[i] = New(cfgs[i])
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		go servers[i].Serve(l)
		addrs[i] = l.Addr().String()
		p, err := Dial(addrs[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		pushers[i] = p
		c, err := Dial(addrs[i], 2)
		if err != nil {
			t.Fatal(err)
		}
		set.add(fmt.Sprintf("n%d", i), c)
	}
	defer func() {
		for i := 0; i < nodes; i++ {
			pushers[i].Close()
			listeners[i].Close()
		}
	}()

	o := newCOracle()
	var stop atomic.Bool
	var hits atomic.Int64
	var wg sync.WaitGroup

	// Invalidation pusher: the single stream owner. Records each message in
	// the oracle, then delivers it to every node in timestamp order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for o.now() < maxTS {
			tags := map[string]bool{}
			wild := rng.Intn(40) == 0
			if !wild {
				for n := rng.Intn(2) + 1; n > 0; n-- {
					tags[keys[rng.Intn(keyCount)]] = true
				}
			}
			ts, m := o.record(tags, wild)
			msg := invalidation.Message{TS: ts, WallTime: time.Unix(int64(ts), 0)}
			if m.wild {
				msg.Tags = []invalidation.TagID{invalidation.Intern(invalidation.Tag{Table: "t", Wildcard: true})}
			} else {
				for k := range m.keys {
					msg.Tags = append(msg.Tags, invalidation.Intern(invalidation.KeyTag("t", "k", k)))
				}
			}
			for i := range pushers {
				for pushers[i].PushInvalidation(context.Background(), msg) != nil {
					time.Sleep(time.Millisecond) // redialing; the stream may pause but not drop
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
		stop.Store(true)
	}()

	// Put workers: still-valid and historical versions routed by the ring.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for !stop.Load() {
				key := keys[rng.Intn(keyCount)]
				c := set.pick(key)
				if c == nil {
					continue
				}
				if rng.Intn(3) > 0 {
					prefix := rng.Intn(4) == 0
					f, ok := o.allocStill(key, prefix)
					if !ok {
						time.Sleep(50 * time.Microsecond)
						continue
					}
					if prefix {
						c.Put(key, []byte(cdata(key, f.lo)), interval.Interval{Lo: f.lo, Hi: f.lo + 1}, false, 0, nil)
					}
					c.Put(key, []byte(cdata(key, f.lo)), interval.Interval{Lo: f.lo, Hi: interval.Infinity},
						true, f.lo, ids([]invalidation.Tag{invalidation.KeyTag("t", "k", key)}))
				} else {
					f, ok := o.allocBounded(key, interval.Timestamp(rng.Intn(4)))
					if !ok {
						time.Sleep(50 * time.Microsecond)
						continue
					}
					c.Put(key, []byte(cdata(key, f.lo)), interval.Interval{Lo: f.lo, Hi: f.hi}, false, 0, nil)
				}
			}
		}(w)
	}

	// Lookup workers: pipelined lookups, some through LookupBatch, each
	// answer validated against the oracle.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for !stop.Load() {
				now := o.now()
				reqLo := interval.Timestamp(rng.Int63n(int64(now)) + 1)
				reqHi := reqLo + interval.Timestamp(rng.Intn(8))
				if rng.Intn(4) == 0 {
					// A LookupBatch of a few keys, sent to the first key's ring owner.
					key := keys[rng.Intn(keyCount)]
					c := set.pick(key)
					if c == nil {
						continue
					}
					reqs := []BatchLookup{{Key: key, Lo: reqLo, Hi: reqHi, OrigLo: 0, OrigHi: interval.Infinity}}
					for n := rng.Intn(3); n > 0; n-- {
						reqs = append(reqs, BatchLookup{Key: keys[rng.Intn(keyCount)], Lo: reqLo, Hi: reqHi, OrigLo: 0, OrigHi: interval.Infinity})
					}
					for i, r := range c.LookupBatch(context.Background(), reqs) {
						if r.Found {
							hits.Add(1)
							o.checkFound(t, reqs[i].Key, reqLo, reqHi, r, false)
						}
					}
					continue
				}
				key := keys[rng.Intn(keyCount)]
				c := set.pick(key)
				if c == nil {
					continue
				}
				if r := c.Lookup(context.Background(), key, reqLo, reqHi, 0, interval.Infinity); r.Found {
					hits.Add(1)
					o.checkFound(t, key, reqLo, reqHi, r, false)
				}
			}
		}(w)
	}

	// Churner: cycles nodes out of the ring (closing their client
	// mid-workload) and back in on a fresh connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for !stop.Load() {
			time.Sleep(5 * time.Millisecond)
			i := rng.Intn(nodes)
			name := fmt.Sprintf("n%d", i)
			if c := set.remove(name); c != nil {
				c.Close()
			}
			time.Sleep(2 * time.Millisecond)
			nc, err := Dial(addrs[i], 2)
			if err != nil {
				t.Errorf("churn redial: %v", err)
				return
			}
			set.add(name, nc)
		}
	}()

	wg.Wait()

	// Quiesce: close every client, then advance every node's horizon to a
	// final sentinel timestamp so still-valid bounds are deterministic.
	set.mu.Lock()
	for _, c := range set.m {
		c.Close()
	}
	set.mu.Unlock()
	finalTS, _ := o.record(nil, false)
	final := invalidation.Message{TS: finalTS, WallTime: time.Unix(int64(finalTS), 0)}
	for i := range pushers {
		if err := pushers[i].PushInvalidation(context.Background(), final); err != nil {
			t.Fatalf("final push: %v", err)
		}
	}
	for i, s := range servers {
		deadline := time.Now().Add(5 * time.Second)
		for s.LastInvalidation() < finalTS {
			if time.Now().After(deadline) {
				t.Fatalf("node %d never reached sentinel %d (at %d)", i, finalTS, s.LastInvalidation())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Full sweep over fresh connections using LookupBatch: probe every
	// fact's generating timestamp on every node and validate whatever is
	// returned. Nodes may have dropped puts; they may not invent versions
	// or misreport validity.
	o.mu.Lock()
	var probes []BatchLookup
	for key, m := range o.facts {
		for lo := range m {
			probes = append(probes, BatchLookup{Key: key, Lo: lo, Hi: lo, OrigLo: 0, OrigHi: interval.Infinity})
		}
	}
	o.mu.Unlock()
	swept := 0
	for i := range servers {
		c, err := Dial(addrs[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range c.LookupBatch(context.Background(), probes) {
			if r.Found {
				swept++
				o.checkFound(t, probes[j].Key, probes[j].Lo, probes[j].Hi, r, true)
			}
		}
		c.Close()
	}

	var puts, invals uint64
	for i, s := range servers {
		st := s.Stats()
		puts += st.Puts
		invals += st.Invalidations
		if cap := cfgs[i].CapacityBytes; cap > 0 && st.BytesUsed > cap {
			t.Errorf("node %d over budget: %d bytes used, budget %d (evictedCapacity=%d)",
				i, st.BytesUsed, cap, st.EvictedCapacity)
		}
	}
	if st := servers[1].Stats(); st.EvictedCapacity == 0 {
		t.Logf("budgeted node never evicted (used=%d of %d) — budget check vacuous this run", st.BytesUsed, budgetBytes)
	}
	if puts == 0 || invals == 0 || hits.Load() == 0 || swept == 0 {
		t.Fatalf("vacuous run: puts=%d invals=%d live-hits=%d swept=%d", puts, invals, hits.Load(), swept)
	}
}

// ids hashes struct-form tags for the server API; the oracle itself keeps
// the struct form, so these tests double as an equivalence check between
// ID matching and the paper's string-form tag semantics.
func ids(tags []invalidation.Tag) []invalidation.TagID {
	out := make([]invalidation.TagID, len(tags))
	for i, t := range tags {
		out[i] = invalidation.Intern(t)
	}
	return out
}
