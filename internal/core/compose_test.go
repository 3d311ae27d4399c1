package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/sql"
)

// compose_test.go covers still-valid composition (paper §6.3, DESIGN.md
// "Still-valid composition"): a cacheable result built from still-valid
// cache HITS is itself installed still-valid, under the union of the hits'
// tags, with a generating snapshot no node that served a hit had moved past.

// heldRig is a deployment whose invalidation stream the test delivers by
// hand, node by node, so every interleaving of lookup, commit, delivery and
// put is chosen rather than raced.
type heldRig struct {
	rig
	subs []*invalidation.Subscription

	get, sum, sumPlus Cacheable[int64]
	// hook, when set, runs inside sum after its inner calls returned and
	// before its result is installed.
	hook func()
}

const composeAccounts = 3

// newHeldRig boots one node per config over an accounts table of
// composeAccounts rows worth 10 each and a table other (row 0 is read by
// sumPlus, row 1 is there to be written), everything delivered.
func newHeldRig(t *testing.T, nodeCfgs []cacheserver.Config, cfgMod func(*Config)) *heldRig {
	t.Helper()
	clk := &clock.Virtual{}
	bus := invalidation.NewBus(false)
	engine := db.New(db.Options{Clock: clk, Bus: bus})
	pc := pincushion.New(pincushion.Config{Clock: clk, DB: engine, Retention: time.Minute})
	r := &heldRig{rig: rig{clk: clk, engine: engine, bus: bus, pc: pc}}
	nodeMap := make(map[string]cacheserver.Node, len(nodeCfgs))
	for i, nc := range nodeCfgs {
		nc.Clock = clk
		n := cacheserver.New(nc)
		sub := bus.Subscribe()
		t.Cleanup(sub.Close)
		r.nodes = append(r.nodes, n)
		r.subs = append(r.subs, sub)
		nodeMap[fmt.Sprintf("node%d", i)] = n
	}
	cfg := Config{DB: EngineDB{engine}, Nodes: nodeMap, Pincushion: pc, Clock: clk}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	r.client = NewClient(cfg)

	for _, ddl := range []string{
		`CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance BIGINT)`,
		`CREATE TABLE other (id BIGINT PRIMARY KEY, v BIGINT)`,
	} {
		if err := engine.DDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < composeAccounts; i++ {
		r.commit(t, "INSERT INTO accounts (id, balance) VALUES (?, 10)", int64(i))
	}
	r.commit(t, "INSERT INTO other (id, v) VALUES (0, 0)")
	r.commit(t, "INSERT INTO other (id, v) VALUES (1, 0)")
	r.deliverAll(t)

	r.get = MakeCacheable(r.client, "bal", func(tx *Tx, args ...sql.Value) (int64, error) {
		res, err := tx.Query("SELECT balance FROM accounts WHERE id = ?", args...)
		if err != nil || len(res.Rows) == 0 {
			return 0, fmt.Errorf("bal%v: %d rows, %v", args, len(res.Rows), err)
		}
		return res.Rows[0][0].(int64), nil
	})
	// sum adds up accounts args[1:]; args[0] only varies the cache key, so a
	// test can choose the node the result lands on.
	r.sum = MakeCacheable(r.client, "sum", func(tx *Tx, args ...sql.Value) (int64, error) {
		var total int64
		for _, id := range args[1:] {
			v, err := r.get(tx, id)
			if err != nil {
				return 0, err
			}
			total += v
		}
		if r.hook != nil {
			r.hook()
		}
		return total, nil
	})
	// sumPlus also reads the database itself, inside its own frame.
	r.sumPlus = MakeCacheable(r.client, "sumPlus", func(tx *Tx, args ...sql.Value) (int64, error) {
		res, err := tx.Query("SELECT v FROM other WHERE id = 0")
		if err != nil || len(res.Rows) == 0 {
			return 0, fmt.Errorf("other: %d rows, %v", len(res.Rows), err)
		}
		total := res.Rows[0][0].(int64)
		for _, id := range args {
			v, err := r.get(tx, id)
			if err != nil {
				return 0, err
			}
			total += v
		}
		return total, nil
	})
	return r
}

// commit runs one write statement in its own transaction; no node hears of
// it until the test delivers.
func (r *heldRig) commit(t *testing.T, src string, args ...sql.Value) interval.Timestamp {
	t.Helper()
	tx, err := r.client.Begin(context.Background(), WithReadWrite())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(src, args...); err != nil {
		t.Fatal(err)
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// deliver applies node i's pending stream up to the database's last commit.
func (r *heldRig) deliver(t *testing.T, i int) {
	t.Helper()
	want := r.engine.LastCommit()
	for r.nodes[i].LastInvalidation() < want {
		select {
		case m := <-r.subs[i].C:
			r.nodes[i].ApplyInvalidation(m)
		case <-time.After(5 * time.Second):
			t.Fatalf("node %d: stream dry at %d, want %d", i, r.nodes[i].LastInvalidation(), want)
		}
	}
}

func (r *heldRig) deliverAll(t *testing.T) {
	t.Helper()
	for i := range r.nodes {
		r.deliver(t, i)
	}
}

// ro runs fn in a read-only transaction at the given staleness bound.
func (r *heldRig) ro(t *testing.T, staleness time.Duration, fn func(tx *Tx)) interval.Timestamp {
	t.Helper()
	tx, err := r.client.Begin(context.Background(), WithStaleness(staleness))
	if err != nil {
		t.Fatal(err)
	}
	fn(tx)
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// warm fills the inner entries from the database and returns the snapshot
// the filling transaction pinned.
func (r *heldRig) warm(t *testing.T) interval.Timestamp {
	t.Helper()
	return r.ro(t, time.Minute, func(tx *Tx) {
		for i := int64(0); i < composeAccounts; i++ {
			if v, err := r.get(tx, i); err != nil || v != 10 {
				t.Fatalf("bal(%d) = %d, %v", i, v, err)
			}
		}
	})
}

// moveOn makes every existing pin too old for any staleness bound used here
// (and for FreshPinThreshold), commits to an unrelated table a few times,
// delivers, and pins a fresh snapshot — the state of a busy site a minute
// later.
func (r *heldRig) moveOn(t *testing.T) {
	t.Helper()
	r.clk.Advance(2 * time.Minute)
	for i := 0; i < 3; i++ {
		r.commit(t, "UPDATE other SET v = ? WHERE id = 1", int64(i))
	}
	r.deliverAll(t)
	r.ro(t, 30*time.Second, func(tx *Tx) {
		if _, err := tx.Query("SELECT v FROM other WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	})
}

// args builds sum's argument vector: a salt that places the result on node,
// then every account.
func (r *heldRig) sumArgs(t *testing.T, node int) []sql.Value {
	t.Helper()
	for salt := int64(0); salt < 1000; salt++ {
		args := []sql.Value{salt}
		for i := int64(0); i < composeAccounts; i++ {
			args = append(args, i)
		}
		if r.nodeOf(cacheKey("sum", args)) == node {
			return args
		}
	}
	t.Fatalf("no salt places sum on node %d", node)
	return nil
}

// nodeOf returns the index of the node responsible for key.
func (r *heldRig) nodeOf(key string) int {
	for i, n := range r.nodes {
		if r.client.node(key) == cacheserver.Node(n) {
			return i
		}
	}
	return -1
}

// peek asks the key's node what it holds at timestamp at.
func (r *heldRig) peek(key string, at interval.Timestamp) cacheserver.LookupResult {
	return r.client.node(key).Lookup(context.Background(), key, at, at, 0, interval.Infinity)
}

// tagIDs hashes key tags written "table:column=value" — an ID has no way
// back to its name, so the expectation goes to the IDs — in sorted order.
func tagIDs(names []string) []invalidation.TagID {
	out := make([]invalidation.TagID, len(names))
	for i, name := range names {
		table, key, _ := strings.Cut(name, ":")
		out[i] = invalidation.Intern(invalidation.Tag{Table: table, Key: key})
	}
	slices.Sort(out)
	return out
}

var accountTags = []string{"accounts:id=0", "accounts:id=1", "accounts:id=2"}

// wantStill checks that the node holds key still-valid at its horizon under
// exactly the given tags.
func (r *heldRig) wantStill(t *testing.T, key string, tags []string) {
	t.Helper()
	hz := r.client.node(key).(*cacheserver.Server).LastInvalidation()
	got := r.peek(key, hz)
	if !got.Found || !got.Still || got.Validity.Hi != hz+1 {
		t.Fatalf("at horizon %d: found=%v still=%v validity=%v, want still-valid through the horizon", hz, got.Found, got.Still, got.Validity)
	}
	if ids := slices.Sorted(slices.Values(got.Tags)); !slices.Equal(ids, tagIDs(tags)) {
		t.Fatalf("tags %v, want %v = %v", ids, tags, tagIDs(tags))
	}
}

// wantClosedAt checks that the node holds key valid up to, and not at, hi.
func (r *heldRig) wantClosedAt(t *testing.T, key string, hi interval.Timestamp) {
	t.Helper()
	got := r.peek(key, hi-1)
	if !got.Found || got.Still || got.Validity.Hi != hi || got.Tags != nil {
		t.Fatalf("at %d: found=%v still=%v validity=%v tags=%v, want bounded at %d", hi-1, got.Found, got.Still, got.Validity, got.Tags, hi)
	}
	if got := r.peek(key, hi); got.Found {
		t.Fatalf("still served at %d: %v still=%v", hi, got.Validity, got.Still)
	}
}

// recordingNode keeps every Put the library makes, so a test can hold each
// installed interval against what the database did, whether or not a reader
// ever came by to trip over it.
type recordingNode struct {
	cacheserver.Node
	mu   sync.Mutex
	puts []recordedPut
}

type recordedPut struct {
	key     string
	data    []byte
	iv      interval.Interval
	still   bool
	genSnap interval.Timestamp
}

func (n *recordingNode) Put(key string, data []byte, iv interval.Interval, still bool, genSnap interval.Timestamp, tags []invalidation.TagID) {
	n.mu.Lock()
	n.puts = append(n.puts, recordedPut{key, slices.Clone(data), iv, still, genSnap})
	n.mu.Unlock()
	n.Node.Put(key, data, iv, still, genSnap, tags)
}

// balanceChange is one committed write of ConcurrentFlow: account id was
// set to balance at commit timestamp ts.
type balanceChange struct {
	ts      interval.Timestamp
	id, bal int64
}

// wrongSince looks for a timestamp in [lo, hi] at which account id — worth
// initial before any logged change — was not worth want, and reports the
// first one and what the account was worth there. changes is in commit order.
func wrongSince(changes []balanceChange, initial, id, want int64, lo, hi interval.Timestamp) (interval.Timestamp, int64, bool) {
	cur, since := initial, lo
	for _, c := range changes {
		if c.id != id {
			continue
		}
		if c.ts > hi {
			break
		}
		if c.ts > lo {
			if cur != want {
				break
			}
			since = c.ts
		}
		cur = c.bal
	}
	return since, cur, cur != want
}

// pinLog records every snapshot a read-only transaction of the library runs
// in the present (★) on: the pincushion adopts each, and in ConcurrentFlow
// nothing unpins one before the run ends (no sweeper runs), so the log is the
// set of timestamps any transaction could run at.
type pinLog struct {
	DB
	mu   sync.Mutex
	pins []interval.Timestamp
}

func (l *pinLog) Begin(ctx context.Context, readOnly bool, snap interval.Timestamp) (DBTx, error) {
	tx, err := l.DB.Begin(ctx, readOnly, snap)
	if err == nil && readOnly && snap == 0 {
		l.mu.Lock()
		l.pins = append(l.pins, tx.Snapshot())
		l.mu.Unlock()
	}
	return tx, err
}

// richMasks replays the writers' log (in commit order) into the set of
// accounts worth more than above, as a bit mask, from each change on:
// masks[i] holds over [at[i], at[i+1]).
func richMasks(changes []balanceChange, nAcct int, initial, above int64) (at []interval.Timestamp, masks []uint64) {
	bal := make([]int64, nAcct)
	for i := range bal {
		bal[i] = initial
	}
	mask := func() uint64 {
		var m uint64
		for i, b := range bal {
			if b > above {
				m |= 1 << i
			}
		}
		return m
	}
	at, masks = []interval.Timestamp{0}, []uint64{mask()}
	for _, c := range changes {
		bal[c.id] = c.bal
		at, masks = append(at, c.ts), append(masks, mask())
	}
	return at, masks
}

func TestStillValidComposition(t *testing.T) {
	one := []cacheserver.Config{{}}

	// compose runs sum in its own transaction and checks it was built from
	// cache hits alone: no query, one put.
	compose := func(t *testing.T, r *heldRig, args []sql.Value) {
		t.Helper()
		st := r.client.Stats()
		q0, p0 := st.DBQueries.Load(), st.CachePuts.Load()
		r.ro(t, time.Minute, func(tx *Tx) {
			if v, err := r.sum(tx, args...); err != nil || v != 10*composeAccounts {
				t.Fatalf("sum = %d, %v", v, err)
			}
			if tx.dbSnap != 0 {
				t.Fatalf("composing from hits reached the database (snapshot %d)", tx.dbSnap)
			}
		})
		if q, p := st.DBQueries.Load()-q0, st.CachePuts.Load()-p0; q != 0 || p != 1 {
			t.Fatalf("composition made %d queries and %d puts, want 0 and 1", q, p)
		}
	}

	t.Run("ValidFlow", func(t *testing.T) {
		t.Run("HitsOnlyInstallsStillValidAndOutlivesItsPins", func(t *testing.T) {
			r := newHeldRig(t, one, nil)
			r.warm(t)
			args := r.sumArgs(t, 0)
			compose(t, r, args)
			key := cacheKey("sum", args)
			r.wantStill(t, key, accountTags)

			r.moveOn(t)
			st := r.client.Stats()
			h0, p0, q0 := st.CacheHits.Load(), st.CachePuts.Load(), st.DBQueries.Load()
			ts := r.ro(t, 30*time.Second, func(tx *Tx) {
				if v, err := r.sum(tx, args...); err != nil || v != 30 {
					t.Fatalf("sum after the pins moved on = %d, %v", v, err)
				}
			})
			if h, p, q := st.CacheHits.Load()-h0, st.CachePuts.Load()-p0, st.DBQueries.Load()-q0; h != 1 || p != 0 || q != 0 {
				t.Fatalf("a minute later: %d hits, %d puts, %d queries; want the one outer hit and no recomputation", h, p, q)
			}
			if ts != r.engine.LastCommit() {
				t.Fatalf("served at %d, want the fresh pin %d", ts, r.engine.LastCommit())
			}
			r.wantStill(t, key, accountTags)
		})

		t.Run("OwnQueryPlusHitsUnitesTheTags", func(t *testing.T) {
			r := newHeldRig(t, one, nil)
			r.warm(t)
			ids := []sql.Value{int64(0), int64(1), int64(2)}
			r.ro(t, time.Minute, func(tx *Tx) {
				if v, err := r.sumPlus(tx, ids...); err != nil || v != 30 {
					t.Fatalf("sumPlus = %d, %v", v, err)
				}
				if tx.dbSnap == 0 {
					t.Fatal("sumPlus never reached the database")
				}
			})
			key := cacheKey("sumPlus", ids)
			r.wantStill(t, key, append(append([]string(nil), accountTags...), "other:id=0"))
			upd := r.commit(t, "UPDATE other SET v = 5 WHERE id = 0")
			r.deliverAll(t)
			r.wantClosedAt(t, key, upd)
		})

		t.Run("TwoNodesTheOutersNodeAhead", func(t *testing.T) {
			r := newHeldRig(t, []cacheserver.Config{{}, {}}, nil)
			r.warm(t)
			// The result goes to the node that does not hold bal(0), and only
			// that node hears of the next two commits.
			outer := 1 - r.nodeOf(cacheKey("bal", []sql.Value{int64(0)}))
			args := r.sumArgs(t, outer)
			r.commit(t, "UPDATE other SET v = 1 WHERE id = 1")
			r.commit(t, "UPDATE other SET v = 2 WHERE id = 1")
			r.deliver(t, outer) // the other node stays two commits behind
			compose(t, r, args)
			// The outer's node replayed the two commits the inners' node has
			// not seen against the inherited tags, found nothing, and serves
			// the result through its own, later horizon.
			r.wantStill(t, cacheKey("sum", args), accountTags)
		})

		t.Run("NoConsistencyMode", func(t *testing.T) {
			r := newHeldRig(t, one, func(c *Config) { c.NoConsistency = true })
			r.warm(t)
			args := r.sumArgs(t, 0)
			compose(t, r, args)
			key := cacheKey("sum", args)
			r.wantStill(t, key, accountTags)
			upd := r.commit(t, "UPDATE accounts SET balance = 11 WHERE id = 2")
			r.deliverAll(t)
			r.wantClosedAt(t, key, upd)
		})
	})

	t.Run("RejectionFlow", func(t *testing.T) {
		t.Run("BoundedInnerBoundsTheOuter", func(t *testing.T) {
			r := newHeldRig(t, one, nil)
			pin := r.warm(t)
			upd := r.commit(t, "UPDATE accounts SET balance = 11 WHERE id = 1")
			r.deliverAll(t)
			// The only fresh pin predates the update, so bal(1) hits its
			// closed version and the sum is history: bounded, no tags.
			args := r.sumArgs(t, 0)
			compose(t, r, args)
			if got := r.peek(cacheKey("sum", args), pin); !got.Found || got.Still {
				t.Fatalf("at the old pin %d: found=%v still=%v", pin, got.Found, got.Still)
			}
			r.wantClosedAt(t, cacheKey("sum", args), upd)
		})

		t.Run("HistoryFloorAboveTheGeneratingSnapshot", func(t *testing.T) {
			// Each node keeps one message of history. The node holding
			// bal(0) is held back; the result goes to the other one.
			r := newHeldRig(t, []cacheserver.Config{{HistoryLen: 1}, {HistoryLen: 1}}, nil)
			r.warm(t)
			held := r.nodeOf(cacheKey("bal", []sql.Value{int64(0)}))
			behind := r.nodes[held].LastInvalidation()
			for i := 0; i < 4; i++ {
				r.commit(t, "UPDATE other SET v = ? WHERE id = 1", int64(i))
			}
			r.deliver(t, 1-held)
			args := r.sumArgs(t, 1-held)
			compose(t, r, args)
			// The outer's node cannot prove the inherited tags untouched
			// since the held node's horizon, so it keeps only what the
			// transaction proved.
			r.wantClosedAt(t, cacheKey("sum", args), behind+1)
		})

		t.Run("TwoNodesTheOutersNodeSawAnInnersUpdate", func(t *testing.T) {
			r := newHeldRig(t, []cacheserver.Config{{}, {}}, nil)
			r.warm(t)
			// Update row 0, tell only the node that does NOT hold bal(0),
			// and put the composed result there.
			held := r.nodeOf(cacheKey("bal", []sql.Value{int64(0)}))
			upd := r.commit(t, "UPDATE accounts SET balance = 99 WHERE id = 0")
			r.deliver(t, 1-held)
			args := r.sumArgs(t, 1-held)
			// The held node still serves bal(0) = 10 as still-valid —
			// correct at the old pin, which is all the transaction can run
			// at. The outer's node must not let a sum built on it outlive
			// the update it has itself seen.
			compose(t, r, args)
			r.wantClosedAt(t, cacheKey("sum", args), upd)
		})

		t.Run("ALaterCommitCannotVouchForAnEarlierRead", func(t *testing.T) {
			r := newHeldRig(t, one, nil)
			// both reads other row 0 — unbounded when it is read — then, after
			// the hook, account 0 at the same snapshot.
			var hook func()
			both := MakeCacheable(r.client, "both", func(tx *Tx, _ ...sql.Value) (int64, error) {
				res, err := tx.Query("SELECT v FROM other WHERE id = 0")
				if err != nil || len(res.Rows) == 0 {
					return 0, fmt.Errorf("other: %d rows, %v", len(res.Rows), err)
				}
				if hook != nil {
					hook()
				}
				bal, err := r.get(tx, int64(0))
				return res.Rows[0][0].(int64) + bal, err
			})
			// Between the two reads other row 0 changes at T, a reader pins T
			// (every older pin has aged out, so it takes ★), and account 0
			// changes at T+1: the second read comes back bounded at T+1.
			var T interval.Timestamp
			hook = func() {
				T = r.commit(t, "UPDATE other SET v = 7 WHERE id = 0")
				r.clk.Advance(2 * time.Minute)
				if at := r.ro(t, 30*time.Second, func(tx *Tx) {
					if _, err := tx.Query("SELECT v FROM other WHERE id = 1"); err != nil {
						t.Fatal(err)
					}
				}); at != T {
					t.Fatalf("the reader pinned %d, want T = %d", at, T)
				}
				if upd := r.commit(t, "UPDATE accounts SET balance = 11 WHERE id = 0"); upd != T+1 {
					t.Fatalf("account 0 changed at %d, want T+1 = %d", upd, T+1)
				}
			}
			snap := r.ro(t, time.Minute, func(tx *Tx) {
				if v, err := both(tx); err != nil || v != 10 {
					t.Fatalf("both = %d, %v", v, err)
				}
			})
			hook = nil
			r.deliverAll(t)
			// The first read was checked at the transaction's snapshot and no
			// later; the bound the second read brought back says nothing
			// about other row 0 in between.
			key := cacheKey("both", nil)
			r.wantClosedAt(t, key, snap+1)
			if got := r.peek(key, T); got.Found {
				t.Fatalf("served at T = %d, where other row 0 had changed: %v still=%v", T, got.Validity, got.Still)
			}
			if at := r.ro(t, 30*time.Second, func(tx *Tx) {
				v, err := both(tx)
				if err != nil {
					t.Fatal(err)
				}
				res, err := tx.Query("SELECT v FROM other WHERE id = 0")
				if err != nil {
					t.Fatal(err)
				}
				bal, err := r.get(tx, int64(0))
				if o := res.Rows[0][0].(int64); err != nil || v != o+bal {
					t.Fatalf("%v: both = %d but other row 0 = %d and bal(0) = %d (%v) in the same transaction", tx, v, o, bal, err)
				}
			}); at != T {
				t.Fatalf("the reader ran at %d, want the pin at T = %d", at, T)
			}
		})
	})

	t.Run("Table", func(t *testing.T) {
		// Every inner in turn changes, at every point relative to the
		// outer's lookups and put; the outer always ends exactly at the
		// change.
		timings := []struct {
			name                          string
			duringCompose, deliverBeforeP bool
		}{
			{"AfterThePutByTheStream", false, false},
			{"BetweenLookupAndPutByHistoryReplay", true, true},
			{"BetweenLookupAndPutDeliveredAfter", true, false},
		}
		for _, tm := range timings {
			for id := int64(0); id < composeAccounts; id++ {
				t.Run(fmt.Sprintf("%s/Inner%d", tm.name, id), func(t *testing.T) {
					r := newHeldRig(t, one, nil)
					r.warm(t)
					args := r.sumArgs(t, 0)
					var upd interval.Timestamp
					change := func() {
						upd = r.commit(t, "UPDATE accounts SET balance = 11 WHERE id = ?", id)
					}
					if tm.duringCompose {
						r.hook = func() {
							change()
							if tm.deliverBeforeP {
								r.deliverAll(t)
							}
						}
					}
					compose(t, r, args)
					r.hook = nil
					if !tm.duringCompose {
						r.wantStill(t, cacheKey("sum", args), accountTags)
						change()
					}
					r.deliverAll(t)
					r.wantClosedAt(t, cacheKey("sum", args), upd)

					r.moveOn(t)
					r.ro(t, 30*time.Second, func(tx *Tx) {
						if v, err := r.sum(tx, args...); err != nil || v != 31 {
							t.Fatalf("sum after the change = %d, %v; want 31", v, err)
						}
					})
				})
			}
		}
	})

	t.Run("ConcurrentFlow", func(t *testing.T) {
		// Writers change single balances; readers take the whole vector
		// through a composed entry and each balance on its own in the same
		// transaction. One snapshot means the two always agree; a composed
		// entry that outlived an inner's invalidation would not.
		//
		// That catches a bad entry only if a reader meets it in time, so the
		// nodes also record every put and the writers every change: afterwards
		// each installed interval is held against the whole history.
		//
		// The writers vacuum every few commits, so the versions that die
		// between two pins are reclaimed while older pins are still read.
		// A point select's interval is its visible version's own, exact
		// at every timestamp; a predicate scan's (rich, below) may lose
		// the mask of a reclaimed version and reach past the truth, but
		// only where no snapshot is pinned, now or later — so its puts
		// are held to the history at every pinned timestamp they cover.
		var recs []*recordingNode
		pins := &pinLog{}
		r := newRig(t, 2, func(c *Config) {
			for name, n := range c.Nodes {
				rec := &recordingNode{Node: n}
				recs = append(recs, rec)
				c.Nodes[name] = rec
			}
			pins.DB, c.DB = c.DB, pins
		})
		const nAcct, initial = 6, 100
		setupAccounts(t, r, nAcct, initial)
		var logMu sync.Mutex
		var changes []balanceChange
		get := getBalanceFn(r)
		all := MakeCacheable(r.client, "allBalances", func(tx *Tx, _ ...sql.Value) ([]int64, error) {
			out := make([]int64, nAcct)
			for i := range out {
				v, err := get(tx, int64(i))
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		})
		const richAbove = 500
		rich := MakeCacheable(r.client, "rich", func(tx *Tx, args ...sql.Value) ([]int64, error) {
			res, err := tx.Query("SELECT id FROM accounts WHERE balance > ?", args...)
			if err != nil {
				return nil, err
			}
			ids := make([]int64, 0, len(res.Rows))
			for _, row := range res.Rows {
				ids = append(ids, row[0].(int64))
			}
			slices.Sort(ids)
			return ids, nil
		})

		stop := make(chan struct{})
		errs := make(chan error, 16)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					var c balanceChange
					ts, err := r.client.ReadWrite(context.Background(), func(tx *Tx) error {
						c.bal, c.id = int64(rng.Intn(1000)), int64(rng.Intn(nAcct))
						_, err := tx.Exec("UPDATE accounts SET balance = ? WHERE id = ?", c.bal, c.id)
						return err
					})
					if err != nil {
						errs <- err
						return
					}
					c.ts = ts
					logMu.Lock()
					changes = append(changes, c)
					logMu.Unlock()
					if c.ts%3 == 0 {
						r.engine.Vacuum()
					}
					time.Sleep(200 * time.Microsecond)
				}
			}(int64(w + 1))
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed * 31))
				for {
					select {
					case <-stop:
						return
					default:
					}
					tx, err := r.client.Begin(context.Background(), WithStaleness(time.Duration(rng.Intn(20))*time.Second))
					if err != nil {
						errs <- err
						return
					}
					vec, err := all(tx)
					for i := 0; err == nil && i < nAcct; i++ {
						var v int64
						if v, err = get(tx, int64(i)); err == nil && v != vec[i] {
							err = fmt.Errorf("%v: composed balance[%d] = %d but bal(%d) = %d in the same transaction", tx, i, vec[i], i, v)
						}
					}
					if err == nil {
						var ids []int64
						if ids, err = rich(tx, int64(richAbove)); err == nil {
							want := []int64{}
							for i, b := range vec {
								if b > richAbove {
									want = append(want, int64(i))
								}
							}
							if !slices.Equal(ids, want) {
								err = fmt.Errorf("%v: rich = %v but the balances %v in the same transaction make it %v", tx, ids, vec, want)
							}
						}
					}
					tx.Commit()
					if err != nil {
						errs <- err
						return
					}
				}
			}(int64(g + 1))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.clk.Advance(time.Second)
				time.Sleep(5 * time.Millisecond)
			}
		}()
		time.Sleep(time.Second)
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if st := r.client.Stats(); st.CacheHits.Load() == 0 || st.CachePuts.Load() == 0 {
			t.Fatal("vacuous run: the cache was never used")
		}

		// A bounded [Lo, Hi) claims its value at every timestamp in it; a
		// still-valid one at every timestamp from Lo to its generating
		// snapshot (what happens after that is the node's to decide).
		slices.SortFunc(changes, func(a, b balanceChange) int { return cmp.Compare(a.ts, b.ts) })
		slices.Sort(pins.pins)
		pinned := slices.Compact(pins.pins)
		at, masks := richMasks(changes, nAcct, initial, richAbove)
		scalar, vector := mustPlan[int64](t), mustPlan[[]int64](t)
		account := map[string]int64{} // getBalance's keys
		for id := int64(0); id < nAcct; id++ {
			account[cacheKey("getBalance", []sql.Value{id})] = id
		}
		richKey := cacheKey("rich", []sql.Value{int64(richAbove)})
		checked, scans, wider := 0, 0, 0
		for _, rec := range recs {
			for _, p := range rec.puts {
				last := p.iv.Hi - 1
				if p.still {
					last = p.genSnap
				}
				if p.key == richKey {
					var ids []int64
					if err := vector.decode(p.data, reflect.ValueOf(&ids).Elem()); err != nil {
						t.Fatalf("put of %q: %v", p.key, err)
					}
					var claim uint64
					for _, id := range ids {
						claim |= 1 << id
					}
					// Walk the stretches of one truth across [Lo, last].
					off := false
					for i := sort.Search(len(at), func(i int) bool { return at[i] > p.iv.Lo }) - 1; i < len(at) && at[i] <= last; i++ {
						if masks[i] == claim {
							continue
						}
						from, to := max(at[i], p.iv.Lo), last
						if i+1 < len(at) {
							to = min(to, at[i+1]-1)
						}
						if j, _ := slices.BinarySearch(pinned, from); j < len(pinned) && pinned[j] <= to {
							t.Errorf("put of rich %v %v still=%v genSnap=%d is wrong at pinned snapshot %d: %#b there", ids, p.iv, p.still, p.genSnap, pinned[j], masks[i])
						}
						off = true
					}
					scans++
					if off {
						wider++
					}
					continue
				}
				// vals[j] is what the put says account first+j was worth.
				first, single := account[p.key]
				vals := make([]int64, 1)
				var err error
				if single {
					err = scalar.decode(p.data, reflect.ValueOf(&vals[0]).Elem())
				} else {
					err = vector.decode(p.data, reflect.ValueOf(&vals).Elem())
				}
				if err != nil || !single && (p.key != cacheKey("allBalances", nil) || len(vals) != nAcct) {
					t.Fatalf("put of %q: %v, %v", p.key, vals, err)
				}
				for j, v := range vals {
					id := first + int64(j)
					if at, was, wrong := wrongSince(changes, initial, id, v, p.iv.Lo, last); wrong {
						t.Errorf("put of %q %v still=%v genSnap=%d says account %d = %d, but from %d it was %d", p.key, p.iv, p.still, p.genSnap, id, v, at, was)
					}
				}
				checked++
			}
		}
		if checked == 0 || scans == 0 {
			t.Fatalf("vacuous oracle: %d point and %d scan puts recorded", checked, scans)
		}
		// Not an error: a scan put whose interval reaches past the truth
		// where no snapshot was pinned is what the pin-set rule allows.
		t.Logf("%d point puts exact; %d scan puts over %d pinned snapshots, %d of them wider than the truth at an unpinned timestamp",
			checked, scans, len(pinned), wider)
	})
}

// mustPlan compiles the codec MakeCacheable would use for T.
func mustPlan[T any](t *testing.T) *plan {
	t.Helper()
	p, err := planOf(reflect.TypeFor[T]())
	if err != nil {
		t.Fatal(err)
	}
	return p
}
