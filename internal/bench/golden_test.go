package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/rubis"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_trace.json from this run")

const goldenFile = "testdata/golden_trace.json"

// The trace's shape: interactions per run, the step between two
// sweep-and-vacuum points, the virtual time one interaction takes, and the
// staleness bound (10 paper-seconds, so a run of 2.5 virtual seconds sees
// pins age out of it and get swept).
const (
	traceSteps      = 2500
	traceSweepEvery = 250
	traceTick       = time.Millisecond
	tracePaperSec   = 10
)

// browsingMix is the bidding mix with its read/write interactions taken out:
// a site nobody writes to, whose pins age past the fresh-pin threshold.
func browsingMix() rubis.Mix {
	m := rubis.BiddingMix
	for i := range m {
		if rubis.IsReadWrite(i) {
			m[i] = 0
		}
	}
	return m
}

// writeHeavyMix puts 60% of interactions on the five stores.
var writeHeavyMix = rubis.Mix{
	rubis.IHome:                  40,
	rubis.IBrowseCategories:      60,
	rubis.ISearchItemsInCategory: 100,
	rubis.IViewItem:              120,
	rubis.IViewUserInfo:          40,
	rubis.IViewBidHistory:        40,
	rubis.IStoreBid:              280,
	rubis.IStoreBuyNow:           60,
	rubis.IStoreComment:          120,
	rubis.IRegisterItem:          100,
	rubis.IRegisterUser:          40,
}

// nodeTrace is one cache node's counters at the end of a run.
type nodeTrace struct {
	Lookups         uint64 `json:"lookups"`
	Hits            uint64 `json:"hits"`
	Puts            uint64 `json:"puts"`
	Invalidated     uint64 `json:"invalidated"`
	MissCompulsory  uint64 `json:"missCompulsory"`
	MissConsistency uint64 `json:"missConsistency"`
	MissStaleness   uint64 `json:"missStaleness"`
	MissCapacity    uint64 `json:"missCapacity"`
	Versions        int    `json:"versions"`
}

// runTrace is one run's counters: its two nodes', the library's and the
// engine's.
type runTrace struct {
	Run          string             `json:"run"`
	Nodes        [2]nodeTrace       `json:"nodes"`
	DBQueries    uint64             `json:"dbQueries"`
	PinsPlaced   uint64             `json:"pinsPlaced"`
	SweptRetries uint64             `json:"sweptRetries"`
	LastCommit   interval.Timestamp `json:"lastCommit"`
	DeadVersions int                `json:"deadVersions"`
}

// TestGoldenTrace runs the whole in-process library on one virtual clock,
// from one seeded goroutine, and compares what every tier counted with the
// committed golden file. No outcome in the run depends on the wall clock or
// on another goroutine's timing: after each interaction both nodes have
// applied every commit, and pins age, leases expire and sweeps happen on the
// virtual clock alone (the wall clock reaches only the dates rubis writes
// into rows, which no counter reads). So the counters are a function of the
// code, and a change that claims to keep behaviour must leave the file as it
// is. go test -run TestGoldenTrace -update rewrites it.
func TestGoldenTrace(t *testing.T) {
	mixes := []struct {
		name string
		mix  rubis.Mix
	}{
		{"bidding", rubis.BiddingMix},
		{"browsing", browsingMix()},
		{"write_heavy", writeHeavyMix},
	}
	var got []runTrace
	for i, m := range mixes {
		for _, noCon := range []bool{false, true} {
			mode := ModeTxCache
			if noCon {
				mode = ModeNoConsistency
			}
			got = append(got, traceRun(t, fmt.Sprintf("%s/%s", m.name, mode), m.mix, noCon, int64(i+1)))
		}
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (go test -run TestGoldenTrace -update writes it)", err)
	}
	if !bytes.Equal(out, want) {
		var old []runTrace
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if i >= len(old) || got[i] != old[i] {
				var w runTrace
				if i < len(old) {
					w = old[i]
				}
				t.Errorf("%s moved:\n got %+v\nwant %+v", got[i].Run, got[i], w)
			}
		}
		if len(old) > len(got) {
			t.Errorf("golden file has %d runs, the test %d", len(old), len(got))
		}
	}
}

// traceRun builds one deployment on a virtual clock, drives traceSteps
// interactions of mix through it and returns its counters.
func traceRun(t *testing.T, name string, mix rubis.Mix, noCon bool, seed int64) runTrace {
	t.Helper()
	clk := &clock.Virtual{}
	bus := invalidation.NewBus(false)
	engine := db.New(db.Options{Clock: clk, Bus: bus, VacuumEvery: -1})
	pc := pincushion.New(pincushion.Config{Clock: clk, DB: engine, Staleness: scaled(tracePaperSec + 1)})

	// Unbounded nodes: no eviction, so the shard count (GOMAXPROCS) moves
	// no counter.
	var nodes [2]*cacheserver.Server
	named := make(map[string]cacheserver.Node, len(nodes))
	for i := range nodes {
		nodes[i] = cacheserver.New(cacheserver.Config{Clock: clk})
		sub := bus.Subscribe()
		go nodes[i].ConsumeStream(sub)
		t.Cleanup(sub.Close)
		named[fmt.Sprintf("cache%d", i)] = nodes[i]
	}
	client := core.NewClient(core.Config{
		DB:                core.EngineDB{Engine: engine},
		Nodes:             named,
		Pincushion:        pc,
		Clock:             clk,
		FreshPinThreshold: scaled(5),
		NoConsistency:     noCon,
	})
	defer client.Close()

	ds, err := rubis.Load(engine, rubis.TestScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	app := rubis.NewApp(client, ds)
	settle := func() {
		deadline := time.Now().Add(5 * time.Second)
		for _, n := range nodes {
			for n.LastInvalidation() < engine.LastCommit() {
				if time.Now().After(deadline) {
					t.Fatalf("%s: node horizon %d never reached commit %d", name, n.LastInvalidation(), engine.LastCommit())
				}
				time.Sleep(10 * time.Microsecond)
			}
		}
	}
	settle()

	var total int
	for _, w := range mix {
		total += w
	}
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for step := 1; step <= traceSteps; step++ {
		kind, n := 0, rng.Intn(total)
		for kind = range mix {
			if n -= mix[kind]; n < 0 {
				break
			}
		}
		user := int64(rng.Intn(rubis.TestScale.Users))
		if err := app.DoInteraction(ctx, rng, user, kind, scaled(tracePaperSec)); err != nil {
			t.Fatalf("%s: step %d (interaction %d): %v", name, step, kind, err)
		}
		settle()
		clk.Advance(traceTick)
		if step%traceSweepEvery == 0 {
			pc.Sweep()
			engine.Vacuum()
		}
	}

	st := client.Stats()
	es := engine.Stats()
	if es.StreamDropped != 0 {
		t.Fatalf("%s: the bus lapped a node %d times", name, es.StreamDropped)
	}
	tr := runTrace{
		Run:          name,
		DBQueries:    st.DBQueries.Load(),
		PinsPlaced:   st.PinsPlaced.Load(),
		SweptRetries: st.SweptRetries.Load(),
		LastCommit:   es.LastCommitTS,
		DeadVersions: es.DeadVersions,
	}
	for i, n := range nodes {
		ns := n.Stats()
		tr.Nodes[i] = nodeTrace{
			Lookups: ns.Lookups, Hits: ns.Hits, Puts: ns.Puts, Invalidated: ns.Invalidated,
			MissCompulsory: ns.MissCompulsory, MissConsistency: ns.MissConsistency,
			MissStaleness: ns.MissStaleness, MissCapacity: ns.MissCapacity,
			Versions: ns.Versions,
		}
	}
	return tr
}
