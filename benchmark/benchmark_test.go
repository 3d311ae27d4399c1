package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/rubis"
	"txcache/internal/sql"
)

// TestWorkloadsEmitEveryMetric runs every workload both ways on the small
// dataset with one-second runs and checks that each run is accepted by its
// own correctness checks and reports exactly the metrics the tables name,
// all finite.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		if w.cacheBytes == coldCacheBytes {
			// The small dataset's working set is a fraction of the full
			// one's; shrink the cold cache with it.
			w.cacheBytes = 16 << 10
		}
		if w.minWriteShare < 0.01 {
			// A phase of a second or less sees a handful of the browsing
			// mix's rare registrations, or none.
			w.minWriteShare, w.maxWriteShare = 0, 0.02
		}
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = tracedMetrics
			}
			res, err := run(runSpec{
				w: w, seed: 7, seconds: 1, trace: trace, outDir: t.TempDir(),
				scale: rubis.TestScale, warmup: 2000, setups: 1,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, trace, res.Attempted, res.Failed)
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s is %v", w.name, trace, d.name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, want %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestProbesEmitTheirMetrics runs the layer probes and checks they report
// every probe metric the table names and nothing else.
func TestProbesEmitTheirMetrics(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	got := map[string]float64{}
	if err := runProbes(func(name, _ string, v float64, _ int) { got[name] = v }); err != nil {
		t.Fatal(err)
	}
	for _, d := range probeMetrics {
		if v, ok := got[d.name]; !ok || !(v > 0) {
			t.Errorf("probe metric %s = %v, %v", d.name, v, ok)
		}
	}
	if len(got) != len(probeMetrics) {
		t.Errorf("probes reported %d metrics, the table names %d", len(got), len(probeMetrics))
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(start, end int64) span { return span{start: start, end: end} }
	cases := []struct {
		name     string
		parent   span
		children []span
		want     int64
	}{
		{"no children", sp(0, 100), nil, 100},
		{"adjacent", sp(0, 100), []span{sp(10, 30), sp(30, 50)}, 60},
		{"disjoint", sp(0, 100), []span{sp(10, 20), sp(60, 90)}, 60},
		{"overlapping counted once", sp(0, 100), []span{sp(10, 50), sp(30, 70)}, 40},
		{"nested counted once", sp(0, 100), []span{sp(10, 90), sp(20, 30), sp(40, 50)}, 20},
		{"clipped to the parent", sp(50, 100), []span{sp(0, 60), sp(90, 200)}, 30},
		{"outside the parent", sp(50, 100), []span{sp(0, 40), sp(100, 120)}, 50},
		{"unsorted", sp(0, 100), []span{sp(60, 90), sp(10, 20)}, 60},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAnalyse builds two requests by hand and checks the per-request means.
func TestAnalyse(t *testing.T) {
	spans := []span{
		{kind: spServeRequest, parent: -1, start: 0, end: 100},
		{kind: spPinsGetPins, parent: 0, start: 10, end: 30},
		{kind: spCacheLookup, parent: 0, start: 30, end: 60, n1: 1, n2: 500},
		{kind: spServeRequest, parent: -1, start: 200, end: 400},
		{kind: spDBQuery, parent: 3, start: 250, end: 350, n1: 2},
		{kind: spDBCommit, parent: -1, start: 500, end: 600}, // outside any request
		{kind: spRubisInteraction, parent: -1, start: 700, end: 800},
		{kind: spCacheLookup, parent: 6, start: 710, end: 720},
	}
	h := analyse(spans, spServeRequest)
	if h.roots != 2 || h.meanNS != 150 || h.selfNS != 75 {
		t.Errorf("roots %d mean %v self %v, want 2, 150, 75", h.roots, h.meanNS, h.selfNS)
	}
	if ns, calls := h.layerNS("cacheserver"); ns != 30 || calls != 1 {
		t.Errorf("cacheserver: %d ns in %d calls, want 30 in 1", ns, calls)
	}
	if ns, calls := h.layerNS("dbnet"); ns != 100 || calls != 1 {
		t.Errorf("dbnet: %d ns in %d calls, want 100 in 1 (the span outside a request does not count)", ns, calls)
	}
	if h.spans != 5 || h.n2[spCacheLookup] != 500 {
		t.Errorf("spans %d, lookup bytes %d, want 5 and 500", h.spans, h.n2[spCacheLookup])
	}
	if d := analyse(spans, spRubisInteraction); d.roots != 1 || d.selfNS != 90 {
		t.Errorf("direct: roots %d self %v, want 1 and 90", d.roots, d.selfNS)
	}
}

func TestChromeTrace(t *testing.T) {
	rec := newRecorder()
	rec.enabled.Store(true)
	root := rec.beginRoot(spServeRequest)
	rec.leaf(spCacheLookup, rec.now(), 1, 42)
	rec.endRoot(root)
	path := t.TempDir() + "/trace.json"
	if err := writeChromeTrace(path, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]float64
		}
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Name != "serve.request" || doc.TraceEvents[1].Name != "cacheserver.lookup" {
		t.Fatalf("events %+v", doc.TraceEvents)
	}
	if ev := doc.TraceEvents[1]; ev.Args["parent"] != 0 || ev.Args["req"] != 1 || ev.Args["n2"] != 42 {
		t.Errorf("child event args %+v", ev.Args)
	}
}

// The fakes record what reached them and return recognisable values.

type fakeTx struct{ calls []string }

func (f *fakeTx) Query(src string, args ...sql.Value) (*db.Result, error) {
	f.calls = append(f.calls, "query "+src)
	return &db.Result{Rows: [][]sql.Value{{args[0]}}}, nil
}
func (f *fakeTx) Exec(src string, args ...sql.Value) (int, error) {
	f.calls = append(f.calls, "exec "+src)
	return len(args), nil
}
func (f *fakeTx) Commit() (interval.Timestamp, error) {
	f.calls = append(f.calls, "commit")
	return 77, nil
}
func (f *fakeTx) Abort()                       { f.calls = append(f.calls, "abort") }
func (f *fakeTx) Snapshot() interval.Timestamp { return 55 }

type fakeDB struct {
	tx    fakeTx
	calls []string
}

func (f *fakeDB) Begin(_ context.Context, readOnly bool, snap interval.Timestamp) (core.DBTx, error) {
	f.calls = append(f.calls, "begin")
	if !readOnly || snap != 9 {
		panic("arguments changed on the way through")
	}
	return &f.tx, nil
}
func (f *fakeDB) PinLatest() (interval.Timestamp, time.Time) {
	f.calls = append(f.calls, "pin")
	return 12, time.Unix(34, 0)
}
func (f *fakeDB) Unpin(ts interval.Timestamp) { f.calls = append(f.calls, "unpin") }

type fakeNode struct{ calls []string }

func (f *fakeNode) Lookup(_ context.Context, key string, lo, hi, origLo, origHi interval.Timestamp) cacheserver.LookupResult {
	f.calls = append(f.calls, "lookup "+key)
	return cacheserver.LookupResult{Found: lo == 1 && hi == 2 && origLo == 3 && origHi == 4, Data: []byte("abc")}
}
func (f *fakeNode) LookupBatch(_ context.Context, reqs []cacheserver.BatchLookup) []cacheserver.LookupResult {
	f.calls = append(f.calls, "batch")
	return make([]cacheserver.LookupResult, len(reqs))
}
func (f *fakeNode) Put(key string, data []byte, iv interval.Interval, still bool, genSnap interval.Timestamp, tags []invalidation.TagID) {
	f.calls = append(f.calls, "put "+key+" "+string(data))
}
func (f *fakeNode) Stats() cacheserver.Stats { return cacheserver.Stats{Lookups: 5} }
func (f *fakeNode) ResetStats()              { f.calls = append(f.calls, "reset") }

type fakePins struct{ calls []string }

func (f *fakePins) GetPins(_ context.Context, staleness time.Duration) []pincushion.Pin {
	f.calls = append(f.calls, "getpins "+staleness.String())
	return []pincushion.Pin{{TS: 3}, {TS: 4}}
}
func (f *fakePins) Register(ts interval.Timestamp, wall time.Time) {
	f.calls = append(f.calls, "register")
}
func (f *fakePins) Release(tss []interval.Timestamp) { f.calls = append(f.calls, "release") }

// TestDecoratorsForward drives every method of the three interfaces through
// the decorators, tracing off and on, and checks that arguments and results
// pass unchanged and that a span is recorded exactly when tracing is on.
func TestDecoratorsForward(t *testing.T) {
	ctx := context.Background()
	for _, on := range []bool{false, true} {
		rec := newRecorder()
		rec.enabled.Store(on)
		fdb, fnode, fpins := &fakeDB{}, &fakeNode{}, &fakePins{}
		var d core.DB = &tracedDB{inner: fdb, rec: rec}
		var n cacheserver.Node = &tracedNode{inner: fnode, rec: rec}
		var p pincushion.Service = &tracedPins{inner: fpins, rec: rec}

		tx, err := d.Begin(ctx, true, 9)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := tx.Query("q", int64(5)); err != nil || len(r.Rows) != 1 || r.Rows[0][0] != int64(5) {
			t.Errorf("on=%v: query result %+v, %v", on, r, err)
		}
		if got, err := tx.Exec("e", int64(1), int64(2)); err != nil || got != 2 {
			t.Errorf("on=%v: exec = %d, %v", on, got, err)
		}
		if ts, err := tx.Commit(); err != nil || ts != 77 {
			t.Errorf("on=%v: commit = %d, %v", on, ts, err)
		}
		tx.Abort()
		if tx.Snapshot() != 55 {
			t.Errorf("on=%v: snapshot = %d", on, tx.Snapshot())
		}
		if ts, wall := d.PinLatest(); ts != 12 || !wall.Equal(time.Unix(34, 0)) {
			t.Errorf("on=%v: pin latest = %d, %v", on, ts, wall)
		}
		d.Unpin(12)

		if r := n.Lookup(ctx, "k", 1, 2, 3, 4); !r.Found || string(r.Data) != "abc" {
			t.Errorf("on=%v: lookup = %+v", on, r)
		}
		if rs := n.LookupBatch(ctx, make([]cacheserver.BatchLookup, 3)); len(rs) != 3 {
			t.Errorf("on=%v: batch returned %d results", on, len(rs))
		}
		n.Put("k", []byte("v"), interval.Interval{Lo: 1, Hi: 2}, true, 1, nil)
		if n.Stats().Lookups != 5 {
			t.Errorf("on=%v: stats not forwarded", on)
		}
		n.ResetStats()

		if pins := p.GetPins(ctx, time.Second); len(pins) != 2 || pins[1].TS != 4 {
			t.Errorf("on=%v: getpins = %+v", on, pins)
		}
		p.Register(3, time.Unix(1, 0))
		p.Release([]interval.Timestamp{3, 4})

		wantCalls := [][]string{
			{"begin", "pin", "unpin"},
			{"query q", "exec e", "commit", "abort"},
			{"lookup k", "batch", "put k v", "reset"},
			{"getpins 1s", "register", "release"},
		}
		gotCalls := [][]string{fdb.calls, fdb.tx.calls, fnode.calls, fpins.calls}
		if !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Errorf("on=%v: calls reached the layers as %v, want %v", on, gotCalls, wantCalls)
		}

		var kinds []string
		for _, s := range rec.snapshot() {
			kinds = append(kinds, spanNames[s.kind])
		}
		var wantKinds []string
		if on {
			wantKinds = []string{
				"dbnet.begin", "dbnet.query", "dbnet.exec", "dbnet.commit", "dbnet.abort", "dbnet.pin_latest", "dbnet.unpin",
				"cacheserver.lookup", "cacheserver.lookup_batch", "cacheserver.put",
				"pincushion.getpins", "pincushion.register", "pincushion.release",
			}
		}
		if !reflect.DeepEqual(kinds, wantKinds) {
			t.Errorf("on=%v: spans %v, want %v", on, kinds, wantKinds)
		}
	}
}

// syntheticSet has ten runs per workload whose median latency is 1 ms scaled
// by factor, with a spread of about 1%.
func syntheticSet(factor float64) *resultSet {
	set := &resultSet{}
	for _, w := range workloads {
		for i := 0; i < 10; i++ {
			jitter := 1 + 0.002*float64(i-5)
			set.Runs = append(set.Runs, runResult{Workload: w.name, Seed: int64(i), Metrics: map[string]metricValue{
				"lat_p50_ms":  {Value: 1.0 * factor * jitter, Unit: "ms"},
				"live_rss_mb": {Value: 60 * jitter, Unit: "MiB"},
			}})
		}
	}
	return set
}

// TestCompareFlagsARegression: lat_p50_ms may worsen by 20%.
func TestCompareFlagsARegression(t *testing.T) {
	base := syntheticSet(1)
	var out bytes.Buffer
	if n := compareSets(&out, base, syntheticSet(1.10)); n != 0 {
		t.Errorf("a 10%% rise in lat_p50_ms counted as %d regressions:\n%s", n, out.String())
	}
	out.Reset()
	if n := compareSets(&out, base, syntheticSet(1.25)); n != len(workloads) {
		t.Errorf("a 25%% rise in lat_p50_ms counted as %d regressions, want one per workload:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION row in:\n%s", out.String())
	}
	out.Reset()
	if n := compareSets(&out, base, syntheticSet(0.5)); n != 0 {
		t.Errorf("an improvement counted as %d regressions:\n%s", n, out.String())
	}

	// A side whose own runs disagree by more than the bound resolves nothing.
	noisy := syntheticSet(1.25)
	for i := range noisy.Runs {
		m := noisy.Runs[i].Metrics["lat_p50_ms"]
		m.Value *= 1 + 0.5*float64(i%2)
		noisy.Runs[i].Metrics["lat_p50_ms"] = m
	}
	out.Reset()
	if n := compareSets(&out, base, noisy); n != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a noisy side counted as %d regressions, want 0 and an unresolved row:\n%s", n, out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 9})
	if q1 != 1 || q3 != 9 {
		t.Errorf("quartiles of 1,5,9 = %v, %v, want 1, 9", q1, q3)
	}
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables in this
// package together: same workloads, same metrics, units, directions, bounds.
func TestManifestMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the command's default is %v", m.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("manifest workload %q is unknown to the command", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("manifest has workloads %v, the command has %d", names, len(workloads))
	}
	check := func(kind string, got []entry, want []metricDef) {
		g := map[string]entry{}
		for _, e := range got {
			g[e.Name] = e
		}
		if len(g) != len(want) {
			t.Errorf("%s: manifest names %d metrics, the tables %d", kind, len(g), len(want))
		}
		for _, d := range want {
			e, ok := g[d.name]
			if !ok {
				t.Errorf("%s: %s missing from the manifest", kind, d.name)
				continue
			}
			if e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
				t.Errorf("%s: %s is %+v in the manifest, %+v in the tables", kind, d.name, e, d)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	sort.Strings(m.Paths)
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", m.Paths)
	}
}

func TestMixesResolve(t *testing.T) {
	for _, w := range workloads {
		mx := resolveMix(w.mix) // panics unless the weights sum to 1000
		writes := 0
		prev := 0
		for _, e := range mx {
			if e.method == "POST" {
				writes += e.upto - prev
			}
			prev = e.upto
		}
		lo, hi := int(w.minWriteShare*1000), int(w.maxWriteShare*1000)
		if writes < lo || writes > hi {
			t.Errorf("%s: %d/1000 writes in the mix, preconditions allow [%d, %d]", w.name, writes, lo, hi)
		}
	}
}
