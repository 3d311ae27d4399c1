package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/rubis"
	"txcache/internal/serve"
)

// Constants of the load shape. Like the topology's, they define the
// benchmark; run length is --seconds, which the driver fixes.
const (
	loadClients    = 2    // client connections and load goroutines, closed and open phase alike
	warmupRequests = 6000 // closed-loop, counted, not timed
	setupRepeats   = 5    // set-ups per untraced run; setup_s is their median
	phaseWindows   = 20   // a phase is cut into this many windows; see quietest
)

// runSpec is one invocation: one workload, one seed, traced or not.
type runSpec struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string // result and trace files; "" writes none

	scale  rubis.Scale
	warmup int
	setups int
	probes bool
}

// metricValue is one reported number. Samples is how many observations are
// behind it, where that is not one.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is the result schema, one file per (workload, traced or not).
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Phases    map[string]float64     `json:"phase_seconds"`
	OpenRate  float64                `json:"open_rate"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Host      hostInfo               `json:"host"`
}

// counters is every public counter the program exposes, read at one moment.
type counters struct {
	client core.StatsSnapshot
	engine db.Stats
	dur    db.DurabilityStats
	nodes  cacheserver.Stats // summed over the nodes; Horizon is the minimum
	serve  serve.StatsSnapshot
	mem    runtime.MemStats
	cpu    time.Duration
}

func (s *stack) counters() counters {
	c := counters{
		client: s.client.Stats().Snapshot(),
		engine: s.engine.Stats(),
		dur:    s.engine.DurabilityStats(),
		nodes:  s.nodeStats(),
		serve:  s.srv.Stats().Snapshot(),
		cpu:    processCPU(),
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// nodeStats sums the cache nodes' counters; Horizon is the minimum.
func (s *stack) nodeStats() cacheserver.Stats {
	var sum cacheserver.Stats
	for i, n := range s.nodes {
		ns := n.Stats()
		sum.Lookups += ns.Lookups
		sum.Hits += ns.Hits
		sum.Puts += ns.Puts
		sum.Invalidations += ns.Invalidations
		sum.Invalidated += ns.Invalidated
		sum.EvictedCapacity += ns.EvictedCapacity
		sum.EvictedStale += ns.EvictedStale
		sum.BytesUsed += ns.BytesUsed
		if i == 0 || ns.Horizon < sum.Horizon {
			sum.Horizon = ns.Horizon
		}
	}
	return sum
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes is the process's current resident set, from /proc.
func residentBytes() int64 {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(blob))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// sampler polls fn every interval until stopped.
type sampler struct {
	stop, done chan struct{}
}

func startSampler(interval time.Duration, fn func()) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			fn()
			select {
			case <-t.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *sampler) halt() { close(s.stop); <-s.done }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows cuts a phase of length dur into phaseWindows equal windows and
// returns, per window, the latencies of the requests that finished in it.
func windows(lat, doneAt []int64, dur time.Duration) (buckets [][]int64, seconds float64) {
	w := int64(dur) / phaseWindows
	buckets = make([][]int64, phaseWindows)
	for i, t := range doneAt {
		if b := int(t / w); b < phaseWindows {
			buckets[b] = append(buckets[b], lat[i])
		}
	}
	return buckets, time.Duration(w).Seconds()
}

// quietest is the first decile of per-window latencies. On a shared host a
// neighbour's load comes in bursts of a few seconds and only ever adds
// latency, so the quiet windows are the ones that measure the program: over
// ten seeds their latency moved half as much between runs as the median
// window's. What it cannot see is a stall of the program's own that recurs
// less often than every window; loadgen.lat_p99_ms, over the whole phase,
// does.
func quietest(perWindow []float64) float64 {
	if len(perWindow) == 0 {
		return 0
	}
	s := append([]float64(nil), perWindow...)
	sort.Float64s(s)
	return s[len(s)/10]
}

// windowRates returns each window's answered requests per second.
func windowRates(lat, doneAt []int64, dur time.Duration) []float64 {
	buckets, secs := windows(lat, doneAt, dur)
	out := make([]float64, len(buckets))
	for i, b := range buckets {
		out[i] = float64(len(b)) / secs
	}
	return out
}

// windowQuantiles returns the q-quantile of latency within each window that
// saw a request.
func windowQuantiles(lat, doneAt []int64, dur time.Duration, q float64) []float64 {
	buckets, _ := windows(lat, doneAt, dur)
	var out []float64
	for _, b := range buckets {
		if len(b) > 0 {
			out = append(out, float64(quantile(sortedCopy(b), q)))
		}
	}
	return out
}

// delta is the program's counters before and after a phase, with the
// requests the phase answered and how long it took.
type delta struct {
	before, after  counters
	answered, secs float64
}

func (d *delta) client(f func(core.StatsSnapshot) uint64) float64 {
	return float64(f(d.after.client) - f(d.before.client))
}

func (d *delta) hits() float64 {
	return d.client(func(s core.StatsSnapshot) uint64 { return s.CacheHits })
}

func (d *delta) lookups() float64 {
	return d.hits() + d.client(func(s core.StatsSnapshot) uint64 {
		return s.MissCompulsory + s.MissConsistency + s.MissStaleness + s.MissCapacity + s.MissNoPins + s.MissDefensive
	})
}

func (d *delta) hitRatio() float64 { return ratio(d.hits(), d.lookups()) }

func (d *delta) commits() float64 { return float64(d.after.engine.Commits - d.before.engine.Commits) }

// report sets the metrics that come from counters only the program can see.
func (d *delta) report(set func(name, unit string, v float64, samples int)) {
	b, a := &d.before, &d.after
	lookups, commits := d.lookups(), d.commits()
	share := func(f func(core.StatsSnapshot) uint64) float64 { return ratio(d.client(f), lookups) }
	set("serve.shed_share", "ratio", ratio(float64(a.serve.Shed-b.serve.Shed), float64(a.serve.Requests-b.serve.Requests)), 0)
	set("core.lookups_per_req", "count", ratio(lookups, d.answered), 0)
	set("core.db_queries_per_req", "count", ratio(d.client(func(s core.StatsSnapshot) uint64 { return s.DBQueries }), d.answered), 0)
	set("core.puts_per_req", "count", ratio(d.client(func(s core.StatsSnapshot) uint64 { return s.CachePuts }), d.answered), 0)
	set("core.hit_ratio", "ratio", d.hitRatio(), int(lookups))
	set("core.miss_compulsory_share", "ratio", share(func(s core.StatsSnapshot) uint64 { return s.MissCompulsory }), 0)
	set("core.miss_staleness_share", "ratio", share(func(s core.StatsSnapshot) uint64 { return s.MissStaleness + s.MissNoPins }), 0)
	set("core.miss_capacity_share", "ratio", share(func(s core.StatsSnapshot) uint64 { return s.MissCapacity }), 0)
	set("core.miss_consistency_share", "ratio", share(func(s core.StatsSnapshot) uint64 { return s.MissConsistency + s.MissDefensive }), 0)
	evicted := func(c *counters) uint64 { return c.nodes.EvictedCapacity + c.nodes.EvictedStale }
	set("cacheserver.evictions_per_s", "1/s", float64(evicted(a)-evicted(b))/d.secs, 0)
	set("cacheserver.bytes_used_mb", "MiB", float64(a.nodes.BytesUsed)/(1<<20), 0)
	set("cacheserver.invalidated_per_commit", "count", ratio(float64(a.nodes.Invalidated-b.nodes.Invalidated), commits), 0)
	set("db.commits_per_s", "1/s", commits/d.secs, 0)
	set("db.commits_per_group", "count", ratio(float64(a.dur.GroupedCommits-b.dur.GroupedCommits), float64(a.dur.Groups-b.dur.Groups)), 0)
	set("db.conflicts_per_commit", "count", ratio(float64(a.engine.Conflicts-b.engine.Conflicts), commits), 0)
	set("db.vacuumed_per_s", "1/s", float64(a.engine.Vacuumed-b.engine.Vacuumed)/d.secs, 0)
	set("db.versions_end", "count", float64(a.engine.TotalVersions), 0)
	set("db.checkpoints", "count", float64(a.dur.Checkpoints), 0)
	set("wal.bytes_per_commit", "B", ratio(float64(a.dur.WAL.Bytes-b.dur.WAL.Bytes), commits), 0)
	set("wal.syncs_per_commit", "count", ratio(float64(a.dur.WAL.Syncs-b.dur.WAL.Syncs), commits), 0)
	set("wal.log_mb", "MiB", float64(a.dur.WAL.Bytes)/(1<<20), 0)
	set("proc.cpu_us_per_req", "us", ratio(float64(a.cpu-b.cpu)/1e3, d.answered), int(d.answered))
	set("proc.allocs_per_req", "count", ratio(float64(a.mem.Mallocs-b.mem.Mallocs), d.answered), 0)
	set("proc.alloc_bytes_per_req", "B", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), d.answered), 0)
	set("proc.gc_pause_ms", "ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, int(a.mem.NumGC-b.mem.NumGC))
}

// run executes one invocation and returns its result, or an error when the
// run is not a valid measurement of the workload (a correctness check or a
// precondition failed). An invalid run's numbers come back beside the error
// for diagnosis only; they are never reported as a result.
func run(spec runSpec) (*runResult, error) {
	ctx := context.Background()
	pop := populationOf(spec.scale)
	mx := resolveMix(spec.w.mix)
	res := &runResult{
		Workload: spec.w.name, Seed: spec.seed, Seconds: spec.seconds,
		OpenRate: spec.w.openRate, Phases: map[string]float64{},
		Metrics: map[string]metricValue{},
	}
	phase := func(share float64) time.Duration {
		return time.Duration(spec.seconds * share * float64(time.Second))
	}

	var rec *recorder
	if spec.trace {
		res.Trace = 1
		rec = newRecorder()
	}

	// setUp is what setup_s times: boot, load, attach, counted warm-up.
	setUp := func() (*rig, error) {
		dir, err := os.MkdirTemp("", "txcache-benchmark-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		st, err := startStack(stackConfig{scale: spec.scale, cacheBytes: spec.w.cacheBytes, seed: spec.seed, dir: dir, rec: rec})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("boot: %w", err)
		}
		r := &rig{st: st, load: newHTTPLoad(st.url, mx, pop, loadClients), dir: dir}
		warm := runClosed(ctx, r.load.do, loadClients, spec.seed, 0, spec.warmup/loadClients)
		r.setupSeconds = time.Since(t0).Seconds()
		if warm.failed() > 0 {
			r.stop(ctx)
			return nil, fmt.Errorf("warm-up: %d of %d requests failed %v", warm.failed(), warm.attempted(), warm.counts)
		}
		return r, nil
	}
	r, err := setUp()
	if err != nil {
		return nil, err
	}
	st, load := r.st, r.load
	setupTimes := []float64{r.setupSeconds}

	set := func(name, unit string, v float64, samples int) {
		res.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: samples}
	}

	// The program's counters are diffed over the phase that carries the run:
	// the open phase untraced, the closed phase traced. The workload's
	// preconditions are checked on the same phase.
	var d delta
	var open *loadResult
	if !spec.trace {
		// Poisson arrivals at the workload's frozen rate for the whole run.
		d.before = st.counters()
		open = runOpen(ctx, load.do, loadClients, spec.seed+2, spec.w.openRate, phase(1))
		d.after = st.counters()
		d.answered, d.secs = float64(open.answered()), open.elapsed.Seconds()
		res.Phases["open"] = open.elapsed.Seconds()
		res.Attempted, res.Failed = open.attempted(), open.failed()

		// What stays resident once garbage is collected and returned:
		// dataset versions, cache contents, buffers. (The peak depends on
		// where in its cycle the collector happened to be and moves 10-20%
		// between runs; the traced run reports it as proc.peak_rss_mb.)
		// Two collections first: a sync.Pool keeps its contents through one.
		// The runtime still holds back 0-5 MiB of idle heap from one run to
		// the next of the same code; that is its policy, not the program's
		// memory, and is taken off.
		runtime.GC()
		runtime.GC()
		debug.FreeOSMemory()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		liveRSS := residentBytes() - int64(ms.HeapIdle-ms.HeapReleased)
		set("lat_p50_ms", "ms", quietest(windowQuantiles(open.lat, open.doneAt, phase(1), 0.50))/1e6, len(open.lat))
		set("lat_p90_ms", "ms", quietest(windowQuantiles(open.lat, open.doneAt, phase(1), 0.90))/1e6, len(open.lat))
		set("live_rss_mb", "MiB", float64(liveRSS)/(1<<20), 0)
	} else {
		var peakRSS int64
		rss := startSampler(50*time.Millisecond, func() { peakRSS = max(peakRSS, residentBytes()) })
		var lagSum, lagN float64
		lag := startSampler(time.Second, func() {
			if d := float64(st.engine.LastCommit()) - float64(st.nodeStats().Horizon); d >= 0 {
				lagSum, lagN = lagSum+d, lagN+1
			}
		})
		// Closed phase: two callers, no think time.
		d.before = st.counters()
		closed := runClosed(ctx, load.do, loadClients, spec.seed+1, phase(0.25), 0)
		d.after = st.counters()
		d.answered, d.secs = float64(closed.answered()), closed.elapsed.Seconds()
		lag.halt()
		open = runOpen(ctx, load.do, loadClients, spec.seed+2, spec.w.openRate, phase(0.25))
		rss.halt()
		res.Phases["closed"], res.Phases["open"] = closed.elapsed.Seconds(), open.elapsed.Seconds()
		res.Attempted = closed.attempted() + open.attempted()
		res.Failed = closed.failed() + open.failed()
		open.counts[outEmptyBody] += closed.counts[outEmptyBody]

		d.report(set)
		set("serve.not_found_share", "ratio", ratio(float64(closed.counts[outNotFound]), float64(closed.attempted())), 0)
		set("cacheserver.horizon_lag_ts", "ts", ratio(lagSum, lagN), int(lagN))
		set("proc.goroutines_end", "count", float64(runtime.NumGoroutine()), 0)
		set("proc.peak_rss_mb", "MiB", float64(peakRSS)/(1<<20), 0)

		lat := sortedCopy(open.lat)
		set("loadgen.throughput_rps", "req/s", median(windowRates(closed.lat, closed.doneAt, phase(0.25))), len(closed.lat))
		set("loadgen.lat_p99_ms", "ms", float64(quantile(lat, 0.99))/1e6, len(lat))
		set("loadgen.lat_p999_ms", "ms", float64(quantile(lat, 0.999))/1e6, len(lat))
		set("loadgen.lat_samples", "count", float64(len(lat)), 0)
		set("loadgen.lateness_ms_p99", "ms", float64(quantile(sortedCopy(open.lateness), 0.99))/1e6, len(open.lateness))
		set("loadgen.dropped", "count", float64(open.dropped), 0)
		set("loadgen.failed_share", "ratio", ratio(float64(res.Failed), float64(res.Attempted)), int(res.Attempted))

		att, failed := tracedPhases(ctx, st, rec, load.do, mx, pop, spec, phase(1.0/6), set)
		res.Attempted += att
		res.Failed += failed
		for _, n := range []string{"T0", "T1", "T2"} {
			res.Phases[n] = phase(1.0 / 6).Seconds()
		}
	}
	hitRatio, commits := d.hitRatio(), d.commits()

	// Correctness, inside the run.
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if v, err := st.violations(ctx); err != nil {
		bad("statsz: %v", err)
	} else if v > 0 {
		bad("serve reports %d consistency violations", v)
	}
	if n := open.counts[outEmptyBody]; n > 0 {
		bad("%d 2xx responses had an empty body", n)
	}
	if hitRatio < spec.w.minHitRatio || hitRatio > spec.w.maxHitRatio {
		bad("hit ratio %.3f outside the workload's [%.2f, %.2f]", hitRatio, spec.w.minHitRatio, spec.w.maxHitRatio)
	}
	if ws := ratio(commits, d.answered); ws < spec.w.minWriteShare || ws > spec.w.maxWriteShare {
		bad("%.4f commits per request outside the workload's [%.4f, %.4f]", ws, spec.w.minWriteShare, spec.w.maxWriteShare)
	}
	if spec.trace {
		if open.dropped > 0 {
			bad("the open loop dropped %d arrivals: the generator could not keep up", open.dropped)
		}
		if o := res.Metrics["trace.overhead_share"].Value; o > 0.15 {
			bad("tracing overhead %.3f above 0.15", o)
		}
	}
	if err := r.stop(ctx); err != nil {
		bad("%v", err)
	}
	if len(problems) > 0 {
		return res, fmt.Errorf("%s seed %d: invalid run: %s", spec.w.name, spec.seed, strings.Join(problems, "; "))
	}

	// The untraced run sets up several times and reports the median, so one
	// slow boot does not decide the number. The repeats come after the
	// measurement: latency and resident memory are then those of a process
	// that has booted one stack, not of whatever heap the earlier ones left.
	if !spec.trace {
		for i := 1; i < spec.setups; i++ {
			r, err := setUp()
			if err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i+1, err)
			}
			setupTimes = append(setupTimes, r.setupSeconds)
			if err := r.stop(ctx); err != nil {
				return nil, fmt.Errorf("set-up %d teardown: %w", i+1, err)
			}
		}
		set("setup_s", "s", median(setupTimes), len(setupTimes))
	}
	fmt.Fprintf(os.Stderr, "# %s seed=%d: hit ratio %.3f, %.4f commits per request, set-ups %.2f s\n",
		spec.w.name, spec.seed, hitRatio, ratio(commits, d.answered), setupTimes)

	if spec.trace && spec.probes {
		if err := runProbes(set); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	if spec.trace && spec.outDir != "" {
		if err := os.MkdirAll(spec.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeChromeTrace(filepath.Join(spec.outDir, spec.w.name+".trace.json"), rec.snapshot()); err != nil {
			return nil, err
		}
	}
	res.Host = fingerprint()
	return res, nil
}

// traceSlices is how many alternating slices T0 and T1 are each cut into, so
// that drift on the host falls on both alike.
const traceSlices = 8

// tracedPhases runs the three one-client phases on the booted stack: T0 over
// HTTP with tracing off, T1 over HTTP with tracing on, T2 directly on the
// application with tracing on. T0 and T1 alternate in slices; their
// throughput difference is what tracing costs. T2 replays T1's kind of
// stream without HTTP and serve, which isolates the library's own time.
func tracedPhases(ctx context.Context, st *stack, rec *recorder, httpDo doer, mx mix, pop population, spec runSpec, each time.Duration, set func(string, string, float64, int)) (attempted, failed uint64) {
	t0, t1 := &loadResult{}, &loadResult{}
	var slowdown []float64 // per pair of slices: throughput traced / untraced
	for i := int64(0); i < traceSlices; i++ {
		off := runClosed(ctx, httpDo, 1, spec.seed+10+i, each/traceSlices, 0)
		rec.enabled.Store(true)
		on := runClosed(ctx, traced(rec, spServeRequest, httpDo), 1, spec.seed+20+i, each/traceSlices, 0)
		rec.enabled.Store(false)
		t0.merge(off)
		t1.merge(on)
		slowdown = append(slowdown, ratio(float64(on.answered())/on.elapsed.Seconds(), float64(off.answered())/off.elapsed.Seconds()))
	}
	rec.enabled.Store(true)
	t2 := runClosed(ctx, traced(rec, spRubisInteraction, directDoer(st.app, mx, pop)), 1, spec.seed+20, each, 0)
	rec.enabled.Store(false)

	spans := rec.snapshot()
	h, d := analyse(spans, spServeRequest), analyse(spans, spRubisInteraction)
	us := func(ns float64) float64 { return ns / 1e3 }
	perReq := func(v int64) float64 { return ratio(float64(v), float64(h.roots)) }
	q := func(k spanKind, quant float64) (float64, int) {
		s := sortedCopy(h.durs[k])
		return us(float64(quantile(s, quant))), len(s)
	}
	setQ := func(name string, k spanKind, quant float64) {
		v, n := q(k, quant)
		set(name, "us", v, n)
	}

	// The library's own time is the direct interaction minus its calls into
	// the layers; what is left of the HTTP request after its own calls and
	// the library's time is HTTP and serve. (The difference of the two
	// roots would say the same only if a call cost the same in both phases;
	// trace.replay_children_ratio reports whether it did.)
	coreSelf := us(d.selfNS)
	serveSelf := us(h.selfNS) - coreSelf
	set("serve.self_us", "us", serveSelf, h.roots)
	set("serve.http_service_us_p50", "us", us(float64(quantile(sortedCopy(h.rootDurs), 0.5))), h.roots)
	set("core.self_us", "us", coreSelf, d.roots)

	pcNS, pcCalls := h.layerNS("pincushion")
	setQ("pincushion.getpins_us_p50", spPinsGetPins, 0.50)
	setQ("pincushion.getpins_us_p99", spPinsGetPins, 0.99)
	set("pincushion.us_per_req", "us", us(perReq(pcNS)), h.roots)
	set("pincushion.calls_per_req", "count", perReq(pcCalls), h.roots)

	csNS, _ := h.layerNS("cacheserver")
	lookups := h.calls[spCacheLookup] + h.n1[spCacheLookupBatch]
	found := h.n1[spCacheLookup] + h.n2[spCacheLookupBatch]
	setQ("cacheserver.lookup_us_p50", spCacheLookup, 0.50)
	setQ("cacheserver.lookup_us_p99", spCacheLookup, 0.99)
	set("cacheserver.us_per_req", "us", us(perReq(csNS)), h.roots)
	set("cacheserver.lookups_per_req", "count", perReq(lookups), h.roots)
	set("cacheserver.batch_keys_mean", "count", ratio(float64(h.n1[spCacheLookupBatch]), float64(h.calls[spCacheLookupBatch])), int(h.calls[spCacheLookupBatch]))
	set("cacheserver.found_ratio", "ratio", ratio(float64(found), float64(lookups)), int(lookups))
	set("cacheserver.hit_bytes_mean", "B", ratio(float64(h.n2[spCacheLookup]), float64(h.n1[spCacheLookup])), int(h.n1[spCacheLookup]))
	setQ("cacheserver.put_us_p50", spCachePut, 0.50)

	dbNS, dbCalls := h.layerNS("dbnet")
	setQ("dbnet.begin_us_p50", spDBBegin, 0.50)
	setQ("dbnet.query_us_p50", spDBQuery, 0.50)
	setQ("dbnet.query_us_p99", spDBQuery, 0.99)
	setQ("dbnet.exec_us_p50", spDBExec, 0.50)
	setQ("dbnet.commit_us_p50", spDBCommit, 0.50)
	setQ("dbnet.commit_us_p99", spDBCommit, 0.99)
	set("dbnet.us_per_req", "us", us(perReq(dbNS)), h.roots)
	set("dbnet.round_trips_per_req", "count", perReq(dbCalls), h.roots)

	set("trace.overhead_share", "ratio", 1-median(slowdown), len(slowdown))
	set("trace.spans_per_req", "count", ratio(float64(h.spans), float64(h.roots)), h.roots)
	set("trace.replay_children_ratio", "ratio", ratio(d.meanNS-d.selfNS, h.meanNS-h.selfNS), d.roots)

	return t0.attempted() + t1.attempted() + t2.attempted(), t0.failed() + t1.failed() + t2.failed()
}

// rig is one booted and warmed stack with its load generator and data
// directory.
type rig struct {
	st           *stack
	load         *httpLoad
	dir          string
	setupSeconds float64
}

// stop tears the rig down with the pin audit, and checks durability on the
// way: the data directory as the run left it, without the engine's clean
// shutdown, must recover to at least the highest commit timestamp any write
// was acknowledged with.
func (r *rig) stop(ctx context.Context) error {
	st, dir, maxAcked := r.st, r.dir, r.load.acked.Load()
	r.load.close()
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	return st.stop(ctx, func() error {
		acked := max(maxAcked, uint64(st.engine.LastCommit()))
		crash := dir + "-recovered"
		defer os.RemoveAll(crash)
		if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
			return fmt.Errorf("copy data directory: %w", err)
		}
		e, info, err := db.Open(db.Options{Durability: &db.DurabilityOptions{Dir: crash}})
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		defer e.Close()
		if uint64(info.RecoveredTS) < acked {
			return fmt.Errorf("recovered to ts %d, below acknowledged commit %d", info.RecoveredTS, acked)
		}
		return nil
	})
}
