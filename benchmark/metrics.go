package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names one metric, its unit and which way is better. bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before it counts as a regression; per-layer metrics have none. These tables
// and BENCHMARK.json say the same thing (a test holds them together).
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"lat_p50_ms", "ms", "lower", 0.20},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"live_rss_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// tracedMetrics come from the traced run's phases and counters.
var tracedMetrics = []metricDef{
	{name: "serve.self_us", unit: "us", better: "lower"},
	{name: "serve.http_service_us_p50", unit: "us", better: "lower"},
	{name: "serve.shed_share", unit: "ratio", better: "lower"},
	{name: "serve.not_found_share", unit: "ratio", better: "lower"},

	{name: "core.self_us", unit: "us", better: "lower"},
	{name: "core.lookups_per_req", unit: "count", better: "lower"},
	{name: "core.db_queries_per_req", unit: "count", better: "lower"},
	{name: "core.puts_per_req", unit: "count", better: "lower"},
	{name: "core.hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.miss_compulsory_share", unit: "ratio", better: "lower"},
	{name: "core.miss_staleness_share", unit: "ratio", better: "lower"},
	{name: "core.miss_capacity_share", unit: "ratio", better: "lower"},
	{name: "core.miss_consistency_share", unit: "ratio", better: "lower"},

	{name: "pincushion.getpins_us_p50", unit: "us", better: "lower"},
	{name: "pincushion.getpins_us_p99", unit: "us", better: "lower"},
	{name: "pincushion.us_per_req", unit: "us", better: "lower"},
	{name: "pincushion.calls_per_req", unit: "count", better: "lower"},

	{name: "cacheserver.lookup_us_p50", unit: "us", better: "lower"},
	{name: "cacheserver.lookup_us_p99", unit: "us", better: "lower"},
	{name: "cacheserver.us_per_req", unit: "us", better: "lower"},
	{name: "cacheserver.lookups_per_req", unit: "count", better: "lower"},
	{name: "cacheserver.batch_keys_mean", unit: "count", better: "higher"},
	{name: "cacheserver.found_ratio", unit: "ratio", better: "higher"},
	{name: "cacheserver.hit_bytes_mean", unit: "B", better: "lower"},
	{name: "cacheserver.put_us_p50", unit: "us", better: "lower"},
	{name: "cacheserver.evictions_per_s", unit: "1/s", better: "lower"},
	{name: "cacheserver.bytes_used_mb", unit: "MiB", better: "lower"},
	{name: "cacheserver.invalidated_per_commit", unit: "count", better: "lower"},
	{name: "cacheserver.horizon_lag_ts", unit: "ts", better: "lower"},

	{name: "dbnet.begin_us_p50", unit: "us", better: "lower"},
	{name: "dbnet.query_us_p50", unit: "us", better: "lower"},
	{name: "dbnet.query_us_p99", unit: "us", better: "lower"},
	{name: "dbnet.exec_us_p50", unit: "us", better: "lower"},
	{name: "dbnet.commit_us_p50", unit: "us", better: "lower"},
	{name: "dbnet.commit_us_p99", unit: "us", better: "lower"},
	{name: "dbnet.us_per_req", unit: "us", better: "lower"},
	{name: "dbnet.round_trips_per_req", unit: "count", better: "lower"},

	{name: "db.commits_per_s", unit: "1/s", better: "higher"},
	{name: "db.commits_per_group", unit: "count", better: "higher"},
	{name: "db.conflicts_per_commit", unit: "count", better: "lower"},
	{name: "db.vacuumed_per_s", unit: "1/s", better: "higher"},
	{name: "db.versions_end", unit: "count", better: "lower"},
	{name: "db.checkpoints", unit: "count", better: "lower"},

	{name: "wal.bytes_per_commit", unit: "B", better: "lower"},
	{name: "wal.syncs_per_commit", unit: "count", better: "lower"},
	{name: "wal.log_mb", unit: "MiB", better: "lower"},

	{name: "proc.cpu_us_per_req", unit: "us", better: "lower"},
	{name: "proc.allocs_per_req", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_req", unit: "B", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.goroutines_end", unit: "count", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MiB", better: "lower"},

	// Instrument health. A traced run that drops arrivals or whose tracing
	// costs more than 15% of throughput is invalid, not slow.
	{name: "loadgen.throughput_rps", unit: "req/s", better: "higher"},
	{name: "loadgen.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.lat_p999_ms", unit: "ms", better: "lower"},
	{name: "loadgen.lat_samples", unit: "count", better: "higher"},
	{name: "loadgen.lateness_ms_p99", unit: "ms", better: "lower"},
	{name: "loadgen.dropped", unit: "count", better: "lower"},
	{name: "loadgen.failed_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "trace.spans_per_req", unit: "count", better: "lower"},
	{name: "trace.replay_children_ratio", unit: "ratio", better: "lower"},
}

// probeMetrics come from the layer probes, which run after the traced phases.
var probeMetrics = []metricDef{
	{name: "wal.append_sync_us_p50", unit: "us", better: "lower"},
	{name: "btree.apply_batch_ns_per_op", unit: "ns", better: "lower"},
	{name: "btree.get_ns", unit: "ns", better: "lower"},
	{name: "mvcc.visible_at_ns", unit: "ns", better: "lower"},
	{name: "mvcc.vacuum_ns_per_version", unit: "ns", better: "lower"},
	{name: "sql.parse_ns", unit: "ns", better: "lower"},
	{name: "sql.parse_cached_ns", unit: "ns", better: "lower"},
	{name: "wire.frame_roundtrip_ns", unit: "ns", better: "lower"},
	{name: "consistent.get_ns", unit: "ns", better: "lower"},
	{name: "invalidation.intern_ns", unit: "ns", better: "lower"},
	{name: "cacheserver.probe_lookup_inproc_us", unit: "us", better: "lower"},
	{name: "cacheserver.probe_lookup_tcp_us", unit: "us", better: "lower"},
	{name: "db.probe_point_select_inproc_us", unit: "us", better: "lower"},
	{name: "dbnet.probe_point_select_tcp_us", unit: "us", better: "lower"},
	{name: "pincushion.probe_getpins_inproc_us", unit: "us", better: "lower"},
	{name: "pincushion.probe_getpins_tcp_us", unit: "us", better: "lower"},
}

// perLayer is everything a traced run reports.
var perLayer = append(append([]metricDef(nil), tracedMetrics...), probeMetrics...)

// hostInfo says where a result was measured; two results from different
// hosts are not comparable, and -compare says so.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	WALDirFS   string `json:"wal_dir_fs"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: "unknown", WALDirFS: fsType(os.TempDir()),
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if blob, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(blob))
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitRev = strings.TrimSpace(string(out))
	}
	return h
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}
