// Command txcache-dbd runs the database daemon: the multiversion relational
// engine with TxCache's modifications (paper §5) served over TCP. It
// executes DDL from a schema file or pre-loads the RUBiS dataset, fans the
// invalidation stream out to the configured cache nodes, and vacuums
// periodically. It also hosts the pincushion (paper §5.4), pinning on the
// engine directly (pincushion.Start) and answering on the same address as
// the database; -staleness is the largest staleness bound the applications
// use (the pincushion answers a larger one with no pins). The counters, dbnet.ServerStats with the pincushion's inside, are
// answered on rpc.OpStats, written to -status-file, and served beside pprof
// on -debug-addr (internal/debugz).
//
// With -data-dir the engine is durable: commits are group-committed to a
// write-ahead log, one fdatasync per commit group, before they become
// visible; checkpoints bound the log, and a restart replays to the last
// committed timestamp. Invalidations a crash left undelivered need no
// announcement: the stream resumes at the recovered timestamp plus one, and
// a cache node that finds a gap before that message closes what it cannot
// vouch for (cacheserver.Server). SIGTERM/SIGINT shut down cleanly: a final
// checkpoint and a clean-shutdown marker make the next boot skip replay
// entirely.
//
// Usage:
//
//	txcache-dbd -listen :7700 -staleness 10s \
//	    -caches cache1:7500,cache2:7500 \
//	    -data-dir /var/lib/txcache -load-rubis inmem
package main

import (
	"encoding/json"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/debugz"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/rpc"
	"txcache/internal/rubis"
	"txcache/internal/wal"
)

// status is what -status-file publishes once the daemon is serving, and
// /statsz answers: the crash harness (and operators) read it to learn what a
// boot recovered — durability.recovery — without scraping logs. Past the
// process's identity it is the daemon's counters, the same
// dbnet.ServerStats it answers rpc.OpStats with, the pincushion's included,
// and it is rewritten on the vacuum ticker so they — checkpoint failures and
// what vacuum is holding back in particular — stay current for the life of
// the process.
type status struct {
	PID     int    `json:"pid"`
	Addr    string `json:"addr"`
	Durable bool   `json:"durable"`
	dbnet.ServerStats
}

// writeStatus publishes one status snapshot. Plain JSON (no WAL framing):
// operators cat this. Temp+rename keeps readers from ever seeing a torn
// write.
func writeStatus(path string, st status) error {
	blob, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func main() {
	listen := flag.String("listen", ":7700", "address to listen on")
	staleness := flag.Duration("staleness", 10*time.Second, "largest staleness bound the applications use (the pincushion trims unused pins a second past it)")
	caches := flag.String("caches", "", "comma-separated cache node addresses for the invalidation stream")
	schema := flag.String("schema", "", "file of semicolon-separated CREATE statements to run at startup")
	loadRubis := flag.String("load-rubis", "", "pre-load the RUBiS dataset: test or inmem")
	vacuumEvery := flag.Duration("vacuum-interval", 2*time.Second, "vacuum period")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + checkpoints); empty runs in-memory")
	ckptBytes := flag.Int64("checkpoint-bytes", 16<<20, "checkpoint after this many WAL bytes (negative disables)")
	statusFile := flag.String("status-file", "", "write a JSON status snapshot here once serving (atomic rename)")
	debugAddr := flag.String("debug-addr", "", "serve /statsz and /debug/pprof/ here (empty: no debug surface, heap sampling off)")
	flag.Parse()

	// The surface starts before recovery and the dataset load, so a slow
	// one can be profiled; /statsz reads null until the daemon is serving.
	var serving atomic.Pointer[func() status]
	if err := debugz.Start(*debugAddr, func() any {
		if snap := serving.Load(); snap != nil {
			return (*snap)()
		}
		return nil
	}); err != nil {
		log.Fatalf("txcache-dbd: -debug-addr: %v", err)
	}

	bus := invalidation.NewBus(false)
	opts := db.Options{Bus: bus}

	var (
		engine *db.Engine
		info   db.RecoveryInfo
	)
	durable := *dataDir != ""
	if durable {
		opts.Durability = &db.DurabilityOptions{Dir: *dataDir, Sync: wal.SyncFdatasync, CheckpointBytes: *ckptBytes}
		start := time.Now()
		var err error
		engine, info, err = db.Open(opts)
		if err != nil {
			log.Fatalf("txcache-dbd: open %s: %v", *dataDir, err)
		}
		log.Printf("txcache-dbd: recovered %s in %v: ts %d (checkpoint %d, %d commits + %d DDL replayed, torn=%v, clean=%v)",
			*dataDir, time.Since(start).Round(time.Millisecond), info.RecoveredTS, info.CheckpointTS,
			info.CommitsReplayed, info.DDLReplayed, info.TornTail, info.CleanBoot)
	} else {
		engine = db.New(opts)
	}
	// RecoveredTS 1 is the empty database: anything past it means the data
	// directory already holds a loaded dataset and the bootstrap flags must
	// not re-run against it.
	recovered := durable && info.RecoveredTS > 1

	// Invalidation fan-out to cache nodes: the paper's reliable
	// application-level multicast, realized as one ordered TCP push stream
	// per node. The stream must be gapless and ordered: it retries every
	// message until the node acks having applied it (at-least-once, in
	// order), and the node's timestamp dedup makes that exactly-once. It runs
	// for the life of the process.
	for _, addr := range strings.Fields(strings.ReplaceAll(*caches, ",", " ")) {
		if _, err := cacheserver.Feed(rpc.TCP, "db", addr, bus); err != nil {
			log.Fatalf("txcache-dbd: dial cache %s: %v", addr, err)
		}
	}

	if *schema != "" && !recovered {
		text, err := os.ReadFile(*schema)
		if err != nil {
			log.Fatalf("txcache-dbd: %v", err)
		}
		for _, stmt := range strings.Split(string(text), ";") {
			if strings.TrimSpace(stmt) == "" {
				continue
			}
			if err := engine.DDL(stmt); err != nil {
				log.Fatalf("txcache-dbd: schema: %v", err)
			}
		}
		log.Printf("txcache-dbd: schema loaded from %s", *schema)
	}
	if *loadRubis != "" && !recovered {
		var sc rubis.Scale
		switch *loadRubis {
		case "test":
			sc = rubis.TestScale
		case "inmem":
			sc = rubis.InMemoryScale
		default:
			log.Fatalf("txcache-dbd: unknown RUBiS scale %q", *loadRubis)
		}
		start := time.Now()
		if _, err := rubis.Load(engine, sc, 1); err != nil {
			log.Fatalf("txcache-dbd: load: %v", err)
		}
		log.Printf("txcache-dbd: RUBiS %s dataset loaded in %v (last commit %d)",
			*loadRubis, time.Since(start).Round(time.Millisecond), engine.LastCommit())
	}

	if recovered {
		log.Printf("txcache-dbd: data directory already populated; skipping schema/dataset bootstrap")
	}

	// The engine starts its own incremental vacuum passes, from the commit
	// sequencer every few hundred commits and whenever a snapshot is fully
	// unpinned; this slow ticker is only a fallback for idle periods (a pass
	// with nothing reclaimable is a read under shared locks). What vacuum
	// has done shows in the status file and on /statsz.
	go func() {
		for range time.Tick(*vacuumEvery) {
			engine.Vacuum()
		}
	}()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("txcache-dbd: %v", err)
	}
	pc, stopPC := pincushion.Start(engine, *staleness)
	log.Printf("txcache-dbd: serving on %s (durable=%v)", l.Addr(), durable)

	srv := &dbnet.Server{Engine: engine, Pincushion: pc}
	statusSnap := func() status {
		return status{PID: os.Getpid(), Addr: l.Addr().String(), Durable: durable, ServerStats: srv.Stats()}
	}
	serving.Store(&statusSnap)
	if *statusFile != "" {
		if err := writeStatus(*statusFile, statusSnap()); err != nil {
			log.Fatalf("txcache-dbd: status file: %v", err)
		}
		// Keep it current: a checkpoint loop dying mid-run (disk full)
		// shows up in durability.checkpointErrors on the next refresh.
		go func() {
			for range time.Tick(*vacuumEvery) {
				if err := writeStatus(*statusFile, statusSnap()); err != nil {
					log.Printf("txcache-dbd: status file refresh: %v", err)
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		log.Fatalf("txcache-dbd: %v", err)
	case sig := <-sigc:
		// Graceful shutdown: stop accepting work, unpin the pincushion's
		// snapshots, flush a final checkpoint, and leave the clean-shutdown
		// marker so the next boot skips replay. Engine.Close waits out
		// in-flight commits (they hold the WAL open), so data already acked
		// to clients is on disk before exit.
		log.Printf("txcache-dbd: %v: shutting down", sig)
		l.Close()
		stopPC()
		start := time.Now()
		if err := engine.Close(); err != nil {
			log.Fatalf("txcache-dbd: close: %v", err)
		}
		if durable {
			ds := engine.DurabilityStats()
			avg := 0.0
			if ds.Groups > 0 {
				avg = float64(ds.GroupedCommits) / float64(ds.Groups)
			}
			log.Printf("txcache-dbd: clean shutdown in %v: wal %d records / %d bytes / %d syncs, %d groups (avg %.1f commits/group), %d checkpoints",
				time.Since(start).Round(time.Millisecond), ds.WAL.Records, ds.WAL.Bytes, ds.WAL.Syncs,
				ds.Groups, avg, ds.Checkpoints)
		}
	}
}
