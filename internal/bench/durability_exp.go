package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"txcache/internal/db"
	"txcache/internal/wal"
)

// Durability experiment: the three perf axes of the fast-durability work,
// measured end to end and emitted machine-readably.
//
//  1. Commit latency while a checkpoint streams a multi-megabyte table
//     (the streaming encoder releases the table lock every batch, so a
//     forced checkpoint should leave the commit tail intact).
//  2. Cold-start recovery wall time over a generated multi-table log,
//     serial (workers=1) vs parallel (workers=GOMAXPROCS).
//  3. Allocations per warmed-up durable commit (the pooled encode path).

// DurabilityResult is the JSON shape written by the Durability experiment
// (BENCH_durability.json via `make bench-durability`).
type DurabilityResult struct {
	Commits            int     `json:"commits"`
	CommitP50Micros    float64 `json:"commitP50Micros"`
	CommitP99Micros    float64 `json:"commitP99Micros"`
	CommitMaxMicros    float64 `json:"commitMaxMicros"`
	Checkpoints        uint64  `json:"checkpoints"`
	CheckpointRows     int     `json:"checkpointRows"`
	LogBytes           int64   `json:"logBytes"`
	RecoveryWorkers    int     `json:"recoveryWorkers"`
	RecoverySerialMs   float64 `json:"recoverySerialMs"`
	RecoveryParallelMs float64 `json:"recoveryParallelMs"`
	RecoverySpeedup    float64 `json:"recoverySpeedup"`
	AllocsPerCommit    float64 `json:"allocsPerCommit"`
}

// Durability runs the experiment and, when jsonPath is non-empty, writes
// the result there (plain JSON, overwritten in place).
func Durability(o Opts, logMB int, jsonPath string) (DurabilityResult, error) {
	o.fill()
	var res DurabilityResult

	// --- Axis 1: commit latency under a streaming checkpoint. ---
	dir, err := os.MkdirTemp("", "txcache-dur-exp-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	e, _, err := db.Open(db.Options{VacuumEvery: -1, Durability: &db.DurabilityOptions{
		Dir: filepath.Join(dir, "ckpt"), Sync: wal.SyncNone, CheckpointBytes: -1,
	}})
	if err != nil {
		return res, err
	}
	if err := e.DDL("CREATE TABLE big (id BIGINT PRIMARY KEY, v BIGINT, s TEXT)"); err != nil {
		return res, err
	}
	const ckptRows = 60000
	res.CheckpointRows = ckptRows
	pad := strings.Repeat("x", 100)
	tx, err := e.BeginTx(nil, false, 0)
	if err != nil {
		return res, err
	}
	for i := int64(0); i < ckptRows; i++ {
		if _, err := tx.Exec("INSERT INTO big (id, v, s) VALUES (?, ?, ?)", i, i, pad); err != nil {
			return res, err
		}
	}
	if _, err := tx.Commit(); err != nil {
		return res, err
	}
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 4 && err == nil; i++ {
			err = e.Checkpoint()
		}
		done <- err
	}()
	var lats []time.Duration
	i := int64(0)
	for finished := false; !finished; {
		select {
		case ckptErr := <-done:
			if ckptErr != nil {
				return res, ckptErr
			}
			finished = true
		default:
		}
		start := time.Now()
		tx, err := e.BeginTx(nil, false, 0)
		if err != nil {
			return res, err
		}
		if _, err := tx.Exec("UPDATE big SET v = ? WHERE id = ?", i, i%ckptRows); err != nil {
			return res, err
		}
		if _, err := tx.Commit(); err != nil {
			return res, err
		}
		lats = append(lats, time.Since(start))
		i++
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	res.Commits = len(lats)
	res.CommitP50Micros = float64(lats[len(lats)/2].Microseconds())
	res.CommitP99Micros = float64(lats[len(lats)*99/100].Microseconds())
	res.CommitMaxMicros = float64(lats[len(lats)-1].Microseconds())
	res.Checkpoints = e.DurabilityStats().Checkpoints

	// --- Axis 3 (same engine): allocations per warmed-up durable commit. ---
	commit := func() {
		tx, err := e.BeginTx(nil, false, 0)
		if err != nil {
			panic(err)
		}
		if _, err := tx.Exec("UPDATE big SET v = ? WHERE id = ?", int64(1), int64(7)); err != nil {
			panic(err)
		}
		if _, err := tx.Commit(); err != nil {
			panic(err)
		}
	}
	for w := 0; w < 8; w++ {
		commit()
	}
	res.AllocsPerCommit = testing.AllocsPerRun(300, commit)
	if err := e.Close(); err != nil {
		return res, err
	}

	// --- Axis 2: recovery wall time, serial vs parallel. ---
	logDir := filepath.Join(dir, "log")
	res.LogBytes, err = buildDurabilityLog(logDir, int64(logMB)<<20)
	if err != nil {
		return res, err
	}
	res.RecoveryWorkers = runtime.GOMAXPROCS(0)
	if res.RecoveryWorkers == 1 {
		res.RecoveryWorkers = 4 // still exercise the pool on a 1-CPU host
	}
	res.RecoverySerialMs, err = timeRecovery(dir, logDir, 1)
	if err != nil {
		return res, err
	}
	res.RecoveryParallelMs, err = timeRecovery(dir, logDir, res.RecoveryWorkers)
	if err != nil {
		return res, err
	}
	if res.RecoveryParallelMs > 0 {
		res.RecoverySpeedup = res.RecoverySerialMs / res.RecoveryParallelMs
	}

	o.printf("durability: %d commits under %d checkpoints of %d rows: p50 %.0fµs p99 %.0fµs max %.0fµs\n",
		res.Commits, res.Checkpoints, res.CheckpointRows,
		res.CommitP50Micros, res.CommitP99Micros, res.CommitMaxMicros)
	o.printf("durability: recovery of %.1f MB log: serial %.0fms, %d workers %.0fms (%.2fx)\n",
		float64(res.LogBytes)/(1<<20), res.RecoverySerialMs, res.RecoveryWorkers,
		res.RecoveryParallelMs, res.RecoverySpeedup)
	o.printf("durability: %.1f allocs per warmed durable commit\n", res.AllocsPerCommit)

	if jsonPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return res, err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return res, err
		}
		o.printf("durability: wrote %s\n", jsonPath)
	}
	return res, nil
}

// buildDurabilityLog populates dir with a multi-table WAL of at least
// targetBytes and leaves it un-checkpointed so recovery replays all of it.
func buildDurabilityLog(dir string, targetBytes int64) (int64, error) {
	e, _, err := db.Open(db.Options{VacuumEvery: -1, Durability: &db.DurabilityOptions{
		Dir: dir, Sync: wal.SyncNone, CheckpointBytes: -1,
	}})
	if err != nil {
		return 0, err
	}
	tables := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	for _, tn := range tables {
		if err := e.DDL(fmt.Sprintf(
			"CREATE TABLE %s (id BIGINT PRIMARY KEY, v BIGINT, s TEXT)", tn)); err != nil {
			return 0, err
		}
	}
	pad := strings.Repeat("p", 64)
	pk := int64(0)
	var size int64
	for size < targetBytes {
		tx, err := e.BeginTx(nil, false, 0)
		if err != nil {
			return 0, err
		}
		for j := 0; j < 16; j++ {
			tn := tables[int(pk)%len(tables)]
			if _, err := tx.Exec(fmt.Sprintf(
				"INSERT INTO %s (id, v, s) VALUES (?, ?, ?)", tn), pk, pk*3, pad); err != nil {
				return 0, err
			}
			if prev := pk - int64(len(tables)); prev >= 0 {
				if _, err := tx.Exec(fmt.Sprintf(
					"UPDATE %s SET v = ? WHERE id = ?", tn), pk, prev); err != nil {
					return 0, err
				}
			}
			pk++
		}
		if _, err := tx.Commit(); err != nil {
			return 0, err
		}
		size = int64(e.DurabilityStats().WAL.Bytes)
	}
	// Deliberately no Close: a final checkpoint would collapse the log and
	// there would be nothing left to replay. The builder engine is simply
	// abandoned (its WAL data is already on the page cache / disk).
	return size, nil
}

// timeRecovery copies the prepared log directory (recovery mutates its
// input: opening appends a segment, Close checkpoints) and times db.Open
// with the given worker count.
func timeRecovery(scratch, logDir string, workers int) (float64, error) {
	cp, err := os.MkdirTemp(scratch, "rec-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(cp)
	ents, err := os.ReadDir(logDir)
	if err != nil {
		return 0, err
	}
	for _, ent := range ents {
		blob, err := os.ReadFile(filepath.Join(logDir, ent.Name()))
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(cp, ent.Name()), blob, 0o644); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	e, _, err := db.Open(db.Options{VacuumEvery: -1, Durability: &db.DurabilityOptions{
		Dir: cp, Sync: wal.SyncNone, CheckpointBytes: -1, RecoveryWorkers: workers,
	}})
	if err != nil {
		return 0, err
	}
	ms := float64(time.Since(start).Microseconds()) / 1000
	return ms, e.Close()
}
