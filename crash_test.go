package txcache_test

// Kill-9 crash-recovery property test for the durable database daemon.
//
// The harness builds the real txcache-dbd binary, runs it against a shared
// data directory, and drives concurrent writers over the real dbnet wire
// protocol while killing the daemon with SIGKILL at random points. Each
// writer appends rows (worker, seq) to an `ops` table and, in the same
// transaction, bumps that worker's row in a `counters` aggregate — so the
// pair forms a RUBiS-style oracle: whatever prefix of operations survives,
// the aggregate must agree with it exactly.
//
// After every crash the harness restarts the daemon and checks the
// recovery contract:
//
//   - every acknowledged commit is present (commit ts <= RecoveredTS);
//   - each worker's surviving rows are a contiguous prefix 1..K — replay
//     stops at the first torn record and never applies past a gap, so no
//     transaction can survive while an earlier one from the same session
//     is lost;
//   - counters.nops == COUNT(ops) per worker — replay is transactional,
//     never half a transaction;
//   - no cache entry is served across the crash's lost-invalidation gap:
//     a canary every lost message would have closed, put into the node
//     while the daemon is down, is not valid at RecoveredTS once the node
//     has heard the first commit after it (checkCanary). Nothing tells the
//     node about the restart but the stream itself;
//   - the pincushion the daemon hosts boots empty — no pin outlives the
//     process that placed it — and serves a read-only transaction, whose
//     snapshot it then tracks pinned on the engine (checkPincushion).
//
// An acknowledgement lost in flight (connection died after the commit
// record hit the disk) is resolved by retrying the same sequence number:
// a unique-constraint violation on the ops primary key is proof the
// in-doubt commit landed.
//
// The final cycle exits via SIGTERM instead and verifies the clean-
// shutdown contract: the next boot replays nothing and reports CleanBoot.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
)

// dbdStatus mirrors the daemon's -status-file payload: what a boot
// recovered is Durability.Recovery.
type dbdStatus struct {
	PID            int    `json:"pid"`
	Addr           string `json:"addr"`
	PincushionAddr string `json:"pincushionAddr"`
	Durable        bool   `json:"durable"`
	dbnet.ServerStats
	Pincushion pincushion.Stats `json:"pincushion"`
}

const crashSchema = `
CREATE TABLE ops (id BIGINT PRIMARY KEY, worker BIGINT NOT NULL, seq BIGINT NOT NULL);
CREATE INDEX ops_worker ON ops (worker);
CREATE TABLE counters (worker BIGINT PRIMARY KEY, nops BIGINT NOT NULL)
`

// opKeyStride packs (worker, seq) into the ops primary key.
const opKeyStride = 1 << 32

// crashWorker is one writer's ground truth, owned by the test process,
// which survives every daemon crash.
type crashWorker struct {
	id        int64
	next      int64 // next seq to attempt
	attempted int64 // highest seq ever attempted
	firmAcked int64 // highest seq whose commit was acknowledged (contiguous by construction)
	maxTS     interval.Timestamp
	conflicts int
	indoubt   int // acks lost to the crash, later proven durable via the unique key
}

// step attempts the worker's next operation once. It returns false when
// the daemon looks unreachable (the caller backs off and retries).
func (w *crashWorker) step(cl *dbnet.Client) bool {
	seq := w.next
	if seq > w.attempted {
		w.attempted = seq
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	tx, err := cl.Begin(ctx, false, 0)
	if err != nil {
		return false
	}
	ts, err := func() (interval.Timestamp, error) {
		if _, err := tx.Exec("INSERT INTO ops (id, worker, seq) VALUES (?, ?, ?)",
			w.id*opKeyStride+seq, w.id, seq); err != nil {
			tx.Abort()
			return 0, err
		}
		r, err := tx.Query("SELECT nops FROM counters WHERE worker = ?", w.id)
		if err != nil || len(r.Rows) != 1 {
			tx.Abort()
			if err == nil {
				err = fmt.Errorf("counters row for worker %d missing", w.id)
			}
			return 0, err
		}
		n, _ := r.Rows[0][0].(int64)
		if _, err := tx.Exec("UPDATE counters SET nops = ? WHERE worker = ?", n+1, w.id); err != nil {
			tx.Abort()
			return 0, err
		}
		if seq%4 == 0 {
			// Every 4th op also bumps the shared row all workers fight
			// over, forcing real serialization conflicts (and aborted
			// retries) into the crash window.
			g, err := tx.Query("SELECT nops FROM counters WHERE worker = 0")
			if err != nil || len(g.Rows) != 1 {
				tx.Abort()
				if err == nil {
					err = errors.New("shared counters row missing")
				}
				return 0, err
			}
			gn, _ := g.Rows[0][0].(int64)
			if _, err := tx.Exec("UPDATE counters SET nops = ? WHERE worker = 0", gn+1); err != nil {
				tx.Abort()
				return 0, err
			}
		}
		return tx.Commit()
	}()
	switch {
	case err == nil:
		w.firmAcked = seq
		if ts > w.maxTS {
			w.maxTS = ts
		}
		w.next++
		return true
	case errors.Is(err, db.ErrSerialization):
		w.conflicts++
		return true // same seq, fresh tx
	case strings.Contains(err.Error(), "unique constraint"):
		// The in-doubt commit from before a crash actually landed: the
		// whole retry transaction aborted (so counters stays correct) and
		// seq is durable — just not counted in firmAcked, since we never
		// saw its commit timestamp.
		w.indoubt++
		w.next++
		return true
	default:
		return false // daemon gone (or dying); retry this seq after reboot
	}
}

// crashDaemon wraps one txcache-dbd process.
type crashDaemon struct {
	cmd    *exec.Cmd
	status dbdStatus
	logF   *os.File
}

func startDaemon(t *testing.T, bin, dataDir, statusPath, schemaPath, cacheAddr string) *crashDaemon {
	t.Helper()
	logF, err := os.Create(statusPath + ".log")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-pincushion-listen", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-wal-sync", "fdatasync",
		"-checkpoint-bytes", "65536", // small, so crashes land on both sides of checkpoints
		"-schema", schemaPath,
		"-status-file", statusPath,
		"-vacuum-interval", "250ms",
		"-caches", cacheAddr,
	)
	cmd.Stdout, cmd.Stderr = logF, logF
	if err := cmd.Start(); err != nil {
		logF.Close()
		t.Fatalf("start daemon: %v", err)
	}
	d := &crashDaemon{cmd: cmd, logF: logF}
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
		d.logF.Close()
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		blob, err := os.ReadFile(statusPath)
		if err == nil && json.Unmarshal(blob, &d.status) == nil && d.status.Addr != "" {
			return d
		}
		if time.Now().After(deadline) {
			d.dumpLog(t)
			t.Fatalf("daemon never published %s", statusPath)
		}
		if d.cmd.ProcessState != nil {
			d.dumpLog(t)
			t.Fatalf("daemon exited before publishing status")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *crashDaemon) dumpLog(t *testing.T) {
	t.Helper()
	blob, err := os.ReadFile(d.logF.Name())
	if err == nil && len(blob) > 0 {
		t.Logf("daemon log:\n%s", blob)
	}
}

// kill SIGKILLs the daemon and reaps it.
func (d *crashDaemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	d.logF.Close()
}

// terminate sends SIGTERM and waits for a clean exit.
func (d *crashDaemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := d.cmd.Wait(); err != nil {
		d.dumpLog(t)
		t.Fatalf("daemon did not exit cleanly on SIGTERM: %v", err)
	}
	d.logF.Close()
}

// buildDaemon compiles the real txcache-dbd binary once per test run.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		goBin = "go"
	}
	bin := filepath.Join(dir, "txcache-dbd")
	cmd := exec.Command(goBin, "build", "-o", bin, "./cmd/txcache-dbd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build txcache-dbd: %v\n%s", err, out)
	}
	return bin
}

// verifyRecovered checks the full recovery contract against a freshly
// rebooted daemon (see the file comment for the property list).
func verifyRecovered(t *testing.T, cl *dbnet.Client, workers []*crashWorker, st dbdStatus, cycle int) {
	t.Helper()
	rec := st.Durability.Recovery.RecoveredTS
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A read/write transaction always runs at the latest snapshot.
	tx, err := cl.Begin(ctx, false, 0)
	if err != nil {
		t.Fatalf("cycle %d: verify begin: %v", cycle, err)
	}
	defer tx.Abort()
	var wantShared int64
	for _, w := range workers {
		r, err := tx.Query("SELECT seq FROM ops WHERE worker = ? ORDER BY seq", w.id)
		if err != nil {
			t.Fatalf("cycle %d: verify worker %d: %v", cycle, w.id, err)
		}
		n := int64(len(r.Rows))
		for i, row := range r.Rows {
			if got, _ := row[0].(int64); got != int64(i)+1 {
				t.Fatalf("cycle %d: worker %d: surviving seqs are not a contiguous prefix: position %d holds %d",
					cycle, w.id, i, got)
			}
		}
		if n < w.firmAcked {
			t.Fatalf("cycle %d: worker %d: %d acknowledged commits but only %d rows survived recovery",
				cycle, w.id, w.firmAcked, n)
		}
		if n > w.attempted {
			t.Fatalf("cycle %d: worker %d: %d rows survived but only %d ops were ever attempted",
				cycle, w.id, n, w.attempted)
		}
		if w.maxTS > rec {
			t.Fatalf("cycle %d: worker %d: acknowledged commit ts %d exceeds recovered ts %d",
				cycle, w.id, w.maxTS, rec)
		}
		cr, err := tx.Query("SELECT nops FROM counters WHERE worker = ?", w.id)
		if err != nil || len(cr.Rows) != 1 {
			t.Fatalf("cycle %d: worker %d: counters row: %v", cycle, w.id, err)
		}
		if got, _ := cr.Rows[0][0].(int64); got != n {
			t.Fatalf("cycle %d: worker %d: oracle violated: counters.nops=%d but COUNT(ops)=%d",
				cycle, w.id, got, n)
		}
		// The worker's ground truth may lag reality by exactly the ops
		// whose acks died with the connection; recovery cannot have MORE
		// than attempted (checked above), so resync and continue.
		w.next = n + 1
		wantShared += n / 4 // seqs 4, 8, ... each bumped the shared row
	}
	gr, err := tx.Query("SELECT nops FROM counters WHERE worker = 0")
	if err != nil || len(gr.Rows) != 1 {
		t.Fatalf("cycle %d: shared counters row: %v", cycle, err)
	}
	if got, _ := gr.Rows[0][0].(int64); got != wantShared {
		t.Fatalf("cycle %d: cross-worker oracle violated: shared counter %d, expected %d from surviving rows",
			cycle, got, wantShared)
	}
}

// canary is a still-valid entry put into the cache node while the daemon is
// down after a SIGKILL, at the node's horizon then. It depends on the whole
// ops table, which every worker commit writes, so any message lost between
// that horizon and the recovered timestamp would have closed it.
type canary struct {
	key     string
	horizon interval.Timestamp
}

func putCanary(node *cacheserver.Server, cycle int) canary {
	c := canary{key: fmt.Sprintf("canary-%d", cycle), horizon: node.Stats().Horizon}
	node.Put(c.key, []byte("v"), interval.Interval{Lo: c.horizon, Hi: interval.Infinity}, true, c.horizon,
		[]invalidation.TagID{invalidation.Intern(invalidation.WildcardTag("ops"))})
	return c
}

// checkCanary commits one operation against the rebooted daemon, waits for
// the node to hear of it, and requires what the warm boot was for: the canary
// may be valid at the recovered timestamp only if the node had seen every
// message up to it.
func checkCanary(t *testing.T, node *cacheserver.Server, c canary, cl *dbnet.Client, w *crashWorker, rec interval.Timestamp, cycle int) {
	t.Helper()
	acked := w.firmAcked
	for deadline := time.Now().Add(5 * time.Second); w.firmAcked == acked; w.step(cl) {
		if time.Now().After(deadline) {
			t.Fatalf("cycle %d: no commit acknowledged after recovery", cycle)
		}
	}
	commit := w.maxTS
	for deadline := time.Now().Add(5 * time.Second); node.Stats().Horizon < commit; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("cycle %d: cache horizon %d never reached post-recovery commit %d", cycle, node.Stats().Horizon, commit)
		}
	}
	if commit <= rec {
		t.Fatalf("cycle %d: post-recovery commit %d not above recovered ts %d", cycle, commit, rec)
	}
	r := node.Lookup(context.Background(), c.key, c.horizon, commit, 0, interval.Infinity)
	t.Logf("cycle %d: node horizon at the kill L=%d, RecoveredTS=%d, first commit %d: canary found=%v validity=%v still=%v",
		cycle, c.horizon, rec, commit, r.Found, r.Validity, r.Still)
	if c.horizon >= rec {
		return // the node had seen everything that survived
	}
	if r := node.Lookup(context.Background(), c.key, rec, rec, 0, interval.Infinity); r.Found {
		t.Fatalf("cycle %d: canary put at horizon %d is served at recovered ts %d (validity %v): the node missed (%d, %d] and kept an entry open across it",
			cycle, c.horizon, rec, r.Validity, c.horizon, rec)
	}
}

// checkPincushion holds a freshly booted daemon's pincushion to what it may
// know: nothing at boot, since its pins died with the last process, and then
// the snapshot of one read-only transaction run through it, which it keeps
// pinned on the engine after the transaction's own session has let go.
func checkPincushion(t *testing.T, st dbdStatus, cl *dbnet.Client, cycle int) {
	t.Helper()
	pcl, err := pincushion.Dial(st.PincushionAddr, 1)
	if err != nil {
		t.Fatalf("cycle %d: dial pincushion: %v", cycle, err)
	}
	defer pcl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pins := func() int {
		blob, err := pcl.StatsJSON(ctx)
		var s pincushion.Stats
		if err == nil {
			err = json.Unmarshal(blob, &s)
		}
		if err != nil {
			t.Fatalf("cycle %d: pincushion stats: %v", cycle, err)
		}
		return s.Pins
	}
	if st.Pincushion.Pins != 0 || pins() != 0 {
		t.Fatalf("cycle %d: the pincushion tracks %d pins at boot (status file %d), want 0", cycle, pins(), st.Pincushion.Pins)
	}

	c := core.NewClient(core.Config{DB: cl, Pincushion: pcl})
	defer c.Close()
	tx, err := c.Begin(ctx)
	if err == nil {
		_, err = tx.Query("SELECT nops FROM counters WHERE worker = 0")
		if err == nil {
			_, err = tx.Commit()
		} else {
			tx.Abort()
		}
	}
	if err != nil {
		t.Fatalf("cycle %d: read-only transaction through the pincushion: %v", cycle, err)
	}
	blob, err := cl.StatsJSON(ctx)
	var ds dbnet.ServerStats
	if err == nil {
		err = json.Unmarshal(blob, &ds)
	}
	if err != nil {
		t.Fatalf("cycle %d: daemon stats: %v", cycle, err)
	}
	if n := pins(); n < 1 || ds.DB.PinnedSnaps < 1 {
		t.Fatalf("cycle %d: after a read-only transaction the pincushion tracks %d pins and the daemon holds %d pinned snapshots; want at least one each",
			cycle, n, ds.DB.PinnedSnaps)
	}
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repeatedly kills a subprocess")
	}
	tmp := t.TempDir()
	bin := buildDaemon(t, tmp)
	dataDir := filepath.Join(tmp, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	schemaPath := filepath.Join(tmp, "schema.sql")
	if err := os.WriteFile(schemaPath, []byte(crashSchema), 0o644); err != nil {
		t.Fatal(err)
	}

	// One in-process cache node that outlives every daemon crash, and must
	// find each crash's gap in its stream by itself.
	node := cacheserver.New(cacheserver.Config{MaxStaleness: time.Minute, Clock: clock.Real{}})
	nodeL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nodeL.Close()
	go node.Serve(nodeL)
	cacheAddr := nodeL.Addr().String()

	const nWorkers = 4
	workers := make([]*crashWorker, nWorkers)
	for i := range workers {
		workers[i] = &crashWorker{id: int64(i + 1), next: 1}
	}

	rng := rand.New(rand.NewSource(0x7c5))
	const cycles = 5
	var lastStatus dbdStatus
	var pending *canary // put after the last SIGKILL, not yet checked
	for cycle := 0; cycle <= cycles; cycle++ {
		statusPath := filepath.Join(tmp, fmt.Sprintf("status-%d.json", cycle))
		d := startDaemon(t, bin, dataDir, statusPath, schemaPath, cacheAddr)
		st := d.status
		if !st.Durable {
			t.Fatal("daemon did not open the data directory durably")
		}
		if cycle > 0 {
			if st.Durability.Recovery.RecoveredTS < lastStatus.Durability.Recovery.RecoveredTS {
				t.Fatalf("cycle %d: recovered ts went backward: %d -> %d",
					cycle, lastStatus.Durability.Recovery.RecoveredTS, st.Durability.Recovery.RecoveredTS)
			}
		}
		lastStatus = st

		cl, err := dbnet.Dial(st.Addr, nWorkers+1)
		if err != nil {
			t.Fatalf("cycle %d: dial: %v", cycle, err)
		}

		if cycle == 0 {
			// Seed the oracle rows exactly once; every later boot must
			// recover them from the log or a checkpoint.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			tx, err := cl.Begin(ctx, false, 0)
			if err != nil {
				t.Fatalf("seed begin: %v", err)
			}
			if _, err := tx.Exec("INSERT INTO counters (worker, nops) VALUES (?, ?)", int64(0), int64(0)); err != nil {
				t.Fatalf("seed shared row: %v", err)
			}
			for _, w := range workers {
				if _, err := tx.Exec("INSERT INTO counters (worker, nops) VALUES (?, ?)", w.id, int64(0)); err != nil {
					t.Fatalf("seed: %v", err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatalf("seed commit: %v", err)
			}
			cancel()
		} else {
			verifyRecovered(t, cl, workers, st, cycle)
		}
		if pending != nil {
			checkCanary(t, node, *pending, cl, workers[0], st.Durability.Recovery.RecoveredTS, cycle)
			pending = nil
		}
		checkPincushion(t, st, cl, cycle)

		if cycle == cycles {
			// Final boot is verification-only: prove the previous SIGTERM
			// left a clean-shutdown marker that skipped replay entirely.
			if !st.Durability.Recovery.CleanBoot {
				d.dumpLog(t)
				t.Fatalf("final boot after SIGTERM was not clean: %+v", st.Durability.Recovery)
			}
			if st.Durability.Recovery.CommitsReplayed != 0 || st.Durability.Recovery.DDLReplayed != 0 {
				t.Fatalf("clean boot still replayed work: %+v", st.Durability.Recovery)
			}
			cl.Close()
			d.terminate(t)
			break
		}

		// Open fire: every worker loops until the daemon dies under it.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *crashWorker) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if !w.step(cl) {
						select {
						case <-stop:
							return
						case <-time.After(5 * time.Millisecond):
						}
					}
				}
			}(w)
		}
		time.Sleep(time.Duration(100+rng.Intn(250)) * time.Millisecond)
		if cycle == cycles-1 {
			// Last working cycle exits gracefully: quiesce the writers
			// first (SIGTERM flushes, so acks must all be firm before it).
			close(stop)
			wg.Wait()
			cl.Close()
			d.terminate(t)
		} else {
			d.kill()
			close(stop)
			wg.Wait()
			cl.Close()
			c := putCanary(node, cycle)
			pending = &c
		}
	}

	var acked, indoubt, conflicts int64
	for _, w := range workers {
		acked += w.firmAcked
		indoubt += int64(w.indoubt)
		conflicts += int64(w.conflicts)
	}
	t.Logf("crash cycles: %d kills, %d acked ops, %d in-doubt acks proven durable, %d serialization retries, final recovered ts %d",
		cycles-1, acked, indoubt, conflicts, lastStatus.Durability.Recovery.RecoveredTS)
	if acked == 0 {
		t.Fatal("no operation was ever acknowledged; the harness exercised nothing")
	}
}
