package db

// The commit path is pipelined so that commits to disjoint tables overlap:
//
//  1. lock     — acquire the write set's table locks in ascending name
//                order (deadlock-free against every other lock set)
//  2. validate — first-committer-wins and unique checks, per table
//  3. stamp    — allocate the commit timestamp from an atomic counter
//  4. apply    — install new versions; *queue* index mutations on the
//                table's pending batch (or install them inline when the
//                pipeline is empty and this commit will publish next)
//  5. unlock   — release the table locks; a conflicting later commit now
//                sees the new versions and fails validation against them
//  6. publish  — the committer at the head of the pipeline drains every
//                consecutive applied commit as one group, flushes the
//                group's coalesced index batches (one sorted ApplyBatch
//                per index per table), then advances the visibility
//                watermark and flushes invalidation messages
//
// Only step 6 is serialized. A timestamp is allocated only after
// validation succeeds, so every stamped commit is guaranteed to reach
// publish: the pipeline never stalls waiting for an aborted commit's slot.
//
// Deferring index maintenance to the publish step is sound because readers
// derive snapshots from the *published* watermark: before the watermark
// advances past a commit, its versions are invisible, so the absence of
// their index entries cannot be observed — an update's row stays reachable
// through its old keys (postings are per row, heap-pointer style), and its
// new keys only matter to snapshots at or above the commit. The single
// tree consumer that must see unpublished state — the unique-index check —
// reads the pending queue explicitly (checkUniqueRow). The flush happens
// outside the sequencer mutex (guarded by the flushing flag), so applies
// of later commits proceed while a group's batches install.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// commitRec is one applied commit awaiting publish: its invalidation tags,
// the tables whose pending index batches it contributed to, and its encoded
// WAL payload (nil on a non-durable engine). The payload aliases the
// committing transaction's pooled scratch; that is safe because the owner
// blocks in finishCommit until the head committer has both copied it into
// the group record and published — the scratch cannot be recycled earlier.
type commitRec struct {
	tags   []invalidation.TagID
	tables []*Table
	wal    []byte
}

// commitSequencer allocates commit timestamps and publishes applied
// commits in timestamp order. Readers derive their snapshots from the
// published watermark, so a half-applied commit (stamped but not yet
// published) is invisible to every transaction that could observe it.
type commitSequencer struct {
	last atomic.Uint64 // most recently allocated commit timestamp

	mu        sync.Mutex
	turn      sync.Cond            // signaled when published advances
	published uint64               // every commit <= published is visible
	flushing  bool                 // a head committer is installing a group's index batches
	ready     map[uint64]commitRec // applied commits awaiting publish

	batchBuf []invalidation.Message // reused per group
	tabBuf   []*Table               // reused per group (deduped flush set)
	walBuf   []byte                 // reused per group (the assembled WAL record)
}

func (s *commitSequencer) init(start uint64) {
	s.last.Store(start)
	s.published = start
	s.turn.L = &s.mu
	s.ready = make(map[uint64]commitRec)
}

// allocate stamps a validated commit. Called with the write set's table
// locks held, so conflicting commits stamp in the same order they apply;
// commits with disjoint write sets stamp concurrently.
func (s *commitSequencer) allocate() interval.Timestamp {
	return interval.Timestamp(s.last.Add(1))
}

// finishCommit hands an applied commit to the sequencer and blocks until
// it is visible. The committer that finds itself at the head of the
// pipeline publishes every consecutive applied commit as one group: the
// group's queued index mutations are flushed as one sorted batch per index
// per table, the group becomes exactly one WAL record made durable with
// one sync (group commit), the watermark advances once, and the group's
// invalidation messages go to the bus as a single ordered batch — the bus
// append is an enqueue, never a blocking delivery. A burst of commits
// costs one index batch, one fsync, and one bus append instead of one per
// commit. Because the sync strictly precedes the watermark advance,
// durability precedes visibility: nothing a reader, the bus, or a cache
// node ever observed can be lost to a crash.
func (e *Engine) finishCommit(ts interval.Timestamp, tags []invalidation.TagID, tables []*Table, walPayload []byte) {
	s := &e.seq
	t := uint64(ts)
	s.mu.Lock()
	s.ready[t] = commitRec{tags: tags, tables: tables, wal: walPayload}
	// Wait until either a predecessor's group drained us (published >= t —
	// done, regardless of any flush in progress) or we are next in line with
	// no flush running (head). A drained committer must NOT keep waiting on
	// s.flushing: the flush it would wait for belongs to a *later* group, and
	// on a busy system that head starts a new flush in the gap between its
	// broadcast and this goroutine rescheduling — drained committers would
	// bounce from wake straight back to Wait for cycles, throttling the whole
	// pipeline to one in-flight commit (and groups of one).
	for s.published < t && (s.published < t-1 || s.flushing) {
		s.turn.Wait()
	}
	if s.published >= t {
		// A predecessor at the head drained us as part of its group.
		s.mu.Unlock()
		return
	}
	// Head of the pipeline: drain the contiguous ready prefix as one group.
	batch := s.batchBuf[:0]
	tabs := s.tabBuf[:0]
	rec := s.walBuf[:0]
	if e.dur != nil {
		rec = append(rec, recCommitGroup)
		rec = append(rec, 0, 0, 0, 0) // u32 commit count, patched after the drain
	}
	now := e.clk.Now()
	w := s.published
	n := 0
	for {
		cr, ok := s.ready[w+1]
		if !ok {
			break
		}
		delete(s.ready, w+1)
		w++
		n++
		if e.dur != nil {
			// Copy the commit's payload into the group record here, under
			// the mutex, while its owner is still parked in the wait loop
			// above — the pooled buffer it aliases is guaranteed live.
			rec = binary.LittleEndian.AppendUint64(rec, w)
			rec = binary.LittleEndian.AppendUint32(rec, uint32(len(cr.wal)))
			rec = append(rec, cr.wal...)
		}
		if e.bus != nil {
			batch = append(batch, invalidation.Message{TS: interval.Timestamp(w), WallTime: now, Tags: cr.tags})
		}
		for _, tb := range cr.tables {
			if !containsTable(tabs, tb) {
				tabs = append(tabs, tb)
			}
		}
	}
	s.flushing = true
	s.mu.Unlock()

	// Index-maintenance stage: install the group's coalesced batches before
	// anything at or above w becomes visible. Later commits keep applying
	// (and queueing) meanwhile; ops they add to a table mid-flush are
	// simply installed early, which readers cannot observe.
	for _, tb := range tabs {
		tb.flushIndexOps()
	}

	// Durability stage: one record, one sync, for the whole group. Runs
	// outside the mutex (the flushing flag keeps this committer the sole
	// head), so later commits apply concurrently with the disk wait.
	if e.dur != nil {
		binary.LittleEndian.PutUint32(rec[1:5], uint32(n))
		e.walAppendGroup(rec, w, n)
	}

	s.mu.Lock()
	s.published = w
	e.lastCommit.Store(w)
	s.flushing = false
	// Flush before waking successors so bus messages stay in timestamp
	// order; PublishBatch copies, so the buffer is reusable.
	if len(batch) > 0 {
		e.bus.PublishBatch(batch)
	}
	s.batchBuf = batch[:0]
	s.tabBuf = tabs[:0]
	s.walBuf = rec[:0]
	s.turn.Broadcast()
	s.mu.Unlock()

	// Horizon-delta vacuum scheduling: the sequencer, not a wall-clock
	// ticker, decides when reclamation runs.
	e.maybeAutoVacuum()
}

func containsTable(ts []*Table, t *Table) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}
