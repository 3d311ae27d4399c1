package db

// The commit path is pipelined so that commits to disjoint tables overlap:
//
//  1. lock     — acquire the write set's table locks in ascending name
//                order (deadlock-free against every other lock set)
//  2. validate — first-committer-wins and unique checks, per table
//  3. stamp    — allocate the commit timestamp from an atomic counter
//  4. apply    — install the new versions and their index entries (one
//                sorted batch per index), then release the table locks; a
//                conflicting later commit now sees the new versions and
//                fails validation against them
//  5. publish  — the committer at the head of the pipeline drains every
//                consecutive applied commit as one group: it assembles the
//                group's WAL record, syncs it, advances the visibility
//                watermark and appends the invalidation messages to the bus
//
// Only stage 5 is serialized, and it takes no table lock: by the time a
// commit reaches the sequencer everything it writes to a table is written,
// so a reader holding a table for a long scan delays commits to that table
// and nothing else. A timestamp is allocated only after validation
// succeeds, so every stamped commit is guaranteed to reach publish: the
// pipeline never stalls waiting for an aborted commit's slot.
//
// Applying before publishing is sound because readers derive snapshots from
// the *published* watermark: until it advances past a commit, the commit's
// versions are above every reachable snapshot and so invisible, index
// entries and all. The sync happens outside the sequencer mutex (guarded
// by the syncing flag), so later commits apply and park while a group
// waits on the disk.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// commitRec is one applied commit awaiting publish: its invalidation tags
// and its encoded WAL payload (nil on a non-durable engine). The payload
// aliases the committing transaction's pooled scratch; that is safe because
// the owner blocks in finishCommit until the head committer has both copied
// it into the group record and published — the scratch cannot be recycled
// earlier.
type commitRec struct {
	tags []invalidation.TagID
	wal  []byte
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
	syncing   bool                 // a head committer is syncing its group's WAL record, mu released
	ready     map[uint64]commitRec // applied commits awaiting publish

	batchBuf []invalidation.Message // reused per group
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
// group becomes exactly one WAL record made durable with one sync (group
// commit), the watermark advances once, and the group's invalidation
// messages go to the bus as a single ordered batch — the bus append is an
// enqueue, never a blocking delivery. A burst of commits costs one fsync
// and one bus append instead of one per commit. Because the sync strictly
// precedes the watermark advance, durability precedes visibility: nothing
// a reader, the bus, or a cache node ever observed can be lost to a crash.
func (e *Engine) finishCommit(ts interval.Timestamp, tags []invalidation.TagID, walPayload []byte) {
	s := &e.seq
	t := uint64(ts)
	s.mu.Lock()
	s.ready[t] = commitRec{tags: tags, wal: walPayload}
	// Wait until either a predecessor's group drained us (published >= t —
	// done, regardless of any sync in progress) or we are next in line with
	// no sync running (head). A drained committer must NOT keep waiting on
	// s.syncing: the sync it would wait for belongs to a *later* group, and
	// on a busy system that head starts a new sync in the gap between its
	// broadcast and this goroutine rescheduling — drained committers would
	// bounce from wake straight back to Wait for cycles, throttling the whole
	// pipeline to one in-flight commit (and groups of one).
	for s.published < t && (s.published < t-1 || s.syncing) {
		s.turn.Wait()
	}
	if s.published >= t {
		// A predecessor at the head drained us as part of its group.
		s.mu.Unlock()
		return
	}
	// Head of the pipeline: drain the contiguous ready prefix as one group.
	batch := s.batchBuf[:0]
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
	}

	// Durability stage: one record, one sync, for the whole group. Runs
	// outside the mutex (the syncing flag keeps this committer the sole
	// head), so later commits apply and park concurrently with the disk
	// wait.
	if e.dur != nil {
		binary.LittleEndian.PutUint32(rec[1:5], uint32(n))
		s.syncing = true
		s.mu.Unlock()
		e.walAppendGroup(rec, w, n)
		s.mu.Lock()
		s.syncing = false
	}

	s.published = w
	e.lastCommit.Store(w)
	// Append to the bus before waking successors so its messages stay in
	// timestamp order; Publish copies, so the buffer is reusable.
	if len(batch) > 0 {
		e.bus.Publish(batch...)
	}
	s.batchBuf = batch[:0]
	s.walBuf = rec[:0]
	s.turn.Broadcast()
	s.mu.Unlock()

	// Watermark-delta vacuum scheduling: the sequencer, not a wall-clock
	// ticker, decides when reclamation runs.
	e.maybeAutoVacuum()
}
