package cacheserver

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// shard is 1/Nth of the cache node: it owns its mutex, its slice of the key
// space (routed by key hash), and everything whose lifetime follows those
// keys — the entry map, the LRU list, the staleness queue, and the inverted
// tag→versions indexes for the still-valid versions it stores. Operations
// on different shards never contend; the only cross-shard state is the
// server's global byte budget, invalidation history, and horizon, all of
// which are atomics or read-mostly structures (see server.go).
type shard struct {
	idx int // this shard's index in Server.shards

	mu      sync.Mutex
	entries map[string]*entry
	lruList *list.List // *version; front = most recently used

	// Inverted tag→versions indexes over this shard's still-valid
	// versions, filed the way meets reads them: byTag holds a version under
	// each of its tags' own IDs, tableDeps under each tag's table's wildcard
	// ID. A version appears here iff it is still valid and stored in this
	// shard.
	byTag     map[invalidation.TagID]map[*version]struct{}
	tableDeps map[invalidation.TagID]map[*version]struct{}
	affected  map[*version]struct{} // per-message scratch, cleared after use

	// staleQ holds this shard's invalidated versions in (approximate)
	// invalidation-wall-time order for the staleness sweep.
	staleQ []*version

	stats shardCounters

	// Padding keeps one shard's mutex and hot counters off the next
	// shard's cache lines.
	_ [64]byte
}

// shardCounters are the per-shard slices of the node's Stats. They are
// atomics so Stats()/ResetStats() never take a data-path lock; updates
// happen under the shard mutex, so the atomics themselves are uncontended.
type shardCounters struct {
	lookups         atomic.Uint64
	hits            atomic.Uint64
	missCompulsory  atomic.Uint64
	missConsistency atomic.Uint64
	missStaleness   atomic.Uint64
	missCapacity    atomic.Uint64
	puts            atomic.Uint64
	invalidated     atomic.Uint64
	floorClosed     atomic.Uint64
	evictedCapacity atomic.Uint64
	evictedStale    atomic.Uint64
	versions        atomic.Int64 // gauge: versions resident in this shard
	keys            atomic.Int64 // gauge: entries (keys ever put) in this shard
}

func (c *shardCounters) reset() {
	c.lookups.Store(0)
	c.hits.Store(0)
	c.missCompulsory.Store(0)
	c.missConsistency.Store(0)
	c.missStaleness.Store(0)
	c.missCapacity.Store(0)
	c.puts.Store(0)
	c.invalidated.Store(0)
	c.floorClosed.Store(0)
	c.evictedCapacity.Store(0)
	c.evictedStale.Store(0)
	// versions and keys are gauges, not counters: they track residency.
}

func (sh *shard) init() {
	sh.entries = make(map[string]*entry)
	sh.lruList = list.New()
	sh.byTag = make(map[invalidation.TagID]map[*version]struct{})
	sh.tableDeps = make(map[invalidation.TagID]map[*version]struct{})
	sh.affected = make(map[*version]struct{})
}

// lookupLocked resolves one probe against this shard. lastInval is the
// node's horizon, loaded once by the caller so every version of one probe
// sees the same bound. Caller holds sh.mu.
func (sh *shard) lookupLocked(key string, lo, hi, origLo, origHi, lastInval interval.Timestamp) LookupResult {
	sh.stats.lookups.Add(1)

	ent := sh.entries[key]
	if ent == nil || !ent.everPut {
		sh.stats.missCompulsory.Add(1)
		return LookupResult{Miss: MissCompulsory}
	}
	var best *version
	usableFresh := false
	for i := len(ent.versions) - 1; i >= 0; i-- {
		v := ent.versions[i]
		effIv := interval.Interval{Lo: v.iv.Lo, Hi: v.effHi(lastInval)}
		if effIv.OverlapsRange(lo, hi) {
			best = v
			break
		}
		if effIv.OverlapsRange(origLo, origHi) {
			usableFresh = true
		}
	}
	if best == nil {
		switch {
		case usableFresh:
			sh.stats.missConsistency.Add(1)
			return LookupResult{Miss: MissConsistency}
		case ent.capacityE:
			sh.stats.missCapacity.Add(1)
			return LookupResult{Miss: MissCapacity}
		default:
			sh.stats.missStaleness.Add(1)
			return LookupResult{Miss: MissStaleness}
		}
	}
	sh.lruList.MoveToFront(best.lru)
	sh.stats.hits.Add(1)
	r := LookupResult{
		Found:    true,
		Data:     best.data,
		Validity: interval.Interval{Lo: best.iv.Lo, Hi: best.effHi(lastInval)},
		Still:    best.still,
	}
	if best.still {
		// Shared, not copied: tag slices are immutable once installed, so a
		// hit costs no per-lookup allocation.
		r.Tags = best.tags
	}
	return r
}

// putLocked installs a version in this shard, mirroring the pre-shard Put
// logic, and returns it (nil if the put was suppressed or only widened a
// stored version). It charges the version's size to the server's global
// budget but does not evict — the caller runs budget enforcement after
// releasing the shard lock, so the critical section stays small. Caller
// holds sh.mu.
func (sh *shard) putLocked(s *Server, key string, data []byte, iv interval.Interval, still bool, genSnap interval.Timestamp, tags []invalidation.TagID) *version {
	sh.stats.puts.Add(1)

	ent := sh.entries[key]
	if ent == nil {
		ent = &entry{key: key}
		sh.entries[key] = ent
		sh.stats.keys.Add(1)
	}
	ent.everPut = true
	ent.capacityE = false

	// Versions of one key have disjoint true validity intervals, so an equal
	// Lo means the same version: another application server raced us
	// computing it, or it was recomputed after the stored copy was closed
	// early. Nothing new is stored; the offer can only prove the stored
	// copy valid for longer.
	pos := sort.Search(len(ent.versions), func(i int) bool { return ent.versions[i].iv.Lo >= iv.Lo })
	if pos < len(ent.versions) && ent.versions[pos].iv.Lo == iv.Lo {
		sh.widenLocked(s, ent.versions[pos], iv.Hi, still, genSnap, tags)
		return nil
	}

	v := &version{
		key:  key,
		iv:   iv,
		tags: tags,
		data: data,
		size: int64(len(key)+len(data)) + perVersionOverhead,
	}
	if still {
		v.still, v.iv.Hi, v.hiWall = sh.settleStillLocked(s, tags, genSnap)
		if v.iv.Empty() {
			return nil
		}
		sh.enlistLocked(s, v)
	}
	ent.versions = append(ent.versions, nil)
	copy(ent.versions[pos+1:], ent.versions[pos:])
	ent.versions[pos] = v
	v.lru = sh.lruList.PushFront(v)
	sh.stats.versions.Add(1)
	s.used.Add(v.size)
	return v
}

// settleStillLocked decides what a still-valid offer generated at snapshot
// genSnap is worth on this node now: still valid (hi = Infinity), or closed
// at hi by an invalidation the node has already processed. On a still
// outcome the caller must enlist the version the tags belong to before it
// releases the shard lock: the replay here and that registration being one
// critical section is what orders a Put against ApplyInvalidation's visit
// (see the note there). Caller holds sh.mu.
func (sh *shard) settleStillLocked(s *Server, tags []invalidation.TagID, genSnap interval.Timestamp) (still bool, hi interval.Timestamp, wall time.Time) {
	if len(tags) == 0 {
		// A pure function of its arguments: no database dependencies,
		// nothing can ever invalidate it.
		return true, interval.Infinity, time.Time{}
	}
	ts, wall, belowFloor := s.hist.firstMatch(tags, genSnap)
	switch {
	case belowFloor:
		// History cannot prove no invalidation hit it in (genSnap,
		// lastInval]; close it at the last timestamp the generating
		// transaction proved it valid.
		sh.stats.floorClosed.Add(1)
		return false, genSnap + 1, time.Time{}
	case ts != interval.Infinity:
		// Retroactive replay: the earliest retained message after genSnap
		// matching any of the entry's tags truncates it.
		return false, ts, wall
	}
	return true, interval.Infinity, time.Time{}
}

// enlistLocked puts a version whose bound settleStillLocked just decided
// where the invalidation machinery will find it: the tag indexes while it is
// still valid, the staleness queue once a message with a wall time closed
// it. Caller holds sh.mu.
func (sh *shard) enlistLocked(s *Server, v *version) {
	switch {
	case v.still:
		sh.registerTags(v)
	case !v.hiWall.IsZero() && s.cfg.MaxStaleness > 0:
		sh.staleQ = append(sh.staleQ, v)
	}
}

// widenLocked handles a put whose Lo equals stored version v's: when the
// offer proves v valid for longer than v says — v was closed conservatively
// (history floor, a stream gap) or installed bounded — v's bound moves out in
// place. A still-valid offer goes through the same registration and history
// replay as a fresh insert, so one generated before an invalidation the
// node has processed still ends at that invalidation. The payload is not
// replaced (same version, same value) and nothing is charged. Identical or
// narrower offers change nothing. Caller holds sh.mu.
func (sh *shard) widenLocked(s *Server, v *version, hi interval.Timestamp, still bool, genSnap interval.Timestamp, tags []invalidation.TagID) {
	if v.still {
		return
	}
	var wall time.Time
	if still {
		still, hi, wall = sh.settleStillLocked(s, tags, genSnap)
	}
	if !still && hi <= v.iv.Hi {
		return
	}
	// A queued v keeps its place in the staleness queue; the sweep skips it
	// while hiWall is zero and judges it by the new wall time otherwise.
	v.still, v.iv.Hi, v.hiWall, v.tags = still, hi, wall, tags
	sh.enlistLocked(s, v)
}

// evictLocked removes a version from this shard; capacity marks the reason.
// Caller holds sh.mu.
func (sh *shard) evictLocked(s *Server, v *version, capacity bool) {
	ent := sh.entries[v.key]
	for i, cand := range ent.versions {
		if cand == v {
			ent.versions = append(ent.versions[:i], ent.versions[i+1:]...)
			break
		}
	}
	if capacity {
		ent.capacityE = true
		sh.stats.evictedCapacity.Add(1)
	} else {
		sh.stats.evictedStale.Add(1)
	}
	sh.lruList.Remove(v.lru)
	v.lru = nil // marks the version dead for the staleness queue
	sh.stats.versions.Add(-1)
	s.used.Add(-v.size)
	if v.still {
		sh.unregisterTags(v)
	}
	// Drop the payload now: the staleness queue may keep the version
	// header reachable until the sweep passes it, and a dead header must
	// not pin the data. In-flight lookup results hold their own slice
	// headers and are unaffected.
	v.data = nil
	v.tags = nil
}

// applyLocked truncates this shard's still-valid versions affected by one
// invalidation-stream message — atomically for all tags of the message,
// because the whole per-shard application runs under sh.mu (paper §4.2).
// Caller holds sh.mu.
func (sh *shard) applyLocked(s *Server, m invalidation.Message) {
	// The scratch set dedupes versions reached through several of the
	// message's tags; it is cleared after use so steady-state invalidation
	// processing allocates nothing.
	for _, t := range m.Tags {
		a, b := meets(sh.byTag, sh.tableDeps, t)
		for v := range a {
			sh.affected[v] = struct{}{}
		}
		for v := range b {
			sh.affected[v] = struct{}{}
		}
	}
	sh.closeAffectedLocked(s, m.TS, m.WallTime)
}

// closeStillLocked bounds every tag-registered still-valid version of this
// shard at hi+1 — its current effective validity under horizon hi — so it
// cannot be extended past a gap in the stream (Server.crossGapLocked), and
// reports how many there were. Tagless still-valid versions are untouched:
// nothing in the database can ever invalidate them. Caller holds sh.mu.
func (sh *shard) closeStillLocked(s *Server, hi interval.Timestamp, wall time.Time) int {
	for _, set := range sh.tableDeps {
		for v := range set {
			sh.affected[v] = struct{}{}
		}
	}
	n := len(sh.affected)
	sh.closeAffectedLocked(s, hi+1, wall)
	return n
}

// closeAffectedLocked ends every version collected in sh.affected at hi and
// empties the set. (Collected first because unregisterTags mutates the very
// maps the collecting loops iterate.) Caller holds sh.mu.
func (sh *shard) closeAffectedLocked(s *Server, hi interval.Timestamp, wall time.Time) {
	for v := range sh.affected {
		v.iv.Hi = hi
		v.still = false
		v.hiWall = wall
		sh.unregisterTags(v)
		// The staleness queue exists only for the sweep; without a
		// MaxStaleness bound the sweep never runs and the queue would just
		// pin evicted payloads forever.
		if s.cfg.MaxStaleness > 0 {
			sh.staleQ = append(sh.staleQ, v)
		}
		sh.stats.invalidated.Add(1)
	}
	clear(sh.affected)
}

func (sh *shard) registerTags(v *version) {
	for _, t := range v.tags {
		addDep(sh.byTag, t, v)
		addDep(sh.tableDeps, invalidation.WildOf(t), v)
	}
}

func (sh *shard) unregisterTags(v *version) {
	for _, t := range v.tags {
		delDep(sh.byTag, t, v)
		delDep(sh.tableDeps, invalidation.WildOf(t), v)
	}
}

// sweepStaleLocked drops this shard's versions invalidated longer than
// MaxStaleness ago (cutoff precomputed by the caller). It pops the
// staleness queue's expired prefix instead of walking every cached version;
// the queue is in message order, so wall times are (near-)monotone — a rare
// out-of-order entry from a retroactive Put truncation just waits for the
// queue front to pass the cutoff. Caller holds sh.mu.
func (sh *shard) sweepStaleLocked(s *Server, cutoff time.Time) {
	i := 0
	for ; i < len(sh.staleQ); i++ {
		v := sh.staleQ[i]
		if v.lru == nil || v.hiWall.IsZero() {
			// Already evicted, or invalidated by a message with no wall
			// time (the zero time is before every cutoff and must not mean
			// "instantly stale").
			continue
		}
		if !v.hiWall.Before(cutoff) {
			break
		}
		sh.evictLocked(s, v, false)
	}
	if i > 0 {
		n := copy(sh.staleQ, sh.staleQ[i:])
		clear(sh.staleQ[n:])
		sh.staleQ = sh.staleQ[:n]
	}
}

func addDep(m map[invalidation.TagID]map[*version]struct{}, k invalidation.TagID, v *version) {
	set := m[k]
	if set == nil {
		set = make(map[*version]struct{})
		m[k] = set
	}
	set[v] = struct{}{}
}

func delDep(m map[invalidation.TagID]map[*version]struct{}, k invalidation.TagID, v *version) {
	if set := m[k]; set != nil {
		delete(set, v)
		if len(set) == 0 {
			delete(m, k)
		}
	}
}

// meets is dual-granularity matching (paper §4.2), stated once for the two
// inverted indexes the node keeps: a shard's tag → still-valid versions,
// probed with a message's tags, and the history's tag → newest retained
// timestamp, probed with a version's. Both file every tag twice — under its
// own TagID (key and wildcard TagIDs are disjoint, so one map holds both
// kinds) and under its table's wildcard TagID in the second map — and the
// rule is the same in either direction: a key tag meets its twin and its
// table's wildcard, both in the first map; a wildcard meets every tag of its
// table. The second result is the zero P for a wildcard probe; firstMatch
// scans the ring with invalidation.Affects, the pairwise form of the same
// rule, once a probe has proven a match exists.
func meets[P any](byTag, table map[invalidation.TagID]P, t invalidation.TagID) (P, P) {
	w := invalidation.WildOf(t)
	if t == w {
		var none P
		return table[w], none
	}
	return byTag[t], byTag[w]
}
