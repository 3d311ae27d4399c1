package cacheserver

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// shard is 1/Nth of the cache node: it owns its mutex, its slice of the key
// space (routed by key hash), and everything whose lifetime follows those
// keys — the entry map, the LRU ring, the staleness queue, and the inverted
// tag→versions indexes for the still-valid versions it stores. Operations
// on different shards never contend; the only cross-shard state is the
// server's global byte budget, invalidation history, and horizon, all of
// which are atomics or read-mostly structures (see server.go).
type shard struct {
	idx int // this shard's index in Server.shards

	mu      sync.Mutex
	entries map[string]*entry
	// lru is the sentinel of the ring of resident versions: lru.next is the
	// most recently used, lru.prev the eviction candidate.
	lru version

	// Inverted tag→versions indexes over this shard's still-valid
	// versions, filed the way meets reads them: byTag holds a version under
	// each of its tags' own IDs, tableDeps under each tag's table's wildcard
	// ID. A version appears here iff it is still valid and stored in this
	// shard, at most once in any list.
	byTag     tagLists
	tableDeps tagLists
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
	sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
	sh.byTag = make(tagLists)
	sh.tableDeps = make(tagLists)
	sh.affected = make(map[*version]struct{})
}

// pushFrontLocked links v into the LRU ring as the most recently used.
// Caller holds sh.mu.
func (sh *shard) pushFrontLocked(v *version) {
	v.prev, v.next = &sh.lru, sh.lru.next
	v.next.prev = v
	sh.lru.next = v
}

// unlinkLocked takes v out of the LRU ring and marks it evicted (next ==
// nil). Caller holds sh.mu.
func (sh *shard) unlinkLocked(v *version) {
	v.prev.next, v.next.prev = v.next, v.prev
	v.prev, v.next = nil, nil
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
	if sh.lru.next != best {
		sh.unlinkLocked(best)
		sh.pushFrontLocked(best)
	}
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

	v := &version{ent: ent, iv: iv, tags: tags, data: data}
	if still {
		var wall time.Time
		v.still, v.iv.Hi, wall = sh.settleStillLocked(s, tags, genSnap)
		v.setWall(wall)
		if v.iv.Empty() {
			return nil
		}
		sh.enlistLocked(s, v)
	}
	ent.versions = append(ent.versions, nil)
	copy(ent.versions[pos+1:], ent.versions[pos:])
	ent.versions[pos] = v
	sh.pushFrontLocked(v)
	sh.stats.versions.Add(1)
	s.used.Add(v.charge())
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
	case v.walled && s.cfg.MaxStaleness > 0:
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
	// while it has no wall time and judges it by the new one otherwise.
	v.still, v.iv.Hi, v.tags = still, hi, tags
	v.setWall(wall)
	sh.enlistLocked(s, v)
}

// evictLocked removes a version from this shard; capacity marks the reason.
// Caller holds sh.mu.
func (sh *shard) evictLocked(s *Server, v *version, capacity bool) {
	ent := v.ent
	if i := slices.Index(ent.versions, v); i >= 0 {
		// Delete clears the vacated tail slot: the entry outlives its
		// versions, and must not keep an evicted one reachable.
		ent.versions = slices.Delete(ent.versions, i, i+1)
	}
	if capacity {
		ent.capacityE = true
		sh.stats.evictedCapacity.Add(1)
	} else {
		sh.stats.evictedStale.Add(1)
	}
	sh.unlinkLocked(v) // marks the version dead for the staleness queue
	sh.stats.versions.Add(-1)
	s.used.Add(-v.charge())
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
		for _, v := range a {
			sh.affected[v] = struct{}{}
		}
		for _, v := range b {
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
	for _, list := range sh.tableDeps {
		for _, v := range list {
			sh.affected[v] = struct{}{}
		}
	}
	n := len(sh.affected)
	sh.closeAffectedLocked(s, hi+1, wall)
	return n
}

// closeAffectedLocked ends every version collected in sh.affected at hi and
// empties the set. (Collected first because unregisterTags reorders the very
// lists the collecting loops iterate.) Caller holds sh.mu.
func (sh *shard) closeAffectedLocked(s *Server, hi interval.Timestamp, wall time.Time) {
	for v := range sh.affected {
		v.iv.Hi = hi
		v.still = false
		v.setWall(wall)
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

// registerTags files a version that just became still valid in both tag
// indexes. Caller holds sh.mu.
func (sh *shard) registerTags(v *version) {
	v.pos = make([]int32, 2*len(v.tags))
	sh.byTag.add(v, false)
	sh.tableDeps.add(v, true)
}

// unregisterTags takes a version off every list it is on. It never scans a
// list: each removal is one swap, however many versions share the list.
// Caller holds sh.mu.
func (sh *shard) unregisterTags(v *version) {
	sh.byTag.remove(v, false)
	sh.tableDeps.remove(v, true)
	v.pos = nil
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
		if v.next == nil || !v.walled {
			// Already evicted, or invalidated by a message with no wall
			// time (the zero time is before every cutoff and must not mean
			// "instantly stale").
			continue
		}
		if v.hiWall >= cutoff.UnixNano() {
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

// tagLists is one of a shard's two inverted indexes: for each TagID, the
// still-valid versions filed under it, in no order. byTag files a version
// under each of its tags, tableDeps under each tag's table wildcard (the
// table flag the methods take). A version keeps its slot in every list it is
// on (version.pos), so taking it off is a swap-remove that never scans a
// list, however many versions share it.
type tagLists map[invalidation.TagID][]*version

// listKey is the list tag t files a version under.
func listKey(t invalidation.TagID, table bool) invalidation.TagID {
	if table {
		return invalidation.WildOf(t)
	}
	return t
}

// posIndex is the index in version.pos of tag i's slot in an index.
func posIndex(i int, table bool) int {
	if table {
		return 2*i + 1
	}
	return 2 * i
}

// posOf returns the index in v.pos that records v's slot in the list filed
// under k: the first of v's tags that files there holds it, and a later one
// holds -1, so v is on each list once.
func posOf(v *version, k invalidation.TagID, table bool) int {
	for i, t := range v.tags {
		if listKey(t, table) == k {
			return posIndex(i, table)
		}
	}
	panic("cacheserver: a tag list holds a version none of whose tags files there")
}

// add appends v to the list of each of its tags and records its slots.
func (m tagLists) add(v *version, table bool) {
	for i, t := range v.tags {
		k, p := listKey(t, table), posIndex(i, table)
		list := m[k]
		if n := len(list); n > 0 && list[n-1] == v {
			v.pos[p] = -1 // an earlier tag put v on this list
			continue
		}
		v.pos[p] = int32(len(list))
		m[k] = append(list, v)
	}
}

// remove takes v off every list add put it on: the list's last version moves
// into v's slot, its own slot found among its tags, and an emptied list gives
// up its key.
func (m tagLists) remove(v *version, table bool) {
	for i, t := range v.tags {
		at := v.pos[posIndex(i, table)]
		if at < 0 {
			continue
		}
		k := listKey(t, table)
		list := m[k]
		if last := list[len(list)-1]; last != v {
			list[at] = last
			last.pos[posOf(last, k, table)] = at
		}
		list[len(list)-1] = nil
		if list = list[:len(list)-1]; len(list) == 0 {
			delete(m, k)
		} else {
			m[k] = list
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
