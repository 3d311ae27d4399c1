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
	idx     int // this shard's index in Server.shards
	nShards int // total shard count (for depCounts slot sizing)

	mu      sync.Mutex
	entries map[string]*entry
	lruList *list.List // *version; front = most recently used

	// Inverted tag→versions indexes over this shard's still-valid
	// versions, keyed by interned TagIDs exactly as the pre-shard server's
	// were (tableDeps and wildDeps by the table's wildcard TagID). A
	// version appears here iff it is still valid and stored in this shard;
	// the server's fan-out counters (depCounts) mirror non-emptiness so
	// ApplyInvalidation can skip shards with nothing to match.
	exact     map[invalidation.TagID]map[*version]struct{}
	tableDeps map[invalidation.TagID]map[*version]struct{}
	wildDeps  map[invalidation.TagID]map[*version]struct{}
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
	c.evictedCapacity.Store(0)
	c.evictedStale.Store(0)
	// versions and keys are gauges, not counters: they track residency.
}

func (sh *shard) init() {
	sh.entries = make(map[string]*entry)
	sh.lruList = list.New()
	sh.exact = make(map[invalidation.TagID]map[*version]struct{})
	sh.tableDeps = make(map[invalidation.TagID]map[*version]struct{})
	sh.wildDeps = make(map[invalidation.TagID]map[*version]struct{})
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
// outcome the tags stay counted in the fan-out table and the caller must
// enlist the version they belong to. Caller holds sh.mu.
func (sh *shard) settleStillLocked(s *Server, tags []invalidation.TagID, genSnap interval.Timestamp) (still bool, hi interval.Timestamp, wall time.Time) {
	if len(tags) == 0 {
		// A pure function of its arguments: no database dependencies,
		// nothing can ever invalidate it.
		return true, interval.Infinity, time.Time{}
	}
	// Count the registration in the fan-out table BEFORE consulting the
	// history: ApplyInvalidation reads the counters inside the history lock,
	// so either it sees this shard as matchable, or our replay (below, also
	// under the history lock) sees its message — there is no interleaving
	// where both miss (see the ordering note on histIndex in server.go).
	s.deps.add(sh, tags)
	ts, wall, belowFloor := s.hist.firstMatch(tags, genSnap)
	switch {
	case belowFloor:
		// History cannot prove no invalidation hit it in (genSnap,
		// lastInval]; close it at the last timestamp the generating
		// transaction proved it valid.
		s.deps.remove(sh, tags)
		return false, genSnap + 1, time.Time{}
	case ts != interval.Infinity:
		// Retroactive replay: the earliest retained message after genSnap
		// matching any of the entry's tags truncates it.
		s.deps.remove(sh, tags)
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
// (history floor, WarmBoot) or installed bounded — v's bound moves out in
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
		s.deps.remove(sh, v.tags)
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
	affected := sh.affected
	for _, t := range m.Tags {
		w := invalidation.WildOf(t)
		if t == w {
			for v := range sh.tableDeps[w] {
				affected[v] = struct{}{}
			}
			continue
		}
		for v := range sh.exact[t] {
			affected[v] = struct{}{}
		}
		// A cached value that depends on a scan of the table is affected by
		// any change to the table (dual granularity).
		for v := range sh.wildDeps[w] {
			affected[v] = struct{}{}
		}
	}
	for v := range affected {
		v.iv.Hi = m.TS
		v.still = false
		v.hiWall = m.WallTime
		sh.unregisterTags(v)
		s.deps.remove(sh, v.tags)
		// The staleness queue exists only for the sweep; without a
		// MaxStaleness bound the sweep never runs and the queue would just
		// pin evicted payloads forever.
		if s.cfg.MaxStaleness > 0 {
			sh.staleQ = append(sh.staleQ, v)
		}
		sh.stats.invalidated.Add(1)
	}
	clear(affected)
}

// closeStillLocked bounds every tag-registered still-valid version of this
// shard at hi+1 — its current effective validity under horizon hi — so it
// cannot be extended past a crash-recovery gap (Server.WarmBoot). Tagless
// still-valid versions are untouched: nothing in the database can ever
// invalidate them. Caller holds sh.mu.
func (sh *shard) closeStillLocked(s *Server, hi interval.Timestamp, wall time.Time) {
	// Collect first: unregisterTags mutates the very maps being iterated.
	affected := sh.affected
	for _, set := range sh.tableDeps {
		for v := range set {
			affected[v] = struct{}{}
		}
	}
	for v := range affected {
		v.iv.Hi = hi + 1
		v.still = false
		v.hiWall = wall
		sh.unregisterTags(v)
		s.deps.remove(sh, v.tags)
		if s.cfg.MaxStaleness > 0 {
			sh.staleQ = append(sh.staleQ, v)
		}
		sh.stats.invalidated.Add(1)
	}
	clear(affected)
}

func (sh *shard) registerTags(v *version) {
	for _, t := range v.tags {
		w := invalidation.WildOf(t)
		if t == w {
			addDep(sh.wildDeps, w, v)
		} else {
			addDep(sh.exact, t, v)
		}
		addDep(sh.tableDeps, w, v)
	}
}

func (sh *shard) unregisterTags(v *version) {
	for _, t := range v.tags {
		w := invalidation.WildOf(t)
		if t == w {
			delDep(sh.wildDeps, w, v)
		} else {
			delDep(sh.exact, t, v)
		}
		delDep(sh.tableDeps, w, v)
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

// ---------------------------------------------------------------------------
// Fan-out counters.
// ---------------------------------------------------------------------------

// depCounts tells ApplyInvalidation which shards can possibly hold a
// version matching a message tag, so the fan-out visits only those shards
// (and a lookup-heavy shard is never stalled by an invalidation it cannot
// match). It is a per-TagID table of per-shard registration counts,
// maintained by the shards as they register and unregister still-valid
// versions.
//
// TagIDs are dense small integers (the interner assigns them sequentially),
// so the table is a two-level array indexed by TagID: a directory of
// fixed-size pages whose slots are atomic pointers. Readers are lock-free
// (one directory load, one slot load). First sight of a tag is one slot
// CompareAndSwap into a page that is never copied; only a TagID beyond every
// existing page takes the mutex, to allocate that one page and — rarer still
// — republish the directory, which holds one pointer per depPageSlots tags.
// Each tag's counters are two atomic counts per shard:
//
//	direct — versions registered under the tag itself: the exact index
//	         for key tags, the wildDeps index for wildcard tags;
//	table  — versions registered under the tag's table (the tableDeps
//	         index; meaningful only for wildcard TagIDs).
//
// A message key tag t must visit shards where direct(t) or direct(wild(t))
// is nonzero; a message wildcard tag w must visit shards where table(w) is
// nonzero. Counts may transiently exceed the registered population (Put
// counts optimistically before its history replay decides), which only
// costs a spurious shard visit — never a missed one.
type depCounts struct {
	mu  sync.Mutex // serializes page allocation and directory growth
	dir atomic.Pointer[[]*depPage]
}

// depPageSlots is the number of TagIDs one page covers (4 KiB of slots).
const depPageSlots = 512

type depPage [depPageSlots]atomic.Pointer[tagCounts]

// tagCounts holds one tag's per-shard counters: c[2*shard] is direct,
// c[2*shard+1] is table.
type tagCounts struct {
	c []atomic.Int32
}

// page returns the page holding tag t's slot (t != 0), or nil if no tag in
// its range was ever registered.
func (d *depCounts) page(t invalidation.TagID) *depPage {
	dir := d.dir.Load()
	if pi := int(t-1) / depPageSlots; dir != nil && pi < len(*dir) {
		return (*dir)[pi]
	}
	return nil
}

// get returns tag t's counter block, or nil if t was never registered
// anywhere (or is the zero TagID).
func (d *depCounts) get(t invalidation.TagID) *tagCounts {
	if t == 0 {
		return nil
	}
	if pg := d.page(t); pg != nil {
		return pg[int(t-1)%depPageSlots].Load()
	}
	return nil
}

// slot returns the counter block for tag t (t != 0), allocating it on first
// sight.
func (d *depCounts) slot(t invalidation.TagID, nShards int) *tagCounts {
	if tc := d.get(t); tc != nil {
		return tc
	}
	pg := d.page(t)
	if pg == nil {
		pg = d.newPage(t)
	}
	// Two shards may see the tag first at once; the loser adopts the
	// winner's block, so no count is ever made on an unpublished one.
	s := &pg[int(t-1)%depPageSlots]
	s.CompareAndSwap(nil, &tagCounts{c: make([]atomic.Int32, 2*nShards)})
	return s.Load()
}

// newPage allocates the page for tag t. A published directory is immutable
// (a page appears only in a fresh copy), and published pages are shared by
// every copy, so readers holding an old directory miss nothing but pages
// whose tags did not exist when they loaded it.
func (d *depCounts) newPage(t invalidation.TagID) *depPage {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pg := d.page(t); pg != nil {
		return pg
	}
	var dir []*depPage
	if cur := d.dir.Load(); cur != nil {
		dir = *cur
	}
	pi := int(t-1) / depPageSlots
	grown := make([]*depPage, max(pi+1, len(dir)))
	copy(grown, dir)
	grown[pi] = new(depPage)
	d.dir.Store(&grown)
	return grown[pi]
}

// add counts a registration of tags in shard sh (direct under each tag,
// table under each tag's wildcard).
func (d *depCounts) add(sh *shard, tags []invalidation.TagID) {
	for _, t := range tags {
		w := invalidation.WildOf(t)
		d.slot(t, sh.nShards).c[2*sh.idx].Add(1)
		d.slot(w, sh.nShards).c[2*sh.idx+1].Add(1)
	}
}

// remove undoes add.
func (d *depCounts) remove(sh *shard, tags []invalidation.TagID) {
	for _, t := range tags {
		w := invalidation.WildOf(t)
		d.slot(t, sh.nShards).c[2*sh.idx].Add(-1)
		d.slot(w, sh.nShards).c[2*sh.idx+1].Add(-1)
	}
}

// orShards sets bm's bit for every shard whose counter (direct or table,
// chosen by off) for tag t is nonzero. Missing slots mean the tag was never
// registered anywhere.
func (d *depCounts) orShards(bm []uint64, t invalidation.TagID, off int, nShards int) {
	tc := d.get(t)
	if tc == nil {
		return
	}
	for i := 0; i < nShards; i++ {
		if tc.c[2*i+off].Load() > 0 {
			bm[i>>6] |= 1 << (i & 63)
		}
	}
}
