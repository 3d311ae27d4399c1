// Package cacheserver implements the versioned cache node (paper §4): a
// hash table whose entries carry validity intervals, support lookups by
// timestamp bounds, and are kept current by the database's ordered
// invalidation stream using dual-granularity invalidation tags.
//
// The node is sharded for multicore scaling, memcached-style: the key
// space is split across power-of-two lock shards (shard.go), each owning
// its own mutex, entry map, LRU ring, staleness queue, and inverted tag
// indexes, so operations on different keys never contend. What remains
// global is exactly the state whose semantics are node-wide: the byte
// budget (one atomic counter), the invalidation horizon (one atomic
// timestamp), the retained message history (a read-mostly RWMutex
// structure), and the stream itself (one mutex serializing ordered
// message application). See DESIGN.md "Cache-node sharding & the global
// eviction budget".
package cacheserver

import (
	"context"
	"log"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/clock"
	"txcache/internal/interval"
	"txcache/internal/invalidation"
)

// MissKind classifies a cache miss, following the CPU-cache-inspired
// taxonomy of paper §8.3 (Figure 8).
type MissKind int

// Miss kinds. Unlike the paper's server, ours can distinguish staleness
// from capacity misses; reports may merge them to match Figure 8.
const (
	MissNone MissKind = iota // it was a hit
	// MissCompulsory: the key was never stored in this cache.
	MissCompulsory
	// MissConsistency: a sufficiently fresh version exists, but none
	// overlaps the transaction's pin-set bounds.
	MissConsistency
	// MissStaleness: versions exist but all have been invalidated beyond
	// the freshness window.
	MissStaleness
	// MissCapacity: a usable version was evicted to free memory.
	MissCapacity
)

func (k MissKind) String() string {
	return [...]string{"hit", "compulsory", "consistency", "staleness", "capacity"}[k]
}

// perVersionOverhead is the fixed charge per cached version on top of its
// key and payload. It is a budget unit, not a measurement: the bookkeeping
// a still-valid version really holds (the version, its entry and its share
// of the tag indexes, TestVersionBytes) measures 366 B, down from 676 B when
// every TagID had its own Go map and every version a container/list
// element. DESIGN.md "Cache-node sharding & the global eviction budget"
// says why the charge stays below it.
const perVersionOverhead = 128

// version is one cached value version.
type version struct {
	ent  *entry // the key's entry, which outlives the version
	iv   interval.Interval
	tags []invalidation.TagID
	data []byte
	// pos holds the version's back-positions while it is still valid:
	// pos[2i] is its slot in byTag's list for tags[i], pos[2i+1] in
	// tableDeps' list for tags[i]'s table. A tag that files under the same
	// list as an earlier one holds -1 there; nil while not registered.
	pos []int32
	// prev and next link the shard's LRU ring; next == nil once evicted.
	prev, next *version
	// hiWall is the wall time, in Unix nanoseconds, at which the version
	// was invalidated; walled says there is one (false while still valid or
	// unknown).
	hiWall int64
	walled bool
	still  bool // still-valid: subscribed to invalidations
}

// charge is what the version costs the node's byte budget.
func (v *version) charge() int64 {
	return int64(len(v.ent.key)+len(v.data)) + perVersionOverhead
}

// setWall records the wall time of the message that closed the version; the
// zero time records none.
func (v *version) setWall(wall time.Time) {
	v.hiWall, v.walled = 0, !wall.IsZero()
	if v.walled {
		v.hiWall = wall.UnixNano()
	}
}

// effHi is the version's effective exclusive upper bound for lookups:
// still-valid entries are bounded by the last invalidation processed,
// eliminating the insert/invalidate race (paper §4.2).
func (v *version) effHi(lastInval interval.Timestamp) interval.Timestamp {
	if v.still {
		return lastInval + 1
	}
	return v.iv.Hi
}

// entry is the per-key state. It survives eviction of all its versions so
// the server can classify later misses.
type entry struct {
	key       string
	versions  []*version // sorted by iv.Lo ascending
	everPut   bool
	capacityE bool // a version was evicted for capacity since the last put
}

// Config configures a cache node.
type Config struct {
	// CapacityBytes bounds memory charged to cached versions; <= 0 means
	// unlimited. The budget is node-global: shards share it through one
	// atomic counter, and eviction frees bytes wherever they are cheapest
	// to free (the putting shard first), so there are no per-shard
	// capacity cliffs.
	CapacityBytes int64
	// MaxStaleness lets the server eagerly drop versions invalidated more
	// than this long ago ("too stale to be useful", §4.1); 0 disables.
	MaxStaleness time.Duration
	// HistoryLen is how many of the newest invalidation messages the node
	// retains to order late still-valid inserts against invalidations it
	// has already processed: exactly the last HistoryLen, in a ring. A
	// still-valid insert generated before the oldest of them is closed at
	// its generating snapshot (Stats.FloorClosed counts them). Defaults to
	// 8192 messages. A retained message costs 24 B, 8 B a tag in the
	// history's tag arena (which is one to four times what it retains), and
	// an entry in the history's tag maps for each tag no newer message
	// carries.
	HistoryLen int
	// Clock supplies wall time; defaults to the real clock.
	Clock clock.Clock
}

// Server is one cache node. All methods are safe for concurrent use.
//
// A node vouches only for the stretch of the invalidation stream it has
// seen. Its horizon (lastInval) is the newest message applied, and a
// still-valid entry is served through it and no further; its history floor
// is where that stretch begins, and a still-valid insert generated below it
// is kept only as far as its own transaction proved it. Both come from the
// stream itself, which carries one message per commit timestamp: a message
// that is not the successor of the horizon says the node missed some, and
// the node crosses that gap before applying it (apply, crossGapLocked). So a
// node needs no seeding and no announcement — not when it joins, not when
// the database restarts — to be safe.
//
// Synchronization layers, from hottest to coldest:
//
//   - shard mutexes (shard.go): all per-key state. Lookups, puts, and
//     per-shard invalidation application take exactly one.
//   - hist (RWMutex): the retained invalidation history. Writers are
//     stream messages (one per committed write transaction); readers are
//     still-valid Puts replaying their ordering window.
//   - lastInval, used, per-shard stat counters: atomics. Lookups read the
//     horizon with one load; Stats()/ResetStats() never touch a lock.
//   - streamMu: serializes apply so stream messages (and the gaps between
//     them) apply in timestamp order across shard visits.
//
// Lock order: streamMu → hist.mu, and shard.mu → hist.mu (a Put replays
// history while holding its shard). Nothing acquires a shard lock while
// holding hist.mu, and nothing acquires two shard locks at once.
type Server struct {
	cfg Config

	shards    []shard
	shardMask uint64

	// used is the node-global byte budget counter: the sum of the resident
	// versions' charges.
	used atomic.Int64

	// lastInval is the node's consistency horizon: the timestamp of the
	// newest stream message fully applied (or the far side of a gap the node
	// is crossing, just below the message that revealed it).
	// It is advanced only after every shard has been visited, so a lookup
	// that reads it can never extend a still-valid entry past an
	// invalidation its shard has not yet absorbed.
	lastInval atomic.Uint64

	// streamMu serializes ordered stream application (apply) and guards the
	// stream-side state below.
	streamMu sync.Mutex
	msgCount uint64

	invalidations atomic.Uint64 // stream messages processed

	// hist retains recent stream messages so a still-valid insert that
	// arrives after a matching invalidation was already processed can be
	// truncated retroactively (§4.2's ordering argument).
	hist histIndex
}

// Stats are cumulative cache-node counters, answered on rpc.OpStats.
type Stats struct {
	Lookups         uint64 `json:"lookups"`
	Hits            uint64 `json:"hits"`
	MissCompulsory  uint64 `json:"missCompulsory"`
	MissConsistency uint64 `json:"missConsistency"`
	MissStaleness   uint64 `json:"missStaleness"`
	MissCapacity    uint64 `json:"missCapacity"`
	Puts            uint64 `json:"puts"`
	Invalidations   uint64 `json:"invalidations"` // stream messages processed
	Invalidated     uint64 `json:"invalidated"`   // versions whose intervals were truncated
	// FloorClosed counts still-valid offers closed at genSnap+1 because the
	// history no longer reached back to genSnap (HistoryLen, a gap).
	FloorClosed     uint64 `json:"floorClosed"`
	EvictedCapacity uint64 `json:"evictedCapacity"`
	EvictedStale    uint64 `json:"evictedStale"`
	BytesUsed       int64  `json:"bytesUsed"`
	Versions        int    `json:"versions"`
	Keys            int    `json:"keys"`
	// Horizon is the node's consistency horizon (LastInvalidation): the
	// newest timestamp it can serve still-valid entries through.
	Horizon interval.Timestamp `json:"horizon"`
}

// Misses returns the total miss count.
func (s Stats) Misses() uint64 {
	return s.MissCompulsory + s.MissConsistency + s.MissStaleness + s.MissCapacity
}

// ceilPow2 rounds n up to the next power of two (n >= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New creates a cache node. Its key space is split across max(8,
// 4×GOMAXPROCS) lock shards, rounded up to a power of two: enough that
// every core can run a lookup with a comfortably low collision probability,
// floored so small-GOMAXPROCS processes still spread hot keys.
func New(cfg Config) *Server {
	return newSharded(cfg, max(8, 4*runtime.GOMAXPROCS(0)))
}

// newSharded creates a cache node with n lock shards, rounded up to a power
// of two. One shard is the single-lock node, whose LRU order is exact and
// global.
func newSharded(cfg Config, n int) *Server {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.HistoryLen <= 0 {
		cfg.HistoryLen = 8192
	}
	n = ceilPow2(n)
	s := &Server{
		cfg:       cfg,
		shards:    make([]shard, n),
		shardMask: uint64(n - 1),
	}
	for i := range s.shards {
		s.shards[i].idx = i
		s.shards[i].init()
	}
	s.hist.init(cfg.HistoryLen)
	return s
}

// shardIndex routes a key to its shard: FNV-1a over the key bytes, high
// half folded in so the power-of-two mask sees the whole hash. The routing
// is a pure function of the key and the shard count — FuzzShardRouting
// pins it.
func (s *Server) shardIndex(key string) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 32
	return uint32(h & s.shardMask)
}

func (s *Server) shardOf(key string) *shard { return &s.shards[s.shardIndex(key)] }

// LookupResult is the reply to a Lookup.
type LookupResult struct {
	Found bool
	Data  []byte
	// Validity is the effective validity interval of the returned version:
	// still-valid entries are reported with Hi = lastInval+1, the newest
	// timestamp this node knows to be consistent.
	Validity interval.Interval
	// Still reports whether the version is still valid (unbounded upstream).
	Still bool
	// Tags are the version's invalidation tags, returned for still-valid
	// hits so nested cacheable calls can attach the dependencies to their
	// enclosing functions (paper §6.3). Nil for invalidated versions,
	// whose bounded validity already says everything. The slice is shared
	// with the cache entry and must be treated as immutable.
	Tags []invalidation.TagID
	Miss MissKind // when !Found
}

// Lookup finds the most recent version of key whose effective validity
// interval intersects the inclusive timestamp range [lo, hi] — the bounds
// of the requesting transaction's pin set. origLo/origHi are the bounds of
// the transaction's pin set at BEGIN time (its unconstrained freshness
// window), used only to classify consistency misses. A cancelled ctx
// degrades to a compulsory miss — the in-process node never blocks, so the
// check exists only so a cancelled transaction stops doing cache work.
// Only the key's shard is locked; lookups on keys of other shards proceed
// in parallel.
func (s *Server) Lookup(ctx context.Context, key string, lo, hi, origLo, origHi interval.Timestamp) LookupResult {
	if ctx != nil && ctx.Err() != nil {
		return LookupResult{Miss: MissCompulsory}
	}
	sh := s.shardOf(key)
	sh.mu.Lock()
	r := sh.lookupLocked(key, lo, hi, origLo, origHi, interval.Timestamp(s.lastInval.Load()))
	sh.mu.Unlock()
	return r
}

// LookupBatch is one Lookup per probe, in order.
func (s *Server) LookupBatch(ctx context.Context, reqs []BatchLookup) []LookupResult {
	return lookupEach(ctx, s, reqs)
}

// Put stores a version of key valid over iv. If still is set, the entry
// reflects the database state as of the generating snapshot genSnap (the
// snapshot the computing transaction ran at) and will be invalidated when
// a committed transaction touches any of its tags. Put never fails; under
// memory pressure it evicts least-recently-used versions, preferring the
// shard it just stored into and spilling to other shards' LRU tails when
// the global budget is still exceeded.
//
// A still-valid insert may arrive after the node has already processed an
// invalidation that affects it (the flip side of §4.2's ordering race).
// The node replays its retained message history after genSnap: a matching
// message truncates the entry retroactively; if the history no longer
// reaches back to genSnap, the entry is conservatively closed at
// genSnap+1 — correct for past readers, merely less reusable.
func (s *Server) Put(key string, data []byte, iv interval.Interval, still bool, genSnap interval.Timestamp, tags []invalidation.TagID) {
	if iv.Empty() && !still {
		return
	}
	sh := s.shardOf(key)
	sh.mu.Lock()
	v := sh.putLocked(s, key, data, iv, still, genSnap, tags)
	sh.mu.Unlock()
	if v != nil && s.cfg.CapacityBytes > 0 && s.used.Load() > s.cfg.CapacityBytes {
		s.enforceBudget(sh, v)
	}
}

// enforceBudget evicts LRU versions until the node is back under its
// global byte budget, starting with home (the shard that just grew) and
// rotating through the others — budget-aware local eviction, never a
// per-shard quota. except (the version just inserted) is never evicted
// by its own Put. Runs with no locks held on entry; takes one shard lock
// at a time.
func (s *Server) enforceBudget(home *shard, except *version) {
	capBytes := s.cfg.CapacityBytes
	n := len(s.shards)
	for s.used.Load() > capBytes {
		evicted := false
		for k := 0; k < n && s.used.Load() > capBytes; k++ {
			sh := &s.shards[(home.idx+k)&int(s.shardMask)]
			sh.mu.Lock()
			for s.used.Load() > capBytes {
				v := sh.lru.prev
				if v == &sh.lru || v == except {
					break // the ring is empty, or its tail is the version just inserted
				}
				sh.evictLocked(s, v, true)
				evicted = true
			}
			sh.mu.Unlock()
		}
		if !evicted {
			return // nothing evictable remains (only the fresh version)
		}
	}
}

// eachShard runs f on every shard in turn, under that shard's lock and no
// other shard's: the one walk the stream (a message, a gap) and the
// staleness sweep share.
func (s *Server) eachShard(f func(sh *shard)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		f(sh)
		sh.mu.Unlock()
	}
}

// ApplyInvalidation processes one invalidation-stream message. Messages
// must be applied in timestamp order; stale or duplicate messages are
// ignored. For every affected still-valid version, the validity interval is
// truncated at the message's timestamp — atomically for all tags of the
// message within each shard, and the node's horizon only advances after
// every shard has been visited, so no lookup can see the new horizon before
// its shard reflects the message (paper §4.2).
//
// It takes the caller's word that the node has missed no message below m,
// which code that builds a node's history by hand can give (tests,
// benchmark/probes.go). A stream cannot, and delivers through apply.
func (s *Server) ApplyInvalidation(m invalidation.Message) { s.apply(m, false) } // kept for benchmark/ (ROADMAP 1)

// apply is ApplyInvalidation for a message that may have arrived on the
// node's stream (fromStream: ConsumeStream, the TCP push). The stream carries
// one message per commit timestamp, so one that is not the successor of the
// horizon means the node was not delivered what lies between: it had not
// joined yet (old == 0), the database crashed with messages undelivered, the
// node was removed and added back, or something between the two lost them.
// Whichever it was, the node crosses the gap first and only then applies m.
// The join needs no other step, and none from an operator or the database.
func (s *Server) apply(m invalidation.Message, fromStream bool) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	old := interval.Timestamp(s.lastInval.Load())
	if m.TS <= old {
		return
	}
	if fromStream && m.TS != old+1 {
		s.crossGapLocked(old, m.TS-1, m.WallTime)
	}
	s.invalidations.Add(1)

	// The message enters the history BEFORE the shard visits, and every
	// shard is visited — which shards hold a matching version is not tracked
	// anywhere. A racing still-valid Put replays the history and registers
	// its version in one shard critical section, so either our visit to that
	// shard serializes behind the Put and finds the version registered, or
	// the Put's critical section came after this append and its replay finds
	// the message. There is no interleaving where both miss.
	s.hist.add(m)
	s.eachShard(func(sh *shard) { sh.applyLocked(s, m) })

	s.lastInval.Store(uint64(m.TS))

	// Periodic eager staleness sweep (§4.1).
	s.msgCount++
	if s.cfg.MaxStaleness > 0 && s.msgCount%64 == 0 {
		s.SweepStale()
	}
}

// SweepStale runs the eager staleness sweep immediately: it drops versions
// invalidated longer than MaxStaleness ago, shard by shard.
func (s *Server) SweepStale() {
	cutoff := s.cfg.Clock.Now().Add(-s.cfg.MaxStaleness)
	s.eachShard(func(sh *shard) { sh.sweepStaleLocked(s, cutoff) })
}

// crossGapLocked moves the node's horizon from old to ts (old < ts) across
// a stretch of the stream it will never see. The cached data itself is fine —
// every entry was computed from commits that were durable before they were
// visible — but a message in the gap may have named a still-valid entry, and
// the next one to arrive would otherwise advance the horizon and extend it.
// So every tag-registered still-valid version is closed at old+1, exactly the
// effective validity (effHi) it already served — no lookup result changes —
// and the history floor rises to ts, so a still-valid insert generated at an
// older snapshot is closed at genSnap+1 (Put's floor path) rather than served
// through a horizon the node cannot vouch for. Tagless still-valid entries
// (pure functions of their arguments) have no database dependencies and
// survive open. Bounded versions keep serving reads at pinned past snapshots
// throughout: the node loses freshness, never the cache. Caller holds
// streamMu.
func (s *Server) crossGapLocked(old, ts interval.Timestamp, wall time.Time) {
	// Floor before the shard sweep, sweep before the horizon store: a Put
	// racing this call either replays against the raised floor (closed
	// conservatively at its genSnap) or lands in a shard before the sweep
	// visits it (closed at old+1). Either way nothing stays open across the
	// gap before the horizon rises.
	s.hist.raiseFloor(ts)
	closed := 0
	s.eachShard(func(sh *shard) { closed += sh.closeStillLocked(s, old, wall) })
	s.lastInval.Store(uint64(ts))
	// A node that had a horizon was on the stream, and the stream lost
	// something: the one event here an operator needs to hear about. A
	// fresh node's first message is how it joins, and says nothing.
	if old != 0 {
		log.Printf("cacheserver: invalidation stream gap: at %d, next message %d; closed %d still-valid version(s) at %d, history floor raised to %d",
			old, ts+1, closed, old+1, ts)
	}
}

// LastInvalidation returns the timestamp of the newest stream message
// processed.
func (s *Server) LastInvalidation() interval.Timestamp {
	return interval.Timestamp(s.lastInval.Load())
}

// Stats returns a snapshot of counters, aggregated across shards. It reads
// only atomics — a monitoring poll never contends with the data path.
func (s *Server) Stats() Stats {
	var st Stats
	for i := range s.shards {
		c := &s.shards[i].stats
		st.Lookups += c.lookups.Load()
		st.Hits += c.hits.Load()
		st.MissCompulsory += c.missCompulsory.Load()
		st.MissConsistency += c.missConsistency.Load()
		st.MissStaleness += c.missStaleness.Load()
		st.MissCapacity += c.missCapacity.Load()
		st.Puts += c.puts.Load()
		st.Invalidated += c.invalidated.Load()
		st.FloorClosed += c.floorClosed.Load()
		st.EvictedCapacity += c.evictedCapacity.Load()
		st.EvictedStale += c.evictedStale.Load()
		st.Versions += int(c.versions.Load())
		st.Keys += int(c.keys.Load())
	}
	st.Invalidations = s.invalidations.Load()
	st.BytesUsed = s.used.Load()
	st.Horizon = s.LastInvalidation()
	return st
}

// ResetStats zeroes the counters (memory usage and residency gauges are
// recomputed, not reset). Like Stats, it touches no data-path lock.
func (s *Server) ResetStats() {
	for i := range s.shards {
		s.shards[i].stats.reset()
	}
	s.invalidations.Store(0)
}

// ConsumeStream applies messages from sub until it closes. Run it in a
// goroutine per cache node.
func (s *Server) ConsumeStream(sub *invalidation.Subscription) {
	for m := range sub.C {
		s.apply(m, true)
	}
}

// ---------------------------------------------------------------------------
// Shared invalidation history.
// ---------------------------------------------------------------------------

// histIndex is the node-global retained window of invalidation-stream
// messages: a ring of the last maxLen, and each tag's newest retained
// timestamp, so a still-valid Put's retroactive replay first asks whether
// anything after its genSnap can match at all — one or two map probes a tag
// — and scans the ring only when something does. It is read-mostly: every
// stream message appends once (writer), and only still-valid Puts read it.
// Shards never hold hist.mu while another lock is being acquired; Puts
// acquire it under their shard lock (lock order: shard.mu → hist.mu).
//
// A retained message is bytes, not objects: a pointer-free histEntry in the
// ring and its tags in one arena, neither of which the collector scans.
type histIndex struct {
	mu     sync.RWMutex
	maxLen int
	// ring holds the retained messages oldest first from head: it grows by
	// append until it holds maxLen, and each later message overwrites the
	// oldest.
	ring []histEntry
	head int
	// tags is the arena: the retained messages' tags in stream order, a
	// power of two long and addressed by absolute offset (offset o is
	// tags[o&(len-1)]). They run from start to end; a message's run from its
	// off to the next message's, or to end for the newest.
	tags       []invalidation.TagID
	start, end uint64
	// floor is the newest timestamp dropped from the ring (or the far side of
	// the last gap the node crossed): inserts generated at snapshots older
	// than it cannot be checked and are closed conservatively.
	floor interval.Timestamp

	// The newest retained timestamp that touched each tag, filed the way
	// meets reads them: last under the tag's own ID, table under its table's
	// wildcard ID. A tag leaves with the last retained message that carries it.
	last  map[invalidation.TagID]interval.Timestamp
	table map[invalidation.TagID]interval.Timestamp
}

// histEntry is one retained message: its timestamp, its wall time in Unix
// nanoseconds (noWall for none) and the arena offset of its first tag.
type histEntry struct {
	ts   interval.Timestamp
	wall int64
	off  uint64
}

// noWall is the wall of a message that carried no wall time.
const noWall = math.MinInt64

// wallTime returns the wall time the message carried.
func (e *histEntry) wallTime() time.Time {
	if e.wall == noWall {
		return time.Time{}
	}
	return time.Unix(0, e.wall)
}

// minArena is the fewest tags the arena shrinks to.
const minArena = 64

func (h *histIndex) init(maxLen int) {
	h.maxLen = maxLen
	h.last = make(map[invalidation.TagID]interval.Timestamp)
	h.table = make(map[invalidation.TagID]interval.Timestamp)
}

// at returns the i-th oldest retained message. Caller holds h.mu.
func (h *histIndex) at(i int) *histEntry {
	return &h.ring[(h.head+i)%len(h.ring)]
}

// span returns the arena's tags at offsets lo..hi-1 as at most two
// contiguous runs. Caller holds h.mu.
func (h *histIndex) span(lo, hi uint64) (a, b []invalidation.TagID) {
	if lo == hi {
		return nil, nil
	}
	n := uint64(len(h.tags))
	i := lo & (n - 1)
	j := i + hi - lo
	if j > n {
		return h.tags[i:], h.tags[:j-n]
	}
	return h.tags[i:j], nil
}

// write copies src into the arena from offset off.
func (h *histIndex) write(off uint64, src []invalidation.TagID) {
	a, b := h.span(off, off+uint64(len(src)))
	copy(b, src[copy(a, src):])
}

// resize moves the retained tags to an arena of n tags, a power of two.
func (h *histIndex) resize(n int) {
	a, b := h.span(h.start, h.end)
	h.tags = make([]invalidation.TagID, n)
	h.write(h.start, a)
	h.write(h.start+uint64(len(a)), b)
}

// add retains m, dropping the oldest message once the ring is full. The
// arena doubles to fit m's tags, and halves once what it retains falls to a
// quarter of it, as the bus's ring does.
func (h *histIndex) add(m invalidation.Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	full := len(h.ring) == h.maxLen
	if full {
		old := h.at(0)
		h.floor = max(h.floor, old.ts) // a gap may have raised it past old
		h.start = h.end
		if h.maxLen > 1 {
			h.start = h.at(1).off
		}
		a, b := h.span(old.off, h.start)
		h.forget(old.ts, a)
		h.forget(old.ts, b)
	}
	if n, live := len(h.tags), h.end-h.start+uint64(len(m.Tags)); live > uint64(n) {
		h.resize(max(ceilPow2(int(live)), minArena))
	} else if n > minArena && live <= uint64(n/4) {
		h.resize(n / 2)
	}
	e := histEntry{ts: m.TS, wall: noWall, off: h.end}
	if !m.WallTime.IsZero() {
		e.wall = m.WallTime.UnixNano()
	}
	h.write(h.end, m.Tags)
	h.end += uint64(len(m.Tags))
	for _, t := range m.Tags {
		h.last[t] = m.TS
		h.table[invalidation.WildOf(t)] = m.TS
	}
	if full {
		h.ring[h.head] = e
		h.head = (h.head + 1) % h.maxLen
	} else {
		h.ring = append(h.ring, e)
	}
}

// forget drops the tags of the message at ts that it was the newest retained
// message to carry.
func (h *histIndex) forget(ts interval.Timestamp, tags []invalidation.TagID) {
	for _, t := range tags {
		if h.last[t] == ts {
			delete(h.last, t)
		}
		if w := invalidation.WildOf(t); h.table[w] == ts {
			delete(h.table, w)
		}
	}
}

// firstMatch returns the timestamp (and wall time) of the earliest
// retained message after genSnap whose tags affect an entry carrying tags
// (dual granularity: see meets). ts == Infinity means no match. belowFloor
// reports that the history no longer reaches back to genSnap, so no proof
// is possible.
func (h *histIndex) firstMatch(tags []invalidation.TagID, genSnap interval.Timestamp) (ts interval.Timestamp, wall time.Time, belowFloor bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if genSnap < h.floor {
		return 0, time.Time{}, true
	}
	var newest interval.Timestamp
	for _, vt := range tags {
		a, b := meets(h.last, h.table, vt)
		newest = max(newest, a, b)
	}
	if newest <= genSnap {
		return interval.Infinity, time.Time{}, false
	}
	// The message at newest matches, so the scan ends there at the latest.
	// It reads the arena from the first message after genSnap, in at most
	// two contiguous runs; the first tag that meets the entry's is the first
	// match's, whose message is the last to start at or before it.
	n := len(h.ring)
	i := sort.Search(n, func(i int) bool { return h.at(i).ts > genSnap })
	from := h.at(i).off
	a, b := h.span(from, h.end)
	k := firstAffecting(a, tags)
	if k < 0 {
		if k = firstAffecting(b, tags); k >= 0 {
			k += len(a)
		}
	}
	if k < 0 {
		panic("cacheserver: history tag index names a message the ring does not hold")
	}
	o := from + uint64(k)
	e := h.at(i + sort.Search(n-i, func(j int) bool { return h.at(i+j).off > o }) - 1)
	return e.ts, e.wallTime(), false
}

// firstAffecting returns the index of the first of msgTags that affects an
// entry carrying tags, or -1.
func firstAffecting(msgTags, tags []invalidation.TagID) int {
	for k, mt := range msgTags {
		for _, vt := range tags {
			if invalidation.Affects(mt, vt) {
				return k
			}
		}
	}
	return -1
}

// raiseFloor lifts the history floor to ts (crossGapLocked).
func (h *histIndex) raiseFloor(ts interval.Timestamp) {
	h.mu.Lock()
	if ts > h.floor {
		h.floor = ts
	}
	h.mu.Unlock()
}
