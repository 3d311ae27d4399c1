package cacheserver

import "sync"

// Miniature of the real internal/cacheserver hierarchy:
// streamMu → shard.mu → hist.mu, hist.mu innermost.
type shard struct {
	mu   sync.Mutex
	data map[string]string
}

type histIndex struct {
	mu    sync.Mutex
	floor int64
}

func (h *histIndex) add(ts int64) {
	h.mu.Lock()
	h.floor = ts
	h.mu.Unlock()
}

func (h *histIndex) firstMatch(ts int64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.floor
}

func (h *histIndex) raiseFloor(ts int64) {
	h.mu.Lock()
	if ts > h.floor {
		h.floor = ts
	}
	h.mu.Unlock()
}

type Server struct {
	streamMu sync.Mutex
	shards   []*shard
	hist     *histIndex
}

func (s *Server) eachShard(f func(sh *shard)) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		f(sh)
		sh.mu.Unlock()
	}
}

// Clean: the ApplyInvalidation shape — the hist helper and the modelled
// shard walk both run under streamMu, in the documented order.
func (s *Server) apply(ts int64) {
	s.streamMu.Lock()
	s.hist.add(ts)
	s.eachShard(func(sh *shard) { delete(sh.data, "k") })
	s.streamMu.Unlock()
}

// The walk takes shard locks inside the helper: running it while holding
// hist.mu inverts the order even though no Lock call is in sight.
func (s *Server) walkUnderHist() {
	s.hist.mu.Lock()
	s.eachShard(func(sh *shard) {}) // want "violates the documented lock order"
	s.hist.mu.Unlock()
}

// hist.mu is innermost: acquiring a shard while holding it inverts the
// documented order.
func (s *Server) inverted(sh *shard) {
	s.hist.mu.Lock()
	sh.mu.Lock() // want "violates the documented lock order"
	sh.mu.Unlock()
	s.hist.mu.Unlock()
}

func (s *Server) shardThenStream(sh *shard) {
	sh.mu.Lock()
	s.streamMu.Lock() // want "violates the documented lock order"
	s.streamMu.Unlock()
	sh.mu.Unlock()
}

// Clean: shard → hist is part of the documented order, including through
// the modelled histIndex helpers.
func (s *Server) helperUnderShard(sh *shard, ts int64) int64 {
	sh.mu.Lock()
	s.hist.raiseFloor(ts)
	n := s.hist.firstMatch(ts)
	sh.mu.Unlock()
	return n
}
