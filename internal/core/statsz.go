package core

// StatsSnapshot is a plain-value copy of ClientStats, shaped for JSON
// reporting endpoints (txcache-serve's /statsz) and log lines. Counters are
// read individually without a lock; the snapshot is consistent enough for
// monitoring, like every atomic-counter export.
type StatsSnapshot struct {
	ROBegun   uint64 `json:"roBegun"`
	RWBegun   uint64 `json:"rwBegun"`
	Committed uint64 `json:"committed"`
	Aborted   uint64 `json:"aborted"`

	CacheHits       uint64  `json:"cacheHits"`
	MissCompulsory  uint64  `json:"missCompulsory"`
	MissConsistency uint64  `json:"missConsistency"`
	MissStaleness   uint64  `json:"missStaleness"`
	MissCapacity    uint64  `json:"missCapacity"`
	MissNoPins      uint64  `json:"missNoPins"`
	MissDefensive   uint64  `json:"missDefensive"`
	HitRate         float64 `json:"hitRate"`

	DBQueries  uint64 `json:"dbQueries"`
	CachePuts  uint64 `json:"cachePuts"`
	PinsPlaced uint64 `json:"pinsPlaced"`

	// EncodeErrors are results computed but not installed, DecodeErrors hits
	// recomputed because their bytes did not decode (see MakeCacheable).
	EncodeErrors uint64 `json:"encodeErrors"`
	DecodeErrors uint64 `json:"decodeErrors"`

	LeaseFetches  uint64 `json:"leaseFetches"`
	LeasedBegins  uint64 `json:"leasedBegins"`
	PinFetchEmpty uint64 `json:"pinFetchEmpty"`
	SweptRetries  uint64 `json:"sweptRetries"`

	NodesAdded   uint64 `json:"nodesAdded"`
	NodesRemoved uint64 `json:"nodesRemoved"`
}

// Snapshot copies the counters into a plain value.
func (s *ClientStats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		ROBegun:   s.ROBegun.Load(),
		RWBegun:   s.RWBegun.Load(),
		Committed: s.Committed.Load(),
		Aborted:   s.Aborted.Load(),

		CacheHits:       s.CacheHits.Load(),
		MissCompulsory:  s.MissCompulsory.Load(),
		MissConsistency: s.MissConsistency.Load(),
		MissStaleness:   s.MissStaleness.Load(),
		MissCapacity:    s.MissCapacity.Load(),
		MissNoPins:      s.MissNoPins.Load(),
		MissDefensive:   s.MissDefensive.Load(),
		HitRate:         s.HitRate(),

		DBQueries:  s.DBQueries.Load(),
		CachePuts:  s.CachePuts.Load(),
		PinsPlaced: s.PinsPlaced.Load(),

		EncodeErrors: s.EncodeErrors.Load(),
		DecodeErrors: s.DecodeErrors.Load(),

		LeaseFetches:  s.LeaseFetches.Load(),
		LeasedBegins:  s.LeasedBegins.Load(),
		PinFetchEmpty: s.PinFetchEmpty.Load(),
		SweptRetries:  s.SweptRetries.Load(),

		NodesAdded:   s.NodesAdded.Load(),
		NodesRemoved: s.NodesRemoved.Load(),
	}
}
