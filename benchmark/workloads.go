package main

// The mixes are weight tables over the serve URL surface, in 1/1000ths. The
// browsing and bidding tables are rubis.BiddingMix with its 26 interactions
// folded onto the routes serve exposes; write_heavy has the shape of
// rubis.WriteHeavyMix. Every mix gives 2% to /check, the consistency oracle,
// so a wrong answer shows up inside the load itself.

var browseMix = []mixEntry{
	{"home", 96}, {"categories", 150}, {"regions", 35},
	{"search_category", 225}, {"search_region", 71},
	{"item", 222}, {"user", 47}, {"bids", 35}, {"auth", 85}, {"about", 12},
	{"check", 20},
	// One request in 500 registers a user, so the database keeps committing.
	// With no commit at all the newest snapshot's wall-clock time is never
	// renewed: five seconds after the last commit every transaction pins
	// the same snapshot again, and after the staleness bound no pin is
	// fresh, every lookup is skipped, and the cache is dead. A site with no
	// writes at all is not the case the paper or this benchmark is about,
	// and a workload that changes nature 10 s after boot cannot be timed.
	{"register_user", 2},
}

var biddingMix = []mixEntry{
	{"home", 83}, {"categories", 127}, {"regions", 30},
	{"search_category", 190}, {"search_region", 60},
	{"item", 188}, {"user", 40}, {"bids", 30}, {"auth", 72}, {"about", 10},
	{"check", 20},
	// 15% read/write, as in the paper's bidding mix.
	{"bid", 100}, {"buy_now", 8}, {"comment", 10}, {"register_item", 20}, {"register_user", 12},
}

var writeHeavyMix = []mixEntry{
	{"home", 30}, {"categories", 60}, {"search_category", 100},
	{"item", 120}, {"user", 40}, {"bids", 30},
	{"check", 20},
	// 60% read/write.
	{"bid", 280}, {"buy_now", 60}, {"comment", 120}, {"register_item", 100}, {"register_user", 40},
}

// workload is one named traffic mix with the cache size it runs against and
// the conditions that make it the workload it claims to be.
type workload struct {
	name       string
	mix        []mixEntry
	cacheBytes int64
	// openRate is the open phase's arrival rate in requests per second,
	// frozen: 14-21% of the closed-loop throughput measured when the
	// benchmark was defined, so that a host running at half speed for a few
	// minutes still leaves the open loop far from saturation.
	openRate float64
	// Preconditions, checked over the closed phase: the cache hit ratio and
	// the commits per answered request. A run that misses one did not
	// measure this workload and is refused.
	minHitRatio, maxHitRatio     float64
	minWriteShare, maxWriteShare float64
}

const (
	hotCacheBytes  = 16 << 20  // the whole working set fits
	coldCacheBytes = 256 << 10 // a small fraction of it fits
)

var workloads = []workload{
	{name: "browse_hot", mix: browseMix, cacheBytes: hotCacheBytes, openRate: 1600,
		minHitRatio: 0.8, maxHitRatio: 1, minWriteShare: 0.0005, maxWriteShare: 0.005},
	{name: "browse_cold", mix: browseMix, cacheBytes: coldCacheBytes, openRate: 800,
		minHitRatio: 0, maxHitRatio: 0.5, minWriteShare: 0.0005, maxWriteShare: 0.005},
	{name: "bidding", mix: biddingMix, cacheBytes: hotCacheBytes, openRate: 1200,
		minHitRatio: 0, maxHitRatio: 1, minWriteShare: 0.10, maxWriteShare: 0.16},
	{name: "write_heavy", mix: writeHeavyMix, cacheBytes: hotCacheBytes, openRate: 800,
		minHitRatio: 0, maxHitRatio: 1, minWriteShare: 0.45, maxWriteShare: 0.61},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
