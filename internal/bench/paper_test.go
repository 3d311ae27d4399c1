package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// The shapes of the paper's §8 this reproduction claims, asserted on the
// committed BENCH_paper.json — a default-scale run, regenerated by
// `txcache-bench -exp all -json BENCH_paper.json`. A regenerated file whose
// shape has drifted fails here instead of landing quietly. They are not
// asserted on a live run: a test-sized one is a 150-item dataset, not the
// paper's regime (TestCacheBeatsBaseline and TestFigure8Smoke are the live
// smokes), and a default-scale one takes six minutes.

const paperFile = "../../BENCH_paper.json"

// The margins the shapes are held to. A point is three seconds of a closed
// loop on a shared two-CPU host: adjacent points of a flat curve differ by
// this much on their own.
const (
	// fig5a/5b: a cache too small to help may serve this far below the
	// baseline of the same figure and still count as not losing to it.
	throughputNoise = 0.10
	// fig5a: the largest cache is worth at least this many baselines (the
	// paper: up to 5.2x; ours has measured 4.0-4.5x).
	bigCacheSpeedup = 2.0
	// fig5a: TxCache at the largest cache is within this factor of
	// no-consistency (the paper: "the difference is small").
	consistencyCostFactor = 0.75
	// fig6a/6b: a hit rate may fall this far (absolute) below the largest
	// one at a smaller cache and still count as non-decreasing.
	hitRateNoise = 0.03
	// fig7: by 10 paper-seconds of staleness the speed-up over the baseline
	// has reached this share of the best one in the sweep.
	stalenessWinShare = 0.80
)

// paperSeries is every series of every figure, and how many points each has.
var paperSeries = map[string]map[string]int{
	"baseline": {"in-memory/modified": 1, "in-memory/stock": 1, "disk-bound/modified": 1},
	"fig5a":    {"baseline": 1, "txcache": len(CacheSizesInMemory), "no-consistency": len(CacheSizesInMemory)},
	"fig5b":    {"baseline": 1, "txcache": len(CacheSizesDiskBound)},
	"fig6a":    {"txcache": len(CacheSizesInMemory)},
	"fig6b":    {"txcache": len(CacheSizesDiskBound)},
	"fig7":     {"baseline": 1, "txcache": len(StalenessPoints)},
	"fig8":     {"in-mem 512K/30s": 1, "in-mem 512K/15s": 1, "in-mem 64K/30s": 1, "disk 9G/30s": 1},
}

// series returns the points of one series, nil if r lacks it. The slice is
// the report's own: a rejection case bends a point through it.
func (r *Report) series(figure, label string) []Point {
	for _, f := range r.Figures {
		if f.Name != figure {
			continue
		}
		for _, s := range f.Series {
			if s.Label == label {
				return s.Points
			}
		}
	}
	return nil
}

// paperShapes returns the first way r falls short of the paper's shapes.
func paperShapes(r *Report) error {
	// Every series is there, whole, and served something.
	for fig, want := range paperSeries {
		for label, n := range want {
			pts := r.series(fig, label)
			if len(pts) != n {
				return fmt.Errorf("%s: series %q has %d points, want %d", fig, label, len(pts), n)
			}
			for _, p := range pts {
				if p.ReqPerS <= 0 {
					return fmt.Errorf("%s: series %q: no throughput at x=%g", fig, label, p.X)
				}
			}
		}
	}

	// Figure 5: the cache never loses to the database alone, and (a) what
	// consistency costs at the largest cache is small.
	for _, fig := range []string{"fig5a", "fig5b"} {
		base := r.series(fig, "baseline")[0].ReqPerS
		for _, p := range r.series(fig, "txcache") {
			if p.ReqPerS < (1-throughputNoise)*base {
				return fmt.Errorf("%s: txcache at %s serves %.0f req/s, below the baseline's %.0f", fig, fmtBytes(int64(p.X)), p.ReqPerS, base)
			}
		}
	}
	tx, nocon := r.series("fig5a", "txcache"), r.series("fig5a", "no-consistency")
	last := len(tx) - 1
	if base := r.series("fig5a", "baseline")[0].ReqPerS; tx[last].ReqPerS < bigCacheSpeedup*base {
		return fmt.Errorf("fig5a: at %s txcache serves %.0f req/s, under %.1fx the baseline's %.0f",
			fmtBytes(int64(tx[last].X)), tx[last].ReqPerS, bigCacheSpeedup, base)
	}
	if tx[last].ReqPerS < consistencyCostFactor*nocon[last].ReqPerS {
		return fmt.Errorf("fig5a: at %s txcache serves %.0f req/s, under %.2f of no-consistency's %.0f",
			fmtBytes(int64(tx[last].X)), tx[last].ReqPerS, consistencyCostFactor, nocon[last].ReqPerS)
	}

	// Figure 6: the hit rate does not fall as the cache grows.
	for _, fig := range []string{"fig6a", "fig6b"} {
		best := 0.0
		for _, p := range r.series(fig, "txcache") {
			if p.HitRate < best-hitRateNoise {
				return fmt.Errorf("%s: hit rate %.1f%% at %s, after %.1f%% at a smaller cache", fig, 100*p.HitRate, fmtBytes(int64(p.X)), 100*best)
			}
			best = max(best, p.HitRate)
		}
	}

	// Figure 7: most of the win by ten seconds of staleness.
	base := r.series("fig7", "baseline")[0].ReqPerS
	var by10, best float64
	for _, p := range r.series("fig7", "txcache") {
		best = max(best, p.ReqPerS/base)
		if p.X <= 10 {
			by10 = max(by10, p.ReqPerS/base)
		}
	}
	if by10 < stalenessWinShare*best {
		return fmt.Errorf("fig7: %.2fx the baseline by 10 s of staleness, under %.2f of the sweep's best %.2fx", by10, stalenessWinShare, best)
	}

	// Figure 8: the paper's three classes are all the misses there are, and
	// consistency misses are the rarest kind.
	for label := range paperSeries["fig8"] {
		m := r.series("fig8", label)[0].MissPct
		if m == nil {
			return fmt.Errorf("fig8: %s has no miss breakdown", label)
		}
		if sum := m.Compulsory + m.StaleCap + m.Consistency; sum < 99 || sum > 101 {
			return fmt.Errorf("fig8: %s: miss classes sum to %.1f%%", label, sum)
		}
		if m.Consistency > m.Compulsory || m.Consistency > m.StaleCap {
			return fmt.Errorf("fig8: %s: consistency misses (%.1f%%) are not the rarest kind (compulsory %.1f%%, stale/capacity %.1f%%)",
				label, m.Consistency, m.Compulsory, m.StaleCap)
		}
	}
	return nil
}

// figure finds a figure of the committed file for a case that bends its
// structure; a name the file lacks is the test's own mistake.
func figure(t *testing.T, r *Report, name string) *Figure {
	t.Helper()
	for i := range r.Figures {
		if r.Figures[i].Name == name {
			return &r.Figures[i]
		}
	}
	t.Fatalf("%s has no %s", paperFile, name)
	return nil
}

func TestPaperShapes(t *testing.T) {
	blob, err := os.ReadFile(paperFile)
	if err != nil {
		t.Fatal(err)
	}
	load := func(t *testing.T) *Report {
		t.Helper()
		var r Report
		if err := json.Unmarshal(blob, &r); err != nil {
			t.Fatalf("%s: %v", paperFile, err)
		}
		return &r
	}
	t.Run("ValidFlow", func(t *testing.T) {
		r := load(t)
		if r.Options.Scale != "paper" || r.Host.GitRev == "" || r.Host.CPUModel == "" || r.Host.GOMAXPROCS == 0 || r.Host.GoVersion == "" {
			t.Errorf("not a default-scale run with a host fingerprint: options %+v, host %+v", r.Options, r.Host)
		}
		if err := paperShapes(r); err != nil {
			t.Errorf("the committed figures have lost a shape of the paper's: %v", err)
		}
	})

	// Each case bends the committed file one way a regenerated one could
	// have drifted, and the check must say so.
	t.Run("RejectionFlow", func(t *testing.T) {
		for _, c := range []struct {
			name   string
			bend   func(t *testing.T, r *Report)
			reject string // what the error must name
		}{
			{"a figure was not run", func(t *testing.T, r *Report) {
				r.Figures = r.Figures[:len(r.Figures)-1]
			}, "fig8"},
			{"a series is missing", func(t *testing.T, r *Report) {
				f := figure(t, r, "fig5a")
				f.Series = f.Series[:len(f.Series)-1]
			}, `fig5a: series "no-consistency" has 0 points`},
			{"a sweep stopped early", func(t *testing.T, r *Report) {
				f := figure(t, r, "fig7")
				s := &f.Series[len(f.Series)-1]
				s.Points = s.Points[:3]
			}, `fig7: series "txcache" has 3 points`},
			{"a point served nothing", func(t *testing.T, r *Report) {
				r.series("fig6b", "txcache")[1].ReqPerS = 0
			}, "fig6b"},
			{"the cache loses to the database", func(t *testing.T, r *Report) {
				r.series("fig5a", "txcache")[0].ReqPerS = 0.8 * r.series("fig5a", "baseline")[0].ReqPerS
			}, "below the baseline"},
			{"a big cache buys little", func(t *testing.T, r *Report) {
				tx, nocon := r.series("fig5a", "txcache"), r.series("fig5a", "no-consistency")
				tx[len(tx)-1].ReqPerS /= 3
				nocon[len(nocon)-1].ReqPerS /= 3
			}, "under 2.0x the baseline"},
			{"consistency got expensive", func(t *testing.T, r *Report) {
				// Raise no-consistency rather than lower txcache, which would
				// trip the big-cache speed-up check first on any file whose
				// speed-up is under twice bigCacheSpeedup.
				tx, nocon := r.series("fig5a", "txcache"), r.series("fig5a", "no-consistency")
				nocon[len(nocon)-1].ReqPerS = 2 * tx[len(tx)-1].ReqPerS
			}, "no-consistency"},
			{"the hit rate falls with a bigger cache", func(t *testing.T, r *Report) {
				p := r.series("fig6a", "txcache")
				p[len(p)-1].HitRate = p[0].HitRate / 2
			}, "fig6a: hit rate"},
			{"the staleness win comes late", func(t *testing.T, r *Report) {
				p := r.series("fig7", "txcache")
				p[len(p)-1].ReqPerS *= 3
			}, "fig7"},
			{"a fig8 row does not sum to 100%", func(t *testing.T, r *Report) {
				r.series("fig8", "in-mem 64K/30s")[0].MissPct.StaleCap += 5
			}, "sum to"},
			{"consistency misses are not the rarest", func(t *testing.T, r *Report) {
				m := r.series("fig8", "in-mem 512K/30s")[0].MissPct
				m.Compulsory, m.Consistency = m.Consistency, m.Compulsory
			}, "not the rarest"},
		} {
			t.Run(c.name, func(t *testing.T) {
				r := load(t)
				c.bend(t, r)
				err := paperShapes(r)
				if err == nil || !strings.Contains(err.Error(), c.reject) {
					t.Fatalf("paperShapes = %v, want an error naming %q", err, c.reject)
				}
			})
		}
	})
}
