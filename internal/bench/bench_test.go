package bench

import (
	"os"
	"testing"
	"time"

	"txcache/internal/rubis"
)

// quickOpts keeps harness tests fast; shape checks use generous margins.
func quickOpts() Opts {
	return Opts{
		Clients: 8,
		Warm:    300 * time.Millisecond,
		Measure: 700 * time.Millisecond,
		Scale:   rubis.TestScale,
		Seed:    1,
		Out:     os.Stderr,
	}
}

func TestBuildAndRunSite(t *testing.T) {
	site, err := BuildSite(SiteConfig{Mode: ModeTxCache, Scale: rubis.TestScale, CacheBytes: 4 << 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	r := site.Run(4, 200*time.Millisecond, 400*time.Millisecond, 5)
	if r.Throughput <= 0 {
		t.Fatalf("no throughput: %+v", r)
	}
	if r.Emu.Errors > 0 {
		t.Fatalf("emulator errors: %+v", r.Emu)
	}
	if r.HitRate == 0 {
		t.Fatal("cache never hit")
	}
}

// TestCacheBeatsBaseline is the headline shape of Figure 5: TxCache with a
// big cache must outperform the no-cache baseline.
func TestCacheBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	o := quickOpts()

	base, err := BuildSite(SiteConfig{Mode: ModeBaseline, Scale: o.Scale, Seed: o.Seed})
	if err != nil {
		t.Fatal(err)
	}
	baseRes := base.Run(o.Clients, o.Warm, o.Measure, o.Seed)
	base.Close()

	cached, err := BuildSite(SiteConfig{Mode: ModeTxCache, Scale: o.Scale, CacheBytes: 16 << 20, Seed: o.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cachedRes := cached.Run(o.Clients, o.Warm, o.Measure, o.Seed)
	cached.Close()

	t.Logf("baseline %.0f req/s, txcache %.0f req/s (%.2fx), hit rate %.1f%%",
		baseRes.Throughput, cachedRes.Throughput,
		cachedRes.Throughput/baseRes.Throughput, 100*cachedRes.HitRate)
	if cachedRes.Throughput < baseRes.Throughput {
		t.Fatalf("TxCache (%.0f req/s) slower than baseline (%.0f req/s)",
			cachedRes.Throughput, baseRes.Throughput)
	}
}

func TestFigure8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	o := quickOpts()
	o.Warm, o.Measure = 200*time.Millisecond, 400*time.Millisecond
	fig, err := Figure8(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("want 4 configs, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		r := s.Points[0].MissPct
		sum := r.Compulsory + r.StaleCap + r.Consistency
		if sum > 0 && (sum < 99 || sum > 101) {
			t.Fatalf("%s: breakdown sums to %.1f%%", s.Label, sum)
		}
	}
}
