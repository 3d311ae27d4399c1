package rubis

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"txcache/internal/core"
	"txcache/internal/db"
)

// Mix is a workload's per-interaction weight table, in 1/1000ths; weights
// must sum to 1000.
type Mix = [numInteractions]int

// BiddingMix is the standard RUBiS "bidding" workload: 15% of interactions
// are read/write (paper §8). Weights are per-interaction probabilities in
// 1/1000ths and sum to 1000; read/write entries total 150.
var BiddingMix = Mix{
	IHome:                     40,
	IRegisterForm:             8,
	IRegisterUser:             12, // RW
	IBrowse:                   25,
	IBrowseCategories:         80,
	ISearchItemsInCategory:    210,
	IBrowseRegions:            30,
	IBrowseCategoriesInRegion: 30,
	ISearchItemsInRegion:      60,
	IViewItem:                 140,
	IViewUserInfo:             40,
	IViewBidHistory:           30,
	IBuyNowAuth:               12,
	IBuyNow:                   10,
	IStoreBuyNow:              8, // RW
	IPutBidAuth:               50,
	IPutBid:                   30,
	IStoreBid:                 100, // RW
	IPutCommentAuth:           10,
	IPutComment:               8,
	IStoreComment:             10, // RW
	ISell:                     10,
	ISelectCategoryToSell:     8,
	ISellItemForm:             9,
	IRegisterItem:             20, // RW
	IAboutMe:                  10,
}

func init() {
	checkMix("BiddingMix", &BiddingMix, 150)
}

func checkMix(name string, mix *Mix, wantRW int) {
	sum, rw := 0, 0
	for i, w := range mix {
		sum += w
		if IsReadWrite(i) {
			rw += w
		}
	}
	if sum != 1000 || rw != wantRW {
		panic(fmt.Sprintf("rubis: %s sums to %d (rw %d), want 1000 (rw %d)", name, sum, rw, wantRW))
	}
}

// EmulatorConfig drives a closed-loop client population.
type EmulatorConfig struct {
	// Ctx, when set, is the parent context every session's transactions run
	// under: cancelling it is an external "shed this load" signal. It is
	// deliberately NOT cancelled when Duration elapses — in-flight
	// interactions finish cleanly so a measurement window never ends on a
	// burst of cancellation errors. Defaults to context.Background().
	Ctx context.Context
	// Clients is the number of concurrent emulated sessions.
	Clients int
	// Staleness is the BEGIN-RO staleness limit.
	Staleness time.Duration
	// ThinkTime, when positive, is the mean of the exponentially
	// distributed pause between interactions (the RUBiS default is 7s;
	// benchmarks scale it down or use 0 for closed-loop peak throughput).
	ThinkTime time.Duration
	// Duration bounds the run.
	Duration time.Duration
	// Seed makes runs repeatable.
	Seed int64
}

// EmulatorResult summarizes a run.
type EmulatorResult struct {
	Requests  uint64
	Errors    uint64
	Conflicts uint64 // serialization retries exhausted
	Elapsed   time.Duration
	ByKind    [numInteractions]uint64
	ReadOnly  uint64
	ReadWrite uint64
}

// Throughput returns requests per second.
func (r EmulatorResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// session is one emulated browser.
type session struct {
	app  *App
	ctx  context.Context
	rng  *rand.Rand
	user int64
	now  func() int64
}

// RunEmulator drives cfg.Clients concurrent sessions against the
// application for cfg.Duration and reports aggregate results.
func RunEmulator(app *App, cfg EmulatorConfig) EmulatorResult {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		requests, errors_, conflicts atomic.Uint64
		readOnly, readWrite          atomic.Uint64
		byKind                       [numInteractions]atomic.Uint64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	//lint:allow walltime the emulator measures real elapsed wall time for throughput; determinism lives in the seeded mix, not the clock
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			s := &session{
				app:  app,
				ctx:  ctx,
				rng:  rng,
				user: int64(rng.Intn(app.DS.Scale.Users)),
				//lint:allow walltime interaction timestamps are data observed under load, not part of the seeded dataset
				now: func() int64 { return time.Now().Unix() },
			}
			for {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				kind := pick(rng, &BiddingMix)
				err := s.run(kind, cfg.Staleness)
				requests.Add(1)
				byKind[kind].Add(1)
				if IsReadWrite(kind) {
					readWrite.Add(1)
				} else {
					readOnly.Add(1)
				}
				if err != nil {
					if errors.Is(err, db.ErrSerialization) {
						conflicts.Add(1)
					} else if !errors.Is(err, ErrNotFound) {
						errors_.Add(1)
					}
				}
				if cfg.ThinkTime > 0 {
					d := time.Duration(rng.ExpFloat64() * float64(cfg.ThinkTime))
					select {
					case <-time.After(d):
					case <-stop:
						return
					}
				}
			}
		}(c)
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()

	res := EmulatorResult{
		Requests:  requests.Load(),
		Errors:    errors_.Load(),
		Conflicts: conflicts.Load(),
		//lint:allow walltime real elapsed time is the quantity being reported
		Elapsed:   time.Since(start),
		ReadOnly:  readOnly.Load(),
		ReadWrite: readWrite.Load(),
	}
	for i := range byKind {
		res.ByKind[i] = byKind[i].Load()
	}
	return res
}

// DoInteraction executes one interaction of the mix as its own transaction
// under ctx, for callers (benchmarks) that drive the load loop themselves.
// kind < 0 draws a random interaction from the bidding mix.
func (a *App) DoInteraction(ctx context.Context, rng *rand.Rand, user int64, kind int, staleness time.Duration) error {
	if kind < 0 {
		kind = pick(rng, &BiddingMix)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	//lint:allow walltime interaction timestamps are data observed under load, not part of the seeded dataset
	s := &session{app: a, ctx: ctx, rng: rng, user: user, now: func() int64 { return time.Now().Unix() }}
	return s.run(kind, staleness)
}

func pick(rng *rand.Rand, mix *[numInteractions]int) int {
	n := rng.Intn(1000)
	acc := 0
	for i, w := range mix {
		acc += w
		if n < acc {
			return i
		}
	}
	return IHome
}

// run executes one interaction as one transaction, the way the PHP scripts
// do: read-only pages through the ReadOnly runner with the staleness
// limit, stores through the store interactions (whose ReadWrite runner
// retries serialization conflicts).
func (s *session) run(kind int, staleness time.Duration) error {
	a := s.app
	ds := a.DS
	rng := s.rng

	if IsReadWrite(kind) {
		var err error
		switch kind {
		case IStoreBid:
			item := s.randomActiveItem()
			_, err = a.StoreBid(s.ctx, s.user, item, 1+rng.Float64()*200, s.now())
		case IStoreBuyNow:
			item := s.randomActiveItem()
			_, err = a.StoreBuyNow(s.ctx, s.user, item, 1, s.now())
		case IStoreComment:
			to := int64(rng.Intn(ds.Scale.Users))
			_, err = a.StoreComment(s.ctx, s.user, to, s.randomActiveItem(), int64(rng.Intn(5)), s.now(), "nice auction")
		case IRegisterItem:
			_, _, err = a.RegisterItem(s.ctx, s.user, int64(rng.Intn(ds.Scale.Categories)),
				int64(rng.Intn(ds.Scale.Regions)), fmt.Sprintf("new-item-%d", rng.Int63()), 1+rng.Float64()*50, s.now())
		case IRegisterUser:
			_, _, err = a.RegisterUser(s.ctx, fmt.Sprintf("newuser-%d", rng.Int63()), "pw",
				int64(rng.Intn(ds.Scale.Regions)), s.now())
		}
		if errors.Is(err, ErrNotFound) {
			return nil // auction closed or sold out: a no-op store
		}
		return err
	}

	_, err := a.C.ReadOnly(s.ctx, func(tx *core.Tx) error {
		var err error
		switch kind {
		case IHome, IBrowse, IRegisterForm, ISell:
			_, err = a.Home(tx)
		case IBrowseCategories, ISelectCategoryToSell, ISellItemForm:
			_, err = a.BrowseCategories(tx)
		case ISearchItemsInCategory:
			_, err = a.SearchItemsInCategory(tx, int64(rng.Intn(ds.Scale.Categories)), int64(rng.Intn(3)))
		case IBrowseRegions:
			_, err = a.BrowseRegions(tx)
		case IBrowseCategoriesInRegion:
			_, err = a.BrowseCategories(tx)
		case ISearchItemsInRegion:
			_, err = a.SearchItemsInRegion(tx, int64(rng.Intn(ds.Scale.Regions)), int64(rng.Intn(ds.Scale.Categories)))
		case IViewItem, IBuyNow, IPutBid, IPutComment:
			_, err = a.ViewItem(tx, s.randomItem())
		case IViewUserInfo:
			_, err = a.ViewUserInfo(tx, int64(rng.Intn(ds.Scale.Users)))
		case IViewBidHistory:
			_, err = a.ViewBidHistory(tx, s.randomItem())
		case IBuyNowAuth, IPutBidAuth, IPutCommentAuth:
			_, err = a.PutBidAuth(tx, fmt.Sprintf("user%d", s.user), fmt.Sprintf("password%d", s.user), s.randomItem())
		case IAboutMe:
			_, err = a.AboutMe(tx, s.user)
		default:
			_, err = a.Home(tx)
		}
		if errors.Is(err, ErrNotFound) {
			return nil // a page about a vanished entity still renders
		}
		return err
	}, core.WithStaleness(staleness))
	return err
}

// randomActiveItem picks an item likely in the active table (generated IDs
// interleave active and old; newly registered items are always active).
func (s *session) randomActiveItem() int64 {
	return int64(s.rng.Intn(int(s.app.DS.nextItemID.Load())))
}

func (s *session) randomItem() int64 {
	return int64(s.rng.Intn(int(s.app.DS.nextItemID.Load())))
}
