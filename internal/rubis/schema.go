// Package rubis implements the RUBiS auction-site benchmark (paper §7.1,
// §8): the eBay-like schema, a deterministic data generator, the site's
// interactions as cacheable functions over the TxCache library, and the
// closed-loop client emulator driving the standard "bidding" mix of 85%
// read-only and 15% read/write interactions.
package rubis

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"txcache/internal/db"
	"txcache/internal/sql"
)

// DDL is the auction-site schema. Following the paper's §7.1 port, items
// carry a denormalized region column with an index, replacing RUBiS's
// sequential scan + join for region browsing ("we addressed this by adding
// a new table and index containing each item's category and region IDs").
var DDL = []string{
	`CREATE TABLE categories (id BIGINT PRIMARY KEY, name TEXT NOT NULL)`,
	`CREATE TABLE regions (id BIGINT PRIMARY KEY, name TEXT NOT NULL)`,
	`CREATE TABLE users (
		id BIGINT PRIMARY KEY,
		firstname TEXT, lastname TEXT,
		nickname TEXT NOT NULL,
		password TEXT NOT NULL,
		email TEXT,
		rating BIGINT, balance DOUBLE,
		creation_date BIGINT,
		region BIGINT)`,
	`CREATE UNIQUE INDEX users_nickname ON users (nickname)`,
	`CREATE INDEX users_region ON users (region)`,
	`CREATE TABLE items (
		id BIGINT PRIMARY KEY,
		name TEXT NOT NULL, description TEXT,
		initial_price DOUBLE, quantity BIGINT, reserve_price DOUBLE, buy_now DOUBLE,
		nb_of_bids BIGINT, max_bid DOUBLE,
		start_date BIGINT, end_date BIGINT,
		seller BIGINT, category BIGINT, region BIGINT)`,
	`CREATE INDEX items_seller ON items (seller)`,
	`CREATE INDEX items_category ON items (category)`,
	`CREATE INDEX items_region ON items (region)`,
	`CREATE TABLE old_items (
		id BIGINT PRIMARY KEY,
		name TEXT NOT NULL, description TEXT,
		initial_price DOUBLE, quantity BIGINT, reserve_price DOUBLE, buy_now DOUBLE,
		nb_of_bids BIGINT, max_bid DOUBLE,
		start_date BIGINT, end_date BIGINT,
		seller BIGINT, category BIGINT, region BIGINT)`,
	`CREATE INDEX old_items_seller ON old_items (seller)`,
	`CREATE INDEX old_items_category ON old_items (category)`,
	`CREATE TABLE bids (
		id BIGINT PRIMARY KEY,
		user_id BIGINT, item_id BIGINT,
		qty BIGINT, bid DOUBLE, max_bid DOUBLE, date BIGINT)`,
	`CREATE INDEX bids_item ON bids (item_id)`,
	`CREATE INDEX bids_user ON bids (user_id)`,
	`CREATE TABLE comments (
		id BIGINT PRIMARY KEY,
		from_user_id BIGINT, to_user_id BIGINT, item_id BIGINT,
		rating BIGINT, date BIGINT, comment TEXT)`,
	`CREATE INDEX comments_to_user ON comments (to_user_id)`,
	`CREATE TABLE buy_now (
		id BIGINT PRIMARY KEY,
		buyer_id BIGINT, item_id BIGINT, qty BIGINT, date BIGINT)`,
	`CREATE INDEX buy_now_buyer ON buy_now (buyer_id)`,
}

// Scale sizes the generated dataset. Ratios follow the paper's two
// configurations (§8: 35k active / 50k old / 160k users in-memory;
// 225k / 1M / 1.35M disk-bound), scaled down by a constant factor.
type Scale struct {
	Users       int
	ActiveItems int
	OldItems    int
	Categories  int
	Regions     int
	// BidsPerItem and CommentsPerUser are averages.
	BidsPerItem     int
	CommentsPerUser int
}

// TestScale is a small dataset for unit and integration tests.
var TestScale = Scale{
	Users: 150, ActiveItems: 60, OldItems: 90,
	Categories: 10, Regions: 8, BidsPerItem: 4, CommentsPerUser: 1,
}

// InMemoryScale mirrors the paper's in-memory configuration at 1/50 size.
var InMemoryScale = Scale{
	Users: 3200, ActiveItems: 700, OldItems: 1000,
	Categories: 20, Regions: 62, BidsPerItem: 8, CommentsPerUser: 2,
}

// DiskBoundScale mirrors the paper's disk-bound configuration at 1/250
// size; pair it with a db.PoolConfig that holds a fraction of its pages.
var DiskBoundScale = Scale{
	Users: 5400, ActiveItems: 900, OldItems: 4000,
	Categories: 20, Regions: 62, BidsPerItem: 10, CommentsPerUser: 2,
}

// Dataset records the ID ranges the generator produced, which the emulator
// samples from, and allocators for new rows.
type Dataset struct {
	Scale      Scale
	nextItemID atomic.Int64
	nextBidID  atomic.Int64
	nextUserID atomic.Int64
	nextCmtID  atomic.Int64
	nextBuyID  atomic.Int64
}

// NewItemID allocates an item ID for RegisterItem.
func (d *Dataset) NewItemID() int64 { return d.nextItemID.Add(1) }

// NewBidID allocates a bid ID for StoreBid.
func (d *Dataset) NewBidID() int64 { return d.nextBidID.Add(1) }

// NewUserID allocates a user ID for RegisterUser.
func (d *Dataset) NewUserID() int64 { return d.nextUserID.Add(1) }

// NewCommentID allocates a comment ID for StoreComment.
func (d *Dataset) NewCommentID() int64 { return d.nextCmtID.Add(1) }

// NewBuyNowID allocates a buy-now ID for StoreBuyNow.
func (d *Dataset) NewBuyNowID() int64 { return d.nextBuyID.Add(1) }

// loadEpoch anchors every Load in one process to a single wall-clock
// instant: equal seeds must produce identical datasets, and a per-call
// time.Now() breaks that whenever two loads straddle a second boundary.
//
//lint:allow walltime read exactly once per process so equal seeds still produce identical datasets
var loadEpoch = time.Now().Unix()

// Load creates the schema and populates engine deterministically from seed.
// It returns the dataset description. Loading uses batched read/write
// transactions through the engine directly (the cache plays no role during
// load, matching the paper's restore-from-snapshot methodology).
func Load(engine *db.Engine, sc Scale, seed int64) (*Dataset, error) {
	for _, d := range DDL {
		if err := engine.DDL(d); err != nil {
			return nil, fmt.Errorf("rubis: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	now := loadEpoch

	const batch = 500
	var tx *db.Tx
	var inBatch int
	begin := func() error {
		var err error
		tx, err = engine.BeginTx(nil, false, 0)
		inBatch = 0
		return err
	}
	flush := func() error {
		if tx == nil {
			return nil
		}
		_, err := tx.Commit()
		tx = nil
		return err
	}
	exec := func(src string, args ...sql.Value) error {
		if tx == nil {
			if err := begin(); err != nil {
				return err
			}
		}
		if _, err := tx.Exec(src, args...); err != nil {
			tx.Abort()
			tx = nil
			return err
		}
		inBatch++
		if inBatch >= batch {
			return flush()
		}
		return nil
	}

	for i := 0; i < sc.Categories; i++ {
		if err := exec("INSERT INTO categories (id, name) VALUES (?, ?)", int64(i), fmt.Sprintf("category-%d", i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sc.Regions; i++ {
		if err := exec("INSERT INTO regions (id, name) VALUES (?, ?)", int64(i), fmt.Sprintf("region-%d", i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sc.Users; i++ {
		if err := exec(`INSERT INTO users (id, firstname, lastname, nickname, password, email, rating, balance, creation_date, region)
			VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			int64(i), fmt.Sprintf("First%d", i), fmt.Sprintf("Last%d", i),
			fmt.Sprintf("user%d", i), fmt.Sprintf("password%d", i),
			fmt.Sprintf("user%d@rubis.example", i),
			int64(rng.Intn(10)), 0.0, now-int64(rng.Intn(1_000_000)),
			int64(rng.Intn(sc.Regions))); err != nil {
			return nil, err
		}
	}

	itemID := int64(0)
	bidID := int64(0)
	insertItem := func(table string, old bool) error {
		id := itemID
		itemID++
		seller := int64(rng.Intn(sc.Users))
		price := 1 + rng.Float64()*100
		nBids := rng.Intn(sc.BidsPerItem * 2)
		maxBid := price
		start := now - int64(rng.Intn(700_000))
		end := start + 7*86400
		if old {
			end = now - int64(rng.Intn(100_000))
		}
		if err := exec(`INSERT INTO `+table+` (id, name, description, initial_price, quantity, reserve_price, buy_now,
			nb_of_bids, max_bid, start_date, end_date, seller, category, region)
			VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			id, fmt.Sprintf("item-%d", id), description(rng, id),
			price, int64(1+rng.Intn(5)), price*1.2, price*2,
			int64(nBids), maxBid+float64(nBids), start, end,
			seller, int64(rng.Intn(sc.Categories)), int64(rng.Intn(sc.Regions))); err != nil {
			return err
		}
		// Bid history for the item.
		for b := 0; b < nBids; b++ {
			bid := price + float64(b)
			if err := exec(`INSERT INTO bids (id, user_id, item_id, qty, bid, max_bid, date)
				VALUES (?, ?, ?, ?, ?, ?, ?)`,
				bidID, int64(rng.Intn(sc.Users)), id, int64(1), bid, bid+1, start+int64(b)); err != nil {
				return err
			}
			bidID++
		}
		return nil
	}
	for i := 0; i < sc.ActiveItems; i++ {
		if err := insertItem("items", false); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sc.OldItems; i++ {
		if err := insertItem("old_items", true); err != nil {
			return nil, err
		}
	}

	cmtID := int64(0)
	for u := 0; u < sc.Users; u++ {
		for c := 0; c < sc.CommentsPerUser; c++ {
			if err := exec(`INSERT INTO comments (id, from_user_id, to_user_id, item_id, rating, date, comment)
				VALUES (?, ?, ?, ?, ?, ?, ?)`,
				cmtID, int64(rng.Intn(sc.Users)), int64(u), int64(rng.Intn(max(1, sc.ActiveItems))),
				int64(rng.Intn(5)), now, "great seller, would bid again"); err != nil {
				return nil, err
			}
			cmtID++
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	ds := &Dataset{Scale: sc}
	ds.nextItemID.Store(itemID)
	ds.nextBidID.Store(bidID)
	ds.nextUserID.Store(int64(sc.Users))
	ds.nextCmtID.Store(cmtID)
	ds.nextBuyID.Store(0)
	return ds, nil
}

// description synthesizes a plausibly-sized item description (RUBiS
// descriptions average a few hundred bytes; they are what makes cached
// pages worth sharing).
func description(rng *rand.Rand, id int64) string {
	return fmt.Sprintf("Item %d: a remarkable artifact of lot %d, offered in condition grade %d. "+
		"Ships promptly from the seller's region. Serial %08x. "+
		"This listing includes the original packaging and all accessories.",
		id, rng.Intn(1000), rng.Intn(10), rng.Int63())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mustInt extracts an int64 column value.
func mustInt(v sql.Value) int64 {
	if v == nil {
		return 0
	}
	return v.(int64)
}

// mustFloat extracts a float64 column value (widening int64).
func mustFloat(v sql.Value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	default:
		return 0
	}
}

// mustString extracts a string column value.
func mustString(v sql.Value) string {
	if v == nil {
		return ""
	}
	return v.(string)
}
