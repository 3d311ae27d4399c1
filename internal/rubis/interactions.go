package rubis

import (
	"context"
	"errors"
	"fmt"

	"txcache/internal/core"
	"txcache/internal/interval"
)

// Interaction names, following the RUBiS PHP scripts. Each corresponds to
// one transaction (paper §8: "there are 26 possible user interactions, each
// of which corresponds to a transaction").
const (
	IHome = iota
	IRegisterForm
	IRegisterUser // RW
	IBrowse
	IBrowseCategories
	ISearchItemsInCategory
	IBrowseRegions
	IBrowseCategoriesInRegion
	ISearchItemsInRegion
	IViewItem
	IViewUserInfo
	IViewBidHistory
	IBuyNowAuth
	IBuyNow
	IStoreBuyNow // RW
	IPutBidAuth
	IPutBid
	IStoreBid // RW
	IPutCommentAuth
	IPutComment
	IStoreComment // RW
	ISell
	ISelectCategoryToSell
	ISellItemForm
	IRegisterItem // RW
	IAboutMe
	numInteractions
)

// IsReadWrite reports whether the interaction updates the database.
func IsReadWrite(i int) bool {
	switch i {
	case IRegisterUser, IStoreBuyNow, IStoreBid, IStoreComment, IRegisterItem:
		return true
	}
	return false
}

// --- Read-only interactions (run inside a caller-provided RO transaction).

// Home renders the home page.
func (a *App) Home(tx *core.Tx) (string, error) { return a.pgHome(tx) }

// BrowseCategories renders the category listing.
func (a *App) BrowseCategories(tx *core.Tx) (string, error) { return a.pgCategories(tx) }

// BrowseRegions renders the region listing.
func (a *App) BrowseRegions(tx *core.Tx) (string, error) { return a.pgRegions(tx) }

// SearchItemsInCategory renders one page of a category's items.
func (a *App) SearchItemsInCategory(tx *core.Tx, cat, page int64) (string, error) {
	return a.pgSearchCat(tx, cat, page)
}

// SearchItemsInRegion renders items in a region+category.
func (a *App) SearchItemsInRegion(tx *core.Tx, region, cat int64) (string, error) {
	return a.pgSearchReg(tx, region, cat)
}

// ViewItem renders an item page.
func (a *App) ViewItem(tx *core.Tx, item int64) (string, error) { return a.pgViewItem(tx, item) }

// ViewUserInfo renders a user profile with comments.
func (a *App) ViewUserInfo(tx *core.Tx, user int64) (string, error) { return a.pgUserInfo(tx, user) }

// ViewBidHistory renders an item's bid history.
func (a *App) ViewBidHistory(tx *core.Tx, item int64) (string, error) {
	return a.pgBidHistory(tx, item)
}

// PutBidAuth authenticates and renders the bid form.
func (a *App) PutBidAuth(tx *core.Tx, nick, pass string, item int64) (string, error) {
	uid, err := a.auth(tx, nick, pass)
	if err != nil {
		return "", err
	}
	if uid < 0 {
		return "<html><body>Authentication failed.</body></html>", nil
	}
	page, err := a.pgViewItem(tx, item)
	if err != nil {
		return "", err
	}
	return page + "<form>bid form</form>", nil
}

// AboutMe renders the logged-in user's dashboard: profile, comments, and
// the items they bid on (the paper's nested-call motivating example, §6.3).
func (a *App) AboutMe(tx *core.Tx, user int64) (string, error) {
	profile, err := a.pgUserInfo(tx, user)
	if err != nil {
		return "", err
	}
	items, err := a.userBidItems(tx, user)
	if err != nil {
		return "", err
	}
	out := profile + "<h2>Your bids</h2>"
	for _, it := range items {
		item, err := a.getItem(tx, it)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return "", err
		}
		out += fmt.Sprintf("<p>%s: $%.2f</p>", item.Name, item.MaxBid)
	}
	return out, nil
}

// --- Read/write interactions (each runs through the library's ReadWrite
// closure runner, which retries serialization conflicts and returns the
// commit timestamp for session causality).

// StoreBid places a bid on an item: insert the bid, bump the item's bid
// count and maximum (computed app-side; the engine's SQL subset has no
// arithmetic).
func (a *App) StoreBid(ctx context.Context, user, item int64, amount float64, now int64) (interval.Timestamp, error) {
	return a.C.ReadWrite(ctx, func(rw *core.Tx) error {
		r, err := rw.Query("SELECT nb_of_bids, max_bid, end_date FROM items WHERE id = ?", item)
		if err != nil {
			return err
		}
		if len(r.Rows) == 0 {
			return ErrNotFound // auction already closed
		}
		nb, maxBid := mustInt(r.Rows[0][0]), mustFloat(r.Rows[0][1])
		if _, err := rw.Exec(`INSERT INTO bids (id, user_id, item_id, qty, bid, max_bid, date)
			VALUES (?, ?, ?, ?, ?, ?, ?)`,
			a.DS.NewBidID(), user, item, int64(1), amount, amount, now); err != nil {
			return err
		}
		newMax := maxBid
		if amount > newMax {
			newMax = amount
		}
		_, err = rw.Exec("UPDATE items SET nb_of_bids = ?, max_bid = ? WHERE id = ?", nb+1, newMax, item)
		return err
	})
}

// StoreBuyNow records an immediate purchase, decrementing quantity and
// closing the auction when stock runs out (move to old_items).
func (a *App) StoreBuyNow(ctx context.Context, user, item int64, qty, now int64) (interval.Timestamp, error) {
	return a.C.ReadWrite(ctx, func(rw *core.Tx) error {
		r, err := rw.Query("SELECT quantity FROM items WHERE id = ?", item)
		if err != nil {
			return err
		}
		if len(r.Rows) == 0 || mustInt(r.Rows[0][0]) < qty {
			return ErrNotFound
		}
		if _, err := rw.Exec(`INSERT INTO buy_now (id, buyer_id, item_id, qty, date) VALUES (?, ?, ?, ?, ?)`,
			a.DS.NewBuyNowID(), user, item, qty, now); err != nil {
			return err
		}
		_, err = rw.Exec("UPDATE items SET quantity = ? WHERE id = ?", mustInt(r.Rows[0][0])-qty, item)
		return err
	})
}

// StoreComment leaves feedback about a user and updates their rating.
func (a *App) StoreComment(ctx context.Context, from, to, item, rating, now int64, text string) (interval.Timestamp, error) {
	return a.C.ReadWrite(ctx, func(rw *core.Tx) error {
		r, err := rw.Query("SELECT rating FROM users WHERE id = ?", to)
		if err != nil {
			return err
		}
		if len(r.Rows) == 0 {
			return ErrNotFound
		}
		if _, err := rw.Exec(`INSERT INTO comments (id, from_user_id, to_user_id, item_id, rating, date, comment)
			VALUES (?, ?, ?, ?, ?, ?, ?)`,
			a.DS.NewCommentID(), from, to, item, rating, now, text); err != nil {
			return err
		}
		_, err = rw.Exec("UPDATE users SET rating = ? WHERE id = ?", mustInt(r.Rows[0][0])+rating, to)
		return err
	})
}

// RegisterItem lists a new item for sale. The item ID is allocated once up
// front, so a conflict retry re-inserts the same listing rather than
// duplicating it.
func (a *App) RegisterItem(ctx context.Context, seller, category, region int64, name string, price float64, now int64) (int64, interval.Timestamp, error) {
	id := a.DS.NewItemID()
	ts, err := a.C.ReadWrite(ctx, func(rw *core.Tx) error {
		_, err := rw.Exec(`INSERT INTO items (id, name, description, initial_price, quantity, reserve_price, buy_now,
			nb_of_bids, max_bid, start_date, end_date, seller, category, region)
			VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			id, name, "freshly listed: "+name, price, int64(1), price*1.2, price*2,
			int64(0), price, now, now+7*86400, seller, category, region)
		return err
	})
	return id, ts, err
}

// RegisterUser creates an account.
func (a *App) RegisterUser(ctx context.Context, nick, pass string, region int64, now int64) (int64, interval.Timestamp, error) {
	id := a.DS.NewUserID()
	ts, err := a.C.ReadWrite(ctx, func(rw *core.Tx) error {
		_, err := rw.Exec(`INSERT INTO users (id, firstname, lastname, nickname, password, email, rating, balance, creation_date, region)
			VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			id, "New", "User", nick, pass, nick+"@rubis.example", int64(0), 0.0, now, region)
		return err
	})
	return id, ts, err
}
