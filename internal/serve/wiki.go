package serve

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/interval"
	"txcache/internal/rubis"
	"txcache/internal/sql"
)

// The wiki subset models the paper's second application (§7.2, MediaWiki):
// page rendering is one cacheable function over two tables — the page row
// naming its latest revision, and the revision body — so an edit invalidates
// the cached render through cross-table tags, and a stale cache would show a
// page pointing at a revision it doesn't contain.

// WikiDDL is the wiki schema. Like the RUBiS schema it is created
// engine-side (dbnet carries no DDL): txcache-dbd -wiki-pages loads it.
var WikiDDL = []string{
	`CREATE TABLE wiki_pages (id BIGINT PRIMARY KEY, title TEXT NOT NULL, latest BIGINT)`,
	`CREATE UNIQUE INDEX wiki_pages_title ON wiki_pages (title)`,
	`CREATE TABLE wiki_revisions (id BIGINT PRIMARY KEY, page_id BIGINT, editor BIGINT, date BIGINT, body TEXT)`,
	`CREATE INDEX wiki_revisions_page ON wiki_revisions (page_id)`,
}

// LoadWiki creates the wiki schema and seeds pages titled "page-0" through
// "page-N-1", each with one initial revision whose ID equals its page's.
func LoadWiki(engine *db.Engine, pages int, now int64) error {
	for _, d := range WikiDDL {
		if err := engine.DDL(d); err != nil {
			return fmt.Errorf("serve: wiki schema: %w", err)
		}
	}
	tx, err := engine.BeginTx(nil, false, 0)
	if err != nil {
		return err
	}
	for i := 0; i < pages; i++ {
		id := int64(i)
		if _, err := tx.Exec(`INSERT INTO wiki_pages (id, title, latest) VALUES (?, ?, ?)`,
			id, fmt.Sprintf("page-%d", id), id); err != nil {
			tx.Abort()
			return err
		}
		if _, err := tx.Exec(`INSERT INTO wiki_revisions (id, page_id, editor, date, body) VALUES (?, ?, ?, ?, ?)`,
			id, id, int64(0), now, fmt.Sprintf("Initial text of page-%d.", id)); err != nil {
			tx.Abort()
			return err
		}
	}
	_, err = tx.Commit()
	return err
}

// Wiki exposes the wiki pages over the library: a cacheable render and a
// read/write edit.
type Wiki struct {
	c       *core.Client
	render  core.Cacheable[string]
	pages   atomic.Int64 // seeded page count (dense titles page-N)
	nextRev atomic.Int64
}

// Pages reports the seeded page count (for load-generator ID ranges).
func (w *Wiki) Pages() int64 { return w.pages.Load() }

// Render returns the cached HTML of a page's latest revision.
func (w *Wiki) Render(tx *core.Tx, title string) (string, error) {
	return w.render(tx, title)
}

// Edit stores a new revision and points the page at it. The revision ID is
// allocated before the closure so a serialization retry re-inserts the same
// revision rather than two.
func (w *Wiki) Edit(ctx context.Context, title, body string, editor, now int64) (interval.Timestamp, error) {
	rev := w.nextRev.Add(1) - 1
	return w.c.ReadWrite(ctx, func(rw *core.Tx) error {
		r, err := rw.Query(`SELECT id FROM wiki_pages WHERE title = ?`, title)
		if err != nil {
			return err
		}
		if len(r.Rows) == 0 {
			return rubis.ErrNotFound
		}
		pageID := r.Rows[0][0]
		if _, err := rw.Exec(`INSERT INTO wiki_revisions (id, page_id, editor, date, body) VALUES (?, ?, ?, ?, ?)`,
			rev, pageID, editor, now, body); err != nil {
			return err
		}
		_, err = rw.Exec(`UPDATE wiki_pages SET latest = ? WHERE id = ?`, rev, pageID)
		return err
	})
}

// AttachWiki wires the cacheable render against c and recovers the Wiki
// from a database whose schema LoadWiki created elsewhere: the page count and
// the revision allocator are read back in one uncached read-only
// transaction, mirroring rubis.Attach.
func AttachWiki(ctx context.Context, c *core.Client) (*Wiki, error) {
	w := &Wiki{c: c}
	w.render = core.MakeCacheable(c, "wiki.render", func(tx *core.Tx, args ...sql.Value) (string, error) {
		r, err := tx.Query(`SELECT id, latest FROM wiki_pages WHERE title = ?`, args...)
		if err != nil {
			return "", err
		}
		if len(r.Rows) == 0 {
			return "", rubis.ErrNotFound
		}
		latest := r.Rows[0][1]
		rev, err := tx.Query(`SELECT editor, date, body FROM wiki_revisions WHERE id = ?`, latest)
		if err != nil {
			return "", err
		}
		if len(rev.Rows) == 0 {
			// The page names a revision this snapshot doesn't contain — an
			// edit's two writes observed from different moments in time.
			return "", fmt.Errorf("%w: page %v latest revision %v missing",
				rubis.ErrInconsistent, args[0], latest)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "<html><body><h1>%v</h1><p>%v</p><p><i>rev %v by user %v at %v</i></p></body></html>",
			args[0], rev.Rows[0][2], latest, rev.Rows[0][0], rev.Rows[0][1])
		return b.String(), nil
	})
	_, err := c.ReadOnly(ctx, func(tx *core.Tx) error {
		r, err := tx.Query(`SELECT id FROM wiki_pages ORDER BY id DESC LIMIT 1`)
		if err != nil {
			return err
		}
		if len(r.Rows) == 0 {
			return fmt.Errorf("serve: attach wiki: no pages loaded")
		}
		w.pages.Store(r.Rows[0][0].(int64) + 1)
		rev, err := tx.Query(`SELECT id FROM wiki_revisions ORDER BY id DESC LIMIT 1`)
		if err != nil {
			return err
		}
		if len(rev.Rows) > 0 {
			w.nextRev.Store(rev.Rows[0][0].(int64) + 1)
		}
		return nil
	}, core.WithoutCache())
	if err != nil {
		return nil, err
	}
	return w, nil
}
