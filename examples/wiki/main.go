// Wiki: a MediaWiki-style article cache (paper §7.2), demonstrating the
// problems TxCache removes from hand-managed caches:
//
//  1. Rendered articles are cached without choosing keys or writing
//     invalidation code; editing a page automatically invalidates both the
//     rendered page and the editor's cached user record (the edit-count
//     bug of paper §2.1, MediaWiki bug #8391).
//  2. A failed article lookup IS safely cacheable — the validity-interval
//     protocol eliminates the negative-caching race that forces MediaWiki
//     not to cache them (paper §4.2).
//  3. Session causality: a user who just edited sees their own edit by
//     threading the commit timestamp into the next transaction.
//
// Run with: go run ./examples/wiki
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"txcache"
)

var ctx = context.Background()

type site struct {
	client     *txcache.Client
	engine     *txcache.Engine
	renderPage func(tx *txcache.Tx, args ...txcache.Value) (string, error)
	getUser    func(tx *txcache.Tx, args ...txcache.Value) (string, error)
}

func main() {
	bus := txcache.NewBus(false)
	engine := txcache.NewEngine(txcache.EngineOptions{Bus: bus})
	node := txcache.NewCacheServer(txcache.CacheConfig{})
	go node.ConsumeStream(bus.Subscribe())
	pc := txcache.NewPincushion(txcache.PincushionConfig{DB: engine})
	client := txcache.NewClient(txcache.Config{
		DB:         txcache.WrapEngine(engine),
		Nodes:      map[string]txcache.CacheNode{"local": node},
		Pincushion: pc,
	})

	must(engine.DDL(`CREATE TABLE pages (id BIGINT PRIMARY KEY, title TEXT NOT NULL, body TEXT, editor BIGINT)`))
	must(engine.DDL(`CREATE INDEX pages_title ON pages (title)`))
	must(engine.DDL(`CREATE TABLE wiki_users (id BIGINT PRIMARY KEY, name TEXT, edit_count BIGINT)`))

	s := &site{client: client, engine: engine}

	// Render a page by title. The cache key is derived from the function
	// name and arguments automatically — no hand-chosen keys to collide
	// (paper §2.1's watchlist bug).
	s.renderPage = txcache.MakeCacheable(client, "wiki.renderPage",
		func(tx *txcache.Tx, args ...txcache.Value) (string, error) {
			r, err := tx.Query("SELECT body FROM pages WHERE title = ?", args...)
			if err != nil {
				return "", err
			}
			if len(r.Rows) == 0 {
				// Negative result: cached safely. Its validity interval is
				// bounded the instant a matching page is created.
				return "<html>(no such page)</html>", nil
			}
			body := r.Rows[0][0].(string)
			return "<html><h1>" + args[0].(string) + "</h1><p>" + body + "</p></html>", nil
		})

	s.getUser = txcache.MakeCacheable(client, "wiki.getUser",
		func(tx *txcache.Tx, args ...txcache.Value) (string, error) {
			r, err := tx.Query("SELECT name, edit_count FROM wiki_users WHERE id = ?", args...)
			if err != nil || len(r.Rows) == 0 {
				return "", err
			}
			return fmt.Sprintf("%s (%d edits)", r.Rows[0][0], r.Rows[0][1]), nil
		})

	// Seed a user. The ReadWrite runner begins, commits, and retries
	// serialization conflicts; the closure only holds the statements.
	_, err := client.ReadWrite(ctx, func(rw *txcache.Tx) error {
		_, err := rw.Exec("INSERT INTO wiki_users (id, name, edit_count) VALUES (1, 'alice', 0)")
		return err
	})
	must(err)
	settle()

	// 1. A missing page: the negative render result is cached.
	tx, err := client.Begin(ctx, txcache.WithStaleness(30*time.Second))
	must(err)
	page, err := s.renderPage(tx, "Go_(programming_language)")
	must(err)
	tx.Commit()
	fmt.Println("before creation:", page)
	if !strings.Contains(page, "no such page") {
		log.Fatal("expected a negative result")
	}

	// 2. Alice creates the page; her edit count bumps in the same
	//    transaction. BOTH her cached user record and the cached negative
	//    render are invalidated automatically.
	ts := s.edit(1, "Go_(programming_language)", "Go is a statically typed language by Google.")
	settle()

	// 3. Causality: bound by the edit's timestamp, Alice sees her page and
	//    her new edit count, even though a lazier session might briefly see
	//    the stale versions.
	tx, err = client.Begin(ctx, txcache.WithStaleness(30*time.Second), txcache.WithMinTimestamp(ts))
	must(err)
	page, err = s.renderPage(tx, "Go_(programming_language)")
	must(err)
	who, err := s.getUser(tx, int64(1))
	must(err)
	tx.Commit()
	fmt.Println("after edit:   ", page)
	fmt.Println("editor:       ", who)
	if !strings.Contains(page, "statically typed") || who != "alice (1 edits)" {
		log.Fatalf("causality violated: %q / %q", page, who)
	}

	// 4. Another edit, then read both page and user in one transaction:
	//    whatever mix of cache and database serves it, the view is one
	//    snapshot (edit count N ⇔ page revision N).
	ts = s.edit(1, "Go_(programming_language)", "Go is a statically typed language from Google. Rev 2.")
	settle()
	tx, err = client.Begin(ctx, txcache.WithStaleness(30*time.Second), txcache.WithMinTimestamp(ts))
	must(err)
	page, _ = s.renderPage(tx, "Go_(programming_language)")
	who, _ = s.getUser(tx, int64(1))
	tx.Commit()
	fmt.Println("rev 2 page:   ", page)
	fmt.Println("editor:       ", who)
	if !strings.Contains(page, "Rev 2") || who != "alice (2 edits)" {
		log.Fatalf("inconsistent snapshot: %q / %q", page, who)
	}

	// 5. Subsequent readers are served from the cache.
	for i := 0; i < 3; i++ {
		_, err = client.ReadOnly(ctx, func(tx *txcache.Tx) error {
			_, err := s.renderPage(tx, "Go_(programming_language)")
			return err
		})
		must(err)
	}
	st := client.Stats()
	fmt.Printf("stats: hits=%d misses=%d puts=%d\n", st.Hits(), st.Misses(), st.CachePuts.Load())
	if st.Hits() == 0 {
		log.Fatal("expected cached page hits for repeat readers")
	}
	fmt.Println("wiki OK")
}

// edit upserts a page and bumps the editor's edit count in one read/write
// transaction (which bypasses the cache, paper §2.2). The runner makes the
// read-modify-write safe under conflicts: on a serialization failure the
// whole closure re-runs against the newer snapshot.
func (s *site) edit(editor int64, title, body string) txcache.Timestamp {
	ts, err := s.client.ReadWrite(ctx, func(rw *txcache.Tx) error {
		r, err := rw.Query("SELECT id FROM pages WHERE title = ?", title)
		if err != nil {
			return err
		}
		if len(r.Rows) == 0 {
			_, err = rw.Exec("INSERT INTO pages (id, title, body, editor) VALUES (?, ?, ?, ?)",
				time.Now().UnixNano()%1_000_000, title, body, editor)
		} else {
			_, err = rw.Exec("UPDATE pages SET body = ?, editor = ? WHERE title = ?", body, editor, title)
		}
		if err != nil {
			return err
		}
		r, err = rw.Query("SELECT edit_count FROM wiki_users WHERE id = ?", editor)
		if err != nil {
			return err
		}
		_, err = rw.Exec("UPDATE wiki_users SET edit_count = ? WHERE id = ?", r.Rows[0][0].(int64)+1, editor)
		return err
	})
	must(err)
	return ts
}

func settle() { time.Sleep(10 * time.Millisecond) }

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
