package sql_test

import (
	"testing"

	"txcache/internal/rubis"
	"txcache/internal/sql"
)

// FuzzParse feeds the lexer and parser arbitrary bytes: the engine parses
// text a client supplies over dbnet, so every input must come back as a
// statement or an error — never a panic, never both, never neither. (A hang
// shows as the fuzz worker timing out.) The seeds are the statements the
// system itself issues: the RUBiS schema and the shapes of its queries and
// updates, the README's examples, and a few near misses.
func FuzzParse(f *testing.F) {
	for _, ddl := range rubis.DDL {
		f.Add(ddl)
	}
	for _, src := range []string{
		// RUBiS (internal/rubis/app.go, interactions.go, attach.go).
		"SELECT id, firstname, lastname, nickname, email, rating, balance, creation_date, region\n\t\t\tFROM users WHERE id = ?",
		"SELECT user_id, qty, bid, date FROM bids WHERE item_id = ? ORDER BY bid DESC LIMIT 20",
		"SELECT id, name, max_bid, nb_of_bids, end_date FROM items\n\t\t\tWHERE category = ? ORDER BY end_date LIMIT 20 OFFSET 40",
		"SELECT id, name, max_bid, nb_of_bids, end_date FROM items\n\t\t\tWHERE region = ? AND category = ? ORDER BY end_date LIMIT 20",
		"SELECT DISTINCT item_id FROM bids WHERE user_id = ? LIMIT 10",
		"SELECT name FROM categories ORDER BY id",
		"SELECT id FROM old_items ORDER BY id DESC LIMIT 1",
		"INSERT INTO bids (id, user_id, item_id, qty, bid, max_bid, date)\n\t\t\tVALUES (?, ?, ?, ?, ?, ?, ?)",
		"UPDATE items SET nb_of_bids = ?, max_bid = ? WHERE id = ?",
		// README.md.
		"SELECT karma FROM users WHERE id = ?",
		"UPDATE users SET karma = 1000 WHERE id = 7",
		// The rest of the grammar, and input that is almost a statement.
		"SELECT i.id, u.name FROM items i JOIN users u ON i.seller = u.id WHERE i.category = 2 AND u.id IN (1, 2) ORDER BY i.id",
		"SELECT COUNT(*), MAX(price), MIN(price), SUM(price), AVG(price) FROM items WHERE seller = 7",
		"INSERT INTO t (a, b) VALUES (?, 'it''s'), (-2, NULL);",
		"DELETE FROM t WHERE a IS NOT NULL AND b >= 3.5",
		"SELECT a FROM t WHERE b = 'unterminated",
		"SELECT FROM WHERE",
		"",
		"\x00\xff(((((",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := sql.Parse(src)
		if (st == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a statement and an error", src, st, err)
		}
	})
}
