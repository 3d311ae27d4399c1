package db

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"txcache/internal/invalidation"
	"txcache/internal/sql"
)

// A commit's tag set collapses a table to its wildcard once it holds more
// than the per-table limit of distinct key tags (§5.3). The set decides
// that before interning, so a bulk change interns only what it can emit;
// these tests hold it to emitting exactly what intern-everything-then-decide
// emits.

// refAdd is one tag offered to a set: a row value under an indexed column,
// or the table's wildcard (column == "").
type refAdd struct {
	table  *Table
	column string
	value  sql.Value
}

// referenceTags is the rule stated as plainly as possible, over strings. It
// interns every key tag it is offered, as the executor once did.
func referenceTags(limit int, adds []refAdd) []string {
	keys := map[string]map[string]bool{}
	wild := map[string]bool{}
	for _, a := range adds {
		name := a.table.name
		if a.column != "" {
			invalidation.Intern(invalidation.KeyTag(name, a.column, sql.FormatValue(a.value)))
		}
		switch key := a.column + "=" + sql.FormatValue(a.value); {
		case wild[name]:
		case a.column == "":
			wild[name] = true
		case keys[name][key]:
		case len(keys[name])+1 > limit:
			wild[name] = true
		default:
			if keys[name] == nil {
				keys[name] = map[string]bool{}
			}
			keys[name][key] = true
		}
	}
	var out []string
	for name := range wild {
		out = append(out, name+":?")
	}
	for name, ks := range keys {
		if wild[name] {
			continue
		}
		for k := range ks {
			out = append(out, name+":"+k)
		}
	}
	sort.Strings(out)
	return out
}

func setTags(limit int, adds []refAdd) []string {
	var s tagSet
	s.reset(limit)
	for _, a := range adds {
		if a.column == "" {
			s.add(a.table.wildTag)
		} else {
			s.addKey(a.table, a.column, a.value)
		}
	}
	var out []string
	for _, id := range s.tags() {
		out = append(out, invalidation.TagOf(id).String())
	}
	sort.Strings(out)
	return out
}

func TestTagSetEmitsWhatInternEverythingEmits(t *testing.T) {
	const limit = 4
	tableSeq := 0
	// Every case gets tables of its own, so "never interned" is true of
	// each tag the first time the case offers it.
	newTables := func(t *testing.T) (a, b *Table) {
		t.Helper()
		e := New(Options{})
		tableSeq++
		for _, name := range []string{fmt.Sprintf("ta%d", tableSeq), fmt.Sprintf("tb%d", tableSeq)} {
			if err := e.DDL(fmt.Sprintf(`CREATE TABLE %s (id BIGINT PRIMARY KEY, x BIGINT, y TEXT)`, name)); err != nil {
				t.Fatal(err)
			}
			if err := e.DDL(fmt.Sprintf(`CREATE INDEX %s_x ON %s (x)`, name, name)); err != nil {
				t.Fatal(err)
			}
		}
		return e.tables[fmt.Sprintf("ta%d", tableSeq)], e.tables[fmt.Sprintf("tb%d", tableSeq)]
	}
	ids := func(tb *Table, vals ...int64) []refAdd {
		var out []refAdd
		for _, v := range vals {
			out = append(out, refAdd{tb, "id", v})
		}
		return out
	}
	cases := []struct {
		name string
		adds func(a, b *Table) []refAdd
		// wantInterned bounds the key tags the set itself may intern.
		wantInterned int
	}{
		{"BelowTheLimit", func(a, b *Table) []refAdd { return ids(a, 1, 2, 3) }, 3},
		{"AtTheLimit", func(a, b *Table) []refAdd { return ids(a, 1, 2, 3, 4) }, 4},
		{"OneAboveTheLimit", func(a, b *Table) []refAdd { return ids(a, 1, 2, 3, 4, 5) }, 4},
		{"FarAboveTheLimit", func(a, b *Table) []refAdd {
			var out []refAdd
			for i := int64(0); i < 500; i++ {
				out = append(out, refAdd{a, "id", i}, refAdd{a, "x", i % 7})
			}
			return out
		}, 4},
		{"RepeatsAtTheLimitDoNotCollapse", func(a, b *Table) []refAdd {
			return ids(a, 1, 2, 3, 4, 4, 1, 3, 2, 2)
		}, 4},
		{"RepeatsAtTheLimitThenANewTag", func(a, b *Table) []refAdd {
			return ids(a, 1, 2, 3, 4, 4, 1, 9, 2)
		}, 4},
		{"SameValueUnderAnotherColumnIsANewTag", func(a, b *Table) []refAdd {
			return append(ids(a, 1, 2, 3, 4), refAdd{a, "x", int64(4)})
		}, 4},
		{"TablesCountSeparately", func(a, b *Table) []refAdd {
			return append(ids(a, 1, 2, 3, 4, 5, 6), ids(b, 1, 2, 3)...)
		}, 7},
		{"WildcardFirstSwallowsTheTable", func(a, b *Table) []refAdd {
			return append([]refAdd{{table: a}}, append(ids(a, 1, 2), ids(b, 1)...)...)
		}, 1},
		{"WildcardAfterKeys", func(a, b *Table) []refAdd {
			return append(ids(a, 1, 2), refAdd{table: a}, refAdd{a, "id", int64(3)})
		}, 2},
		{"TextValues", func(a, b *Table) []refAdd {
			var out []refAdd
			for _, v := range []string{"p", "q", "p", "r", "s", "s", "t"} {
				out = append(out, refAdd{a, "y", v})
			}
			return out
		}, 4},
	}
	for _, tc := range cases {
		for _, known := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/alreadyInterned=%v", tc.name, known), func(t *testing.T) {
				a, b := newTables(t)
				adds := tc.adds(a, b)
				var want []string
				if known {
					// Every tag is in the interner before the set sees it:
					// "already interned" must not be mistaken for "already
					// in this set".
					want = referenceTags(limit, adds)
				}
				before := invalidation.InternedCount()
				got := setTags(limit, adds)
				grew := invalidation.InternedCount() - before
				if !known {
					want = referenceTags(limit, adds)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("tag set\n got %v\nwant %v", got, want)
				}
				if known && grew != 0 {
					t.Fatalf("interned %d tags that were all interned already", grew)
				}
				if !known && grew > tc.wantInterned {
					t.Fatalf("interned %d key tags, at most %d can reach a message", grew, tc.wantInterned)
				}
			})
		}
	}
}

// TestBulkCommitInternsAtMostTheLimitPerTable is the rubis.Load shape: one
// commit inserting 10,000 rows into a table with three indexes used to
// intern 30,000 permanent tags and publish one wildcard.
func TestBulkCommitInternsAtMostTheLimitPerTable(t *testing.T) {
	bus := invalidation.NewBus(false)
	e := New(Options{Bus: bus})
	for _, ddl := range []string{
		`CREATE TABLE bulk (id BIGINT PRIMARY KEY, owner BIGINT, label TEXT)`,
		`CREATE INDEX bulk_owner ON bulk (owner)`,
		`CREATE INDEX bulk_label ON bulk (label)`,
		`CREATE TABLE side (id BIGINT PRIMARY KEY, v BIGINT)`,
	} {
		if err := e.DDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	sub := bus.Subscribe()
	defer sub.Close()
	limit := e.wcLim

	before := invalidation.InternedCount() // the wildcards are in: DDL interned them
	tx, err := e.BeginTx(context.Background(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10_000; i++ {
		if _, err := tx.Exec("INSERT INTO bulk (id, owner, label) VALUES (?, ?, ?)", i, i%977, fmt.Sprintf("label-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 3; i++ {
		if _, err := tx.Exec("INSERT INTO side (id, v) VALUES (?, 0)", i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if grew := invalidation.InternedCount() - before; grew > limit+3 {
		t.Fatalf("a 10,000-row insert interned %d tags; at most %d (bulk, collapsed) + 3 (side) can matter", grew, limit)
	}
	m := <-sub.C
	var got []string
	for _, id := range m.Tags {
		got = append(got, invalidation.TagOf(id).String())
	}
	sort.Strings(got)
	if want := []string{"bulk:?", "side:id=0", "side:id=1", "side:id=2"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("message tags %v, want %v", got, want)
	}

	// The same through a query's tag set: an IN list longer than the limit.
	before = invalidation.InternedCount()
	args := make([]sql.Value, 0, 200)
	in := ""
	for i := int64(0); i < 200; i++ {
		args = append(args, 20_000+i)
		if i > 0 {
			in += ", "
		}
		in += "?"
	}
	rtx, err := e.BeginTx(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rtx.Query("SELECT id FROM bulk WHERE id IN ("+in+")", args...)
	rtx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tags) != 1 || invalidation.TagOf(res.Tags[0]).String() != "bulk:?" {
		t.Fatalf("query tags %v, want the wildcard", res.Tags)
	}
	if grew := invalidation.InternedCount() - before; grew > limit {
		t.Fatalf("a 200-value IN list interned %d tags, limit is %d", grew, limit)
	}
}
