package db

import (
	"fmt"
	"sort"
	"testing"

	"txcache/internal/invalidation"
	"txcache/internal/sql"
)

// A commit's tag set collapses a table to its wildcard once it holds more
// than the per-table limit of distinct key tags (§5.3). The set works on
// IDs, which are hashes; this test holds it to emitting exactly what the rule
// emits when applied to the tags' names.

// refAdd is one tag offered to a set: a row value under an indexed column,
// or the table's wildcard (column == "").
type refAdd struct {
	table  *Table
	column string
	value  sql.Value
}

// referenceTags is the rule stated as plainly as possible, over strings. It
// records in names the ID of every tag it is offered, which is how the set's
// output — IDs, with no way back to a name — is read.
func referenceTags(limit int, adds []refAdd, names map[invalidation.TagID]string) []string {
	keys := map[string]map[string]bool{}
	wild := map[string]bool{}
	for _, a := range adds {
		name := a.table.name
		key := a.column + "=" + sql.FormatValue(a.value)
		names[invalidation.Intern(invalidation.Tag{Table: name, Wildcard: true})] = name + ":?"
		names[invalidation.Intern(invalidation.Tag{Table: name, Key: key})] = name + ":" + key
		switch {
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

func setTags(limit int, adds []refAdd, names map[invalidation.TagID]string) []string {
	var s tagSet
	s.reset(limit)
	for _, a := range adds {
		if a.column == "" {
			s.add(a.table.wildTag)
		} else {
			s.addKey(a.table, a.column, datumOf(a.value))
		}
	}
	var out []string
	for _, id := range s.tags() {
		name, ok := names[id]
		if !ok {
			name = "never offered: " + id.String()
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func TestTagSetEmitsWhatInternEverythingEmits(t *testing.T) {
	const limit = 4
	newTables := func(t *testing.T) (a, b *Table) {
		t.Helper()
		e := New(Options{})
		for _, name := range []string{"ta", "tb"} {
			if err := e.DDL(fmt.Sprintf(`CREATE TABLE %s (id BIGINT PRIMARY KEY, x BIGINT, y TEXT)`, name)); err != nil {
				t.Fatal(err)
			}
			if err := e.DDL(fmt.Sprintf(`CREATE INDEX %s_x ON %s (x)`, name, name)); err != nil {
				t.Fatal(err)
			}
		}
		return e.tables["ta"], e.tables["tb"]
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
	}{
		{"BelowTheLimit", func(a, b *Table) []refAdd { return ids(a, 1, 2, 3) }},
		{"AtTheLimit", func(a, b *Table) []refAdd { return ids(a, 1, 2, 3, 4) }},
		{"OneAboveTheLimit", func(a, b *Table) []refAdd { return ids(a, 1, 2, 3, 4, 5) }},
		{"FarAboveTheLimit", func(a, b *Table) []refAdd {
			var out []refAdd
			for i := int64(0); i < 500; i++ {
				out = append(out, refAdd{a, "id", i}, refAdd{a, "x", i % 7})
			}
			return out
		}},
		{"RepeatsAtTheLimitDoNotCollapse", func(a, b *Table) []refAdd {
			return ids(a, 1, 2, 3, 4, 4, 1, 3, 2, 2)
		}},
		{"RepeatsAtTheLimitThenANewTag", func(a, b *Table) []refAdd {
			return ids(a, 1, 2, 3, 4, 4, 1, 9, 2)
		}},
		{"SameValueUnderAnotherColumnIsANewTag", func(a, b *Table) []refAdd {
			return append(ids(a, 1, 2, 3, 4), refAdd{a, "x", int64(4)})
		}},
		{"TablesCountSeparately", func(a, b *Table) []refAdd {
			return append(ids(a, 1, 2, 3, 4, 5, 6), ids(b, 1, 2, 3)...)
		}},
		{"WildcardFirstSwallowsTheTable", func(a, b *Table) []refAdd {
			return append([]refAdd{{table: a}}, append(ids(a, 1, 2), ids(b, 1)...)...)
		}},
		{"WildcardAfterKeys", func(a, b *Table) []refAdd {
			return append(ids(a, 1, 2), refAdd{table: a}, refAdd{a, "id", int64(3)})
		}},
		{"TextValues", func(a, b *Table) []refAdd {
			var out []refAdd
			for _, v := range []string{"p", "q", "p", "r", "s", "s", "t"} {
				out = append(out, refAdd{a, "y", v})
			}
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			adds := tc.adds(newTables(t))
			names := map[invalidation.TagID]string{}
			want := referenceTags(limit, adds, names)
			if got := setTags(limit, adds, names); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("tag set\n got %v\nwant %v", got, want)
			}
		})
	}
}
