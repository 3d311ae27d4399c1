package sql

import (
	"math/rand"
	"testing"

	"txcache/internal/wire"
)

func mustSelect(t *testing.T, src string) *Select {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	s, ok := st.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", src, st)
	}
	return s
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustSelect(t, "SELECT id, name FROM users WHERE id = ?")
	if s.Table != "users" || len(s.Exprs) != 2 || s.Star {
		t.Fatalf("parsed: %+v", s)
	}
	if s.Exprs[0].Col.Column != "id" || s.Exprs[1].Col.Column != "name" {
		t.Fatalf("cols: %+v", s.Exprs)
	}
	if len(s.Where) != 1 || s.Where[0].Op != OpEq || s.Where[0].Right.Kind != EParam {
		t.Fatalf("where: %+v", s.Where)
	}
}

func TestParseStarAndLiterals(t *testing.T) {
	s := mustSelect(t, "select * from items where price >= 10.5 and active = TRUE and name <> 'o''brien'")
	if !s.Star || len(s.Where) != 3 {
		t.Fatalf("parsed: %+v", s)
	}
	if s.Where[0].Right.Lit != 10.5 {
		t.Fatalf("float lit: %v", s.Where[0].Right.Lit)
	}
	if s.Where[1].Right.Lit != true {
		t.Fatalf("bool lit: %v", s.Where[1].Right.Lit)
	}
	if s.Where[2].Right.Lit != "o'brien" {
		t.Fatalf("string lit: %q", s.Where[2].Right.Lit)
	}
}

func TestParseNegativeNumber(t *testing.T) {
	s := mustSelect(t, "SELECT id FROM t WHERE x = -5 AND y > -2.5")
	if s.Where[0].Right.Lit != int64(-5) || s.Where[1].Right.Lit != -2.5 {
		t.Fatalf("negative literals: %+v", s.Where)
	}
}

func TestParseJoin(t *testing.T) {
	s := mustSelect(t, `SELECT i.id, u.nickname FROM items AS i
		JOIN users u ON i.seller = u.id WHERE i.category = ? ORDER BY i.end_date DESC LIMIT 20 OFFSET 40`)
	if s.Alias != "i" || len(s.Joins) != 1 {
		t.Fatalf("parsed: %+v", s)
	}
	j := s.Joins[0]
	if j.Table != "users" || j.Alias != "u" || j.Left.String() != "i.seller" || j.Right.String() != "u.id" {
		t.Fatalf("join: %+v", j)
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc || s.Limit != 20 || s.Offset != 40 {
		t.Fatalf("order/limit: %+v", s)
	}
}

func TestParseAggregates(t *testing.T) {
	s := mustSelect(t, "SELECT COUNT(*), MAX(bid) FROM bids WHERE item_id = ?")
	if len(s.Exprs) != 2 {
		t.Fatalf("exprs: %+v", s.Exprs)
	}
	if s.Exprs[0].Agg != AggCount || !s.Exprs[0].Star {
		t.Fatalf("count: %+v", s.Exprs[0])
	}
	if s.Exprs[1].Agg != AggMax || s.Exprs[1].Col.Column != "bid" {
		t.Fatalf("max: %+v", s.Exprs[1])
	}
}

func TestParseInAndIsNull(t *testing.T) {
	s := mustSelect(t, "SELECT id FROM t WHERE status IN (1, 2, ?) AND deleted_at IS NULL AND note IS NOT NULL")
	if len(s.Where) != 3 {
		t.Fatalf("where: %+v", s.Where)
	}
	if len(s.Where[0].In) != 3 || s.Where[0].In[2].Kind != EParam {
		t.Fatalf("in: %+v", s.Where[0])
	}
	if !s.Where[1].IsNull || !s.Where[2].IsNotNull {
		t.Fatalf("is null: %+v", s.Where[1:])
	}
}

func TestParamOrdinals(t *testing.T) {
	s := mustSelect(t, "SELECT a FROM t WHERE x = ? AND y = ? AND z IN (?, ?)")
	got := []int{s.Where[0].Right.Param, s.Where[1].Right.Param, s.Where[2].In[0].Param, s.Where[2].In[1].Param}
	for i, p := range got {
		if p != i {
			t.Fatalf("param ordinals = %v", got)
		}
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO users (id, name, rating) VALUES (?, 'bob', 4.5), (2, ?, -1)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if ins.Table != "users" || len(ins.Cols) != 3 || len(ins.Rows) != 2 {
		t.Fatalf("parsed: %+v", ins)
	}
	if ins.Rows[0][0].Kind != EParam || ins.Rows[0][1].Lit != "bob" || ins.Rows[1][2].Lit != int64(-1) {
		t.Fatalf("rows: %+v", ins.Rows)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	st, err := Parse("UPDATE items SET price = ?, quantity = 3 WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	u := st.(*Update)
	if u.Table != "items" || len(u.Set) != 2 || len(u.Where) != 1 {
		t.Fatalf("update: %+v", u)
	}
	st, err = Parse("DELETE FROM bids WHERE item_id = 9")
	if err != nil {
		t.Fatal(err)
	}
	d := st.(*Delete)
	if d.Table != "bids" || len(d.Where) != 1 {
		t.Fatalf("delete: %+v", d)
	}
}

func TestParseCreate(t *testing.T) {
	st, err := Parse(`CREATE TABLE users (
		id BIGINT PRIMARY KEY, name VARCHAR(64) NOT NULL, rating DOUBLE, active BOOLEAN)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Name != "users" || len(ct.Cols) != 4 {
		t.Fatalf("create table: %+v", ct)
	}
	if !ct.Cols[0].Primary || !ct.Cols[0].NotNull || ct.Cols[1].Type != TString || !ct.Cols[1].NotNull {
		t.Fatalf("cols: %+v", ct.Cols)
	}
	st, err = Parse("CREATE UNIQUE INDEX users_name ON users (name)")
	if err != nil {
		t.Fatal(err)
	}
	ci := st.(*CreateIndex)
	if !ci.Unique || ci.Table != "users" || ci.Column != "name" {
		t.Fatalf("create index: %+v", ci)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEKT 1",
		"SELECT FROM t",
		"SELECT a FROM t WHERE a = 1 OR b = 2",
		"SELECT a FROM t WHERE a LIKE 'x'",
		"SELECT a FROM t WHERE 'unterminated",
		"INSERT INTO t VALUES (a)", // column ref in VALUES
		"SELECT a FROM t JOIN u ON a < b",
		"SELECT MAX(*) FROM t",
		"SELECT a FROM t LIMIT ?",
		"CREATE TABLE t (x BLOB)",
		"SELECT a FROM t; SELECT b FROM u",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseCachedSharing(t *testing.T) {
	a, err := ParseCached("SELECT id FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ParseCached("SELECT id FROM users WHERE id = ?")
	if a != b {
		t.Fatal("ParseCached should return the shared statement")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), 2.5, 1},
		{2.5, int64(3), -1},
		{"a", "b", -1},
		{nil, int64(0), -1},
		{false, true, -1},
		{true, true, 0},
		{int64(5), "5", -1}, // numeric ranks below string
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(nil, nil) || Equal(nil, int64(1)) || Equal("x", nil) {
		t.Fatal("NULL must not equal anything")
	}
	if !Equal(int64(2), 2.0) {
		t.Fatal("cross-numeric equality should hold")
	}
}

// TestAppendValueGolden pins the value encoding byte for byte: data
// directories written by earlier builds hold exactly these bytes (WAL
// records and snapshots), so a tag or a width that moves here is an on-disk
// format break, not a refactor.
func TestAppendValueGolden(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{nil, "\x00"},
		{int64(1), "\x01\x01\x00\x00\x00\x00\x00\x00\x00"},
		{int64(-9), "\x01\xf7\xff\xff\xff\xff\xff\xff\xff"},
		{3.75, "\x02\x00\x00\x00\x00\x00\x00\x0e\x40"},
		{"", "\x03\x00\x00\x00\x00"},
		{"h\x00\xc3\xa9", "\x03\x04\x00\x00\x00h\x00\xc3\xa9"},
		{true, "\x04"},
		{false, "\x05"},
	}
	var all []byte
	for _, c := range cases {
		got, err := AppendValue(nil, c.v)
		if err != nil || string(got) != c.want {
			t.Errorf("AppendValue(%#v) = %q, %v; want %q", c.v, got, err, c.want)
		}
		all = append(all, got...)
	}
	// Values are self-delimiting: back to back, they decode in order.
	d := wire.NewDecoder(all)
	for i, c := range cases {
		if got := DecodeValue(d); got != c.v || d.Err() != nil {
			t.Fatalf("value %d: got %#v (err %v), want %#v", i, got, d.Err(), c.v)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left over", d.Len())
	}
}

// TestValueRejections: a value outside the domain is an encode error that
// leaves dst alone; an unknown tag or a short value poisons the decoder.
func TestValueRejections(t *testing.T) {
	dst := []byte("kept")
	if got, err := AppendValue(dst, int32(1)); err == nil || string(got) != "kept" {
		t.Fatalf("AppendValue(int32) = %q, %v; want an error and dst unchanged", got, err)
	}
	for _, bad := range []string{"\x06", "\xff", "\x01\x00\x00", "\x03\x05\x00\x00\x00abc", "\x03\xff\xff\xff\xffabc"} {
		d := wire.NewDecoder([]byte(bad))
		if v := DecodeValue(d); d.Err() == nil {
			t.Errorf("DecodeValue(%q) = %#v, want an error", bad, v)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{int64(42), "42"}, {"alice", "alice"}, {nil, "NULL"}, {true, "true"}, {2.5, "2.5"},
	}
	for _, c := range cases {
		if got := FormatValue(c.v); got != c.want {
			t.Errorf("FormatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestParseNeverPanics feeds the parser mutations of valid statements and
// random byte strings: it must always return a value or an error, never
// panic (the engine parses client-supplied text).
func TestParseNeverPanics(t *testing.T) {
	seeds := []string{
		"SELECT a, b FROM t JOIN u ON t.x = u.y WHERE a = ? AND b IN (1,2) ORDER BY a DESC LIMIT 5 OFFSET 2",
		"INSERT INTO t (a, b) VALUES (?, 'x'), (2, NULL)",
		"UPDATE t SET a = 1, b = ? WHERE c >= 3.5",
		"DELETE FROM t WHERE a IS NOT NULL",
		"CREATE TABLE t (a BIGINT PRIMARY KEY, b VARCHAR(10) NOT NULL)",
		"CREATE UNIQUE INDEX i ON t (a)",
	}
	rng := rand.New(rand.NewSource(5))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parser panicked: %v", r)
		}
	}()
	for trial := 0; trial < 20000; trial++ {
		s := seeds[rng.Intn(len(seeds))]
		b := []byte(s)
		for k := 0; k < rng.Intn(6); k++ {
			switch rng.Intn(3) {
			case 0: // mutate a byte
				if len(b) > 0 {
					b[rng.Intn(len(b))] = byte(rng.Intn(256))
				}
			case 1: // delete a span
				if len(b) > 2 {
					i := rng.Intn(len(b) - 1)
					j := i + 1 + rng.Intn(len(b)-i-1)
					b = append(b[:i], b[j:]...)
				}
			case 2: // duplicate a span
				if len(b) > 2 {
					i := rng.Intn(len(b) - 1)
					j := i + 1 + rng.Intn(len(b)-i-1)
					b = append(b[:j:j], append(append([]byte{}, b[i:j]...), b[j:]...)...)
				}
			}
		}
		_, _ = Parse(string(b)) // only checking for panics
	}
}
