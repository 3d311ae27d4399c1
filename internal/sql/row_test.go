package sql_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"txcache/internal/sql"
	"txcache/internal/wire"
)

// rowOf packs vals as a stored row.
func rowOf(tb testing.TB, vals ...sql.Value) sql.Row {
	tb.Helper()
	cols := make([]sql.Datum, len(vals))
	for i, v := range vals {
		cols[i] = mustDatum(tb, v)
	}
	return sql.Row(sql.AppendRow(nil, cols))
}

// encodeValues is a row spelled the long way: a u16 count and AppendValue of
// each value — what a WAL record or a snapshot written before rows were
// packed holds.
func encodeValues(tb testing.TB, vals []sql.Value) []byte {
	tb.Helper()
	b := binary.LittleEndian.AppendUint16(nil, uint16(len(vals)))
	for _, v := range vals {
		var err error
		if b, err = sql.AppendValue(b, v); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// itemVals is shaped like a RUBiS item: integers, floats, two strings, a
// NULL, a bool for good measure.
var itemVals = []sql.Value{
	int64(123456), "an item with a name of the usual length",
	"and a description that runs on for a while, as descriptions of things for sale do",
	100.0, int64(3), nil, 200.5, int64(17), int64(1_700_000_000), int64(-1), true, false,
}

// TestRow follows a row from values to bytes and back (valid flow), then
// hands DecodeRow bytes that are not a row (rejection flow).
func TestRow(t *testing.T) {
	t.Run("ValidFlow", func(t *testing.T) {
		row := rowOf(t, itemVals...)
		if want := encodeValues(t, itemVals); string(row) != string(want) {
			t.Fatalf("AppendRow wrote %q, a u16 and AppendValue of each column write %q", row, want)
		}
		if row.Len() != len(itemVals) {
			t.Fatalf("Len = %d, want %d", row.Len(), len(itemVals))
		}
		for i, want := range itemVals {
			if got := row.At(i).Value(); got != want {
				t.Errorf("column %d = %v, want %v", i, got, want)
			}
			if row.At(i).IsNull() != (want == nil) {
				t.Errorf("column %d: IsNull = %v", i, row.At(i).IsNull())
			}
		}
		all := row.AppendDatums(nil)
		if got := sql.AppendRow(nil, all); string(got) != string(row) {
			t.Fatalf("AppendDatums then AppendRow = %q, want the row back", got)
		}
		// The bytes sit in a stream, as they do in a log record: DecodeRow
		// takes the row and leaves what follows.
		d := wire.NewDecoder(append([]byte(row), 0xEE))
		if got := sql.DecodeRow(d); got != row || d.Err() != nil || d.Len() != 1 {
			t.Fatalf("DecodeRow = %q, %v, %d bytes left: want the row and 1", got, d.Err(), d.Len())
		}
		if empty := rowOf(t); empty.Len() != 0 || len(empty) != 2 {
			t.Fatalf("the empty row is %q", empty)
		}
	})

	t.Run("RejectionFlow", func(t *testing.T) {
		whole := []byte(rowOf(t, int64(7), "seven", 7.5))
		for _, tc := range []struct {
			name string
			b    []byte
			want string
		}{
			{"no count", whole[:1], "truncated"},
			{"a column short", whole[:len(whole)-9], "truncated"},
			{"integer cut", whole[:2+5], "truncated"},
			{"string cut", whole[:2+9+5+3], "truncated"},
			{"string length past the end", append(append(bytes.Clone(whole[:2+9]), 3), 0xFF, 0xFF, 0xFF, 0x7F), "truncated"},
			{"unknown tag", append(bytes.Clone(whole[:2+9]), 9, 0, 0), "unknown value tag 9"},
			{"count past the bytes", []byte{0xFF, 0xFF, 0, 0}, "truncated"},
		} {
			d := wire.NewDecoder(tc.b)
			if row := sql.DecodeRow(d); d.Err() == nil || row != "" || !strings.Contains(d.Err().Error(), tc.want) {
				t.Errorf("%s: DecodeRow = %q, %v; want an error naming %q", tc.name, row, d.Err(), tc.want)
			}
		}
	})
}

// TestCoerce: what a column stores of what a statement hands it.
func TestCoerce(t *testing.T) {
	for _, tc := range []struct {
		typ  sql.ColType
		in   sql.Value
		want sql.Value // nil with ok: NULL
		ok   bool
	}{
		{sql.TInt, int64(3), int64(3), true},
		{sql.TInt, 3.0, nil, false},
		{sql.TFloat, int64(3), 3.0, true}, // integer literals widen
		{sql.TFloat, 2.5, 2.5, true},
		{sql.TString, "s", "s", true},
		{sql.TString, int64(1), nil, false},
		{sql.TBool, true, true, true},
		{sql.TBool, "true", nil, false},
		{sql.TInt, nil, nil, true},
	} {
		got, ok := tc.typ.Coerce(mustDatum(t, tc.in))
		if ok != tc.ok || ok && got.Value() != tc.want {
			t.Errorf("%s.Coerce(%v) = %v, %v; want %v, %v", tc.typ, tc.in, got.Value(), ok, tc.want, tc.ok)
		}
		if ok && !tc.typ.Holds(got) {
			t.Errorf("%s does not hold what it coerced %v to", tc.typ, tc.in)
		}
	}
	if sql.TFloat.Holds(mustDatum(t, int64(3))) {
		t.Error("a DOUBLE column holds an integer as it is")
	}
	if _, err := sql.DatumOf(3); err == nil {
		t.Error("DatumOf(int) succeeded: only int64 is in the domain")
	}
}

func mustDatum(tb testing.TB, v sql.Value) sql.Datum {
	tb.Helper()
	d, err := sql.DatumOf(v)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// FuzzRow: DecodeRow accepts exactly the bytes a u16 count and that many
// DecodeValues accept, consumes as many of them, and on a row it accepted
// every accessor agrees with the values DecodeValue boxed — none panics, none
// reads past the row (a string cannot be read past).
func FuzzRow(f *testing.F) {
	whole := []byte(rowOf(f, itemVals...))
	f.Add(whole)
	f.Add(whole[:len(whole)-1])                                            // short row
	f.Add(append(bytes.Clone(whole), whole[2:]...))                        // long row: a second helping of columns
	f.Add([]byte(rowOf(f, "a string where the schema says integer", "x"))) // fine here; the table refuses it
	f.Add(append([]byte{1, 0, 3}, 0xFF, 0, 0, 0, 'a'))                     // truncated string
	f.Add([]byte{2, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 6})                      // unknown tag
	f.Add([]byte{1, 0, 2, 0, 0, 0, 0, 0, 0, 0xF8, 0x7F})                   // NaN
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		od := wire.NewDecoder(b)
		var want []sql.Value
		for n := od.U16(); n > 0 && od.Err() == nil; n-- {
			want = append(want, sql.DecodeValue(od))
		}
		d := wire.NewDecoder(b)
		row := sql.DecodeRow(d)
		if (d.Err() == nil) != (od.Err() == nil) {
			t.Fatalf("DecodeRow: %v; a u16 and DecodeValues: %v", d.Err(), od.Err())
		}
		if d.Err() != nil {
			if row != "" {
				t.Fatalf("DecodeRow failed and returned %q", row)
			}
			return
		}
		if d.Len() != od.Len() || string(row) != string(b[:len(b)-d.Len()]) {
			t.Fatalf("DecodeRow took %q and left %d bytes; DecodeValues left %d", row, d.Len(), od.Len())
		}
		if row.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", row.Len(), len(want))
		}
		all := row.AppendDatums(nil)
		for i, w := range want {
			got := row.At(i)
			if got != all[i] {
				t.Fatalf("column %d: At = %v, AppendDatums = %v", i, got, all[i])
			}
			if gf, ok := got.Value().(float64); ok && math.IsNaN(gf) {
				if wf, ok := w.(float64); !ok || !math.IsNaN(wf) {
					t.Fatalf("column %d = NaN, want %v", i, w)
				}
			} else if got.Value() != w {
				t.Fatalf("column %d = %v, want %v", i, got.Value(), w)
			}
			if key := got.AppendKey(nil); !bytes.Equal(key, sql.EncodeKey(nil, w)) {
				t.Fatalf("column %d: key %x, EncodeKey %x", i, key, sql.EncodeKey(nil, w))
			}
			if s := string(got.AppendFormat(nil)); s != sql.FormatValue(w) {
				t.Fatalf("column %d: formats as %q, FormatValue %q", i, s, sql.FormatValue(w))
			}
			if got.Compare(got) != 0 || got.Equal(got) == got.IsNull() {
				t.Fatalf("column %d (%v): Compare with itself %d, Equal %v", i, w, got.Compare(got), got.Equal(got))
			}
		}
		if again := sql.AppendRow(nil, all); string(again) != string(row) {
			t.Fatalf("re-encoded %q, want %q", again, row)
		}
	})
}

var sinkDatum sql.Datum

// BenchmarkRowCol reads one column of a stored row: the first, one past the
// strings, and the last.
func BenchmarkRowCol(b *testing.B) {
	row := rowOf(b, itemVals...)
	for _, bc := range []struct {
		name string
		col  int
	}{{"first", 0}, {"middle", 4}, {"last", 11}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkDatum = row.At(bc.col)
			}
		})
	}
}
