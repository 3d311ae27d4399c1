// Package sql implements the SQL subset understood by the database
// substrate: a lexer, parser, and AST for SELECT (with joins, aggregates,
// ORDER BY, LIMIT), INSERT, UPDATE, DELETE, CREATE TABLE and CREATE INDEX,
// plus the dynamically-typed Value domain shared with the engine.
package sql

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"txcache/internal/ordenc"
	"txcache/internal/wire"
)

// Value is a SQL value: nil (NULL), int64, float64, string, or bool.
type Value any

// Datum is a Value without the box: what the engine computes with between
// the two places a Value crosses its API (a statement's arguments in, a
// Result's rows out). A column read off a Row is a Datum — its string a
// substring of the row, nothing copied, nothing allocated — and so is a bound
// argument, so a predicate, a sort, an index key and a tag are each spelled
// once, here. The zero Datum is NULL.
type Datum struct {
	kind byte   // the value's tag (valNil … valFalse)
	bits uint64 // valInt: the integer; valFloat: the IEEE-754 bits
	str  string // valString
}

// DatumOf unboxes v. A v outside the Value domain is an error: callers hand
// it values an application built.
func DatumOf(v Value) (Datum, error) {
	switch x := v.(type) {
	case nil:
		return Datum{}, nil
	case int64:
		return Datum{kind: valInt, bits: uint64(x)}, nil
	case float64:
		return Datum{kind: valFloat, bits: math.Float64bits(x)}, nil
	case string:
		return Datum{kind: valString, str: x}, nil
	case bool:
		if x {
			return Datum{kind: valTrue}, nil
		}
		return Datum{kind: valFalse}, nil
	default:
		return Datum{}, fmt.Errorf("sql: unsupported value type %T", v)
	}
}

// mustDatum is DatumOf for the Value-level helpers below, whose callers
// vouch for the domain.
func mustDatum(v Value) Datum {
	d, err := DatumOf(v)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// Value boxes d.
func (d Datum) Value() Value {
	switch d.kind {
	case valInt:
		return int64(d.bits)
	case valFloat:
		return math.Float64frombits(d.bits)
	case valString:
		return d.str
	case valTrue:
		return true
	case valFalse:
		return false
	default:
		return nil
	}
}

// IsNull reports whether d is NULL.
func (d Datum) IsNull() bool { return d.kind == valNil }

// Int and Float return d's number and whether d is of that kind.
func (d Datum) Int() (int64, bool)     { return int64(d.bits), d.kind == valInt }
func (d Datum) Float() (float64, bool) { return math.Float64frombits(d.bits), d.kind == valFloat }

// rankOf orders the kinds: NULL < bool < int64/float64 < string.
var rankOf = [...]int8{valNil: 0, valTrue: 1, valFalse: 1, valInt: 2, valFloat: 2, valString: 3}

// asFloat is a numeric datum as the float64 comparisons run on.
func (d Datum) asFloat() float64 {
	if d.kind == valInt {
		return float64(int64(d.bits))
	}
	return math.Float64frombits(d.bits)
}

// Compare orders two datums: NULL < bool < int64/float64 < string, with
// numeric types compared numerically against each other. It returns
// -1, 0, or 1.
func (d Datum) Compare(o Datum) int {
	switch ra, rb := rankOf[d.kind], rankOf[o.kind]; {
	case ra < rb:
		return -1
	case ra > rb:
		return 1
	}
	switch d.kind {
	case valInt, valFloat:
		a, b := d.asFloat(), o.asFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case valString:
		return strings.Compare(d.str, o.str)
	default: // NULLs are equal; false < true, and valTrue < valFalse
		return int(o.kind) - int(d.kind)
	}
}

// Equal reports whether two datums compare equal. NULL never equals
// anything, including NULL (SQL three-valued logic collapsed to false).
func (d Datum) Equal(o Datum) bool {
	return d.kind != valNil && o.kind != valNil && rankOf[d.kind] == rankOf[o.kind] && d.Compare(o) == 0
}

// AppendFormat appends d the way invalidation tags spell index keys, e.g.
// int64(7) -> "7", "alice" -> "alice".
func (d Datum) AppendFormat(dst []byte) []byte {
	switch d.kind {
	case valInt:
		return strconv.AppendInt(dst, int64(d.bits), 10)
	case valFloat:
		return strconv.AppendFloat(dst, math.Float64frombits(d.bits), 'g', -1, 64)
	case valString:
		return append(dst, d.str...)
	case valTrue:
		return append(dst, "true"...)
	case valFalse:
		return append(dst, "false"...)
	default:
		return append(dst, "NULL"...)
	}
}

// AppendKey appends the order-preserving encoding of d for index keys.
func (d Datum) AppendKey(dst []byte) []byte {
	switch d.kind {
	case valInt:
		return ordenc.AppendInt(dst, int64(d.bits))
	case valFloat:
		return ordenc.AppendFloat(dst, math.Float64frombits(d.bits))
	case valString:
		return ordenc.AppendString(dst, d.str)
	case valTrue, valFalse:
		return ordenc.AppendBool(dst, d.kind == valTrue)
	default:
		return ordenc.AppendNull(dst)
	}
}

// Append appends d's encoding (see the value tags below).
func (d Datum) Append(dst []byte) []byte {
	dst = append(dst, d.kind)
	switch d.kind {
	case valInt, valFloat:
		dst = binary.LittleEndian.AppendUint64(dst, d.bits)
	case valString:
		dst = wire.AppendStr(dst, d.str)
	}
	return dst
}

// Holds reports whether a column of type t stores d as it is: NULL, or a
// value of the column's own kind.
func (t ColType) Holds(d Datum) bool {
	switch d.kind {
	case valNil:
		return true
	case valInt:
		return t == TInt
	case valFloat:
		return t == TFloat
	case valString:
		return t == TString
	default:
		return t == TBool
	}
}

// Coerce returns d as a column of type t stores it — an integer widens into
// a DOUBLE column, so stored values have the schema type — and whether the
// column can hold it.
func (t ColType) Coerce(d Datum) (Datum, bool) {
	if t == TFloat && d.kind == valInt {
		d = Datum{kind: valFloat, bits: math.Float64bits(float64(int64(d.bits)))}
	}
	return d, t.Holds(d)
}

// Compare orders two values as Datum.Compare does.
func Compare(a, b Value) int { return mustDatum(a).Compare(mustDatum(b)) }

// Equal reports whether two values compare equal, as Datum.Equal does.
func Equal(a, b Value) bool { return mustDatum(a).Equal(mustDatum(b)) }

// FormatValue renders a value as Datum.AppendFormat does.
func FormatValue(v Value) string { return string(mustDatum(v).AppendFormat(nil)) }

// EncodeKey appends the order-preserving encoding of v for index keys.
func EncodeKey(dst []byte, v Value) []byte { return mustDatum(v).AppendKey(dst) }

// Value tags: the first byte of a value wherever one is written off an
// index key — WAL records, snapshots, dbnet frames, cached payloads. Data
// directories hold them, so a tag is never renumbered.
const (
	valNil    byte = 0
	valInt    byte = 1 // u64 LE
	valFloat  byte = 2 // IEEE-754 bits, u64 LE
	valString byte = 3 // u32 LE length, bytes
	valTrue   byte = 4
	valFalse  byte = 5
)

// AppendValue appends the encoding of v to dst. A v outside the Value
// domain is an error (dst comes back unchanged): callers hand it values an
// application built as well as rows the engine type-checked.
func AppendValue(dst []byte, v Value) ([]byte, error) {
	d, err := DatumOf(v)
	if err != nil {
		return dst, err
	}
	return d.Append(dst), nil
}

// DecodeValue reads one value written by AppendValue. An unknown tag fails
// d, like a short read does; the caller checks d.Err.
func DecodeValue(d *wire.Decoder) Value {
	switch tag := d.U8(); tag {
	case valNil:
		return nil
	case valInt:
		return d.I64()
	case valFloat:
		return math.Float64frombits(d.U64())
	case valString:
		return d.Str()
	case valTrue:
		return true
	case valFalse:
		return false
	default:
		d.Fail(fmt.Errorf("sql: unknown value tag %d", tag))
		return nil
	}
}
