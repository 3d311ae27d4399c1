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

	"txcache/internal/ordenc"
	"txcache/internal/wire"
)

// Value is a SQL value: nil (NULL), int64, float64, string, or bool.
type Value any

// Compare orders two values: NULL < bool < int64/float64 < string, with
// numeric types compared numerically against each other. It returns
// -1, 0, or 1.
func Compare(a, b Value) int {
	ra, rb := rank(a), rank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch av := a.(type) {
	case nil:
		return 0
	case bool:
		bv := b.(bool)
		switch {
		case av == bv:
			return 0
		case !av:
			return -1
		default:
			return 1
		}
	case int64:
		return cmpFloat(float64(av), asFloat(b))
	case float64:
		return cmpFloat(av, asFloat(b))
	case string:
		bv := b.(string)
		switch {
		case av == bv:
			return 0
		case av < bv:
			return -1
		default:
			return 1
		}
	default:
		panic(fmt.Sprintf("sql: unsupported value type %T", a))
	}
}

func rank(v Value) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int64, float64:
		return 2
	case string:
		return 3
	default:
		panic(fmt.Sprintf("sql: unsupported value type %T", v))
	}
}

func asFloat(v Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	default:
		panic(fmt.Sprintf("sql: not numeric: %T", v))
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values compare equal. NULL never equals
// anything, including NULL (SQL three-valued logic collapsed to false).
func Equal(a, b Value) bool {
	if a == nil || b == nil {
		return false
	}
	return rank(a) == rank(b) && Compare(a, b) == 0
}

// FormatValue renders a value the way invalidation tags spell index keys,
// e.g. int64(7) -> "7", "alice" -> "alice".
func FormatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case bool:
		if x {
			return "true"
		}
		return "false"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	default:
		panic(fmt.Sprintf("sql: unsupported value type %T", v))
	}
}

// AppendFormat appends FormatValue's rendering of v to dst. It is the
// allocation-free form the executor uses to spell invalidation-tag keys
// into reusable scratch buffers.
func AppendFormat(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "NULL"...)
	case bool:
		if x {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case string:
		return append(dst, x...)
	default:
		panic(fmt.Sprintf("sql: unsupported value type %T", v))
	}
}

// EncodeKey appends the order-preserving encoding of v for index keys.
func EncodeKey(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return ordenc.AppendNull(dst)
	case bool:
		return ordenc.AppendBool(dst, x)
	case int64:
		return ordenc.AppendInt(dst, x)
	case float64:
		return ordenc.AppendFloat(dst, x)
	case string:
		return ordenc.AppendString(dst, x)
	default:
		panic(fmt.Sprintf("sql: unsupported value type %T", v))
	}
}

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
	switch x := v.(type) {
	case nil:
		return append(dst, valNil), nil
	case int64:
		return binary.LittleEndian.AppendUint64(append(dst, valInt), uint64(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(dst, valFloat), math.Float64bits(x)), nil
	case string:
		return wire.AppendStr(append(dst, valString), x), nil
	case bool:
		if x {
			return append(dst, valTrue), nil
		}
		return append(dst, valFalse), nil
	default:
		return dst, fmt.Errorf("sql: unsupported value type %T", v)
	}
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
