package ordenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestIntOrdering(t *testing.T) {
	vals := []int64{math.MinInt64, -1 << 40, -255, -1, 0, 1, 42, 1 << 40, math.MaxInt64}
	for i := 1; i < len(vals); i++ {
		a := AppendInt(nil, vals[i-1])
		b := AppendInt(nil, vals[i])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("encoding of %d should sort before %d", vals[i-1], vals[i])
		}
	}
}

func TestIntOrderingProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := AppendInt(nil, a), AppendInt(nil, b)
		switch {
		case a < b:
			return bytes.Compare(ea, eb) < 0
		case a > b:
			return bytes.Compare(ea, eb) > 0
		default:
			return bytes.Equal(ea, eb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatOrdering(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1.5, -math.SmallestNonzeroFloat64, 0, math.SmallestNonzeroFloat64, 1.5, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a := AppendFloat(nil, vals[i-1])
		b := AppendFloat(nil, vals[i])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("encoding of %g should sort before %g", vals[i-1], vals[i])
		}
	}
	// NaN sorts before everything, including -Inf.
	nan := AppendFloat(nil, math.NaN())
	if bytes.Compare(nan, AppendFloat(nil, math.Inf(-1))) >= 0 {
		t.Error("NaN should sort before -Inf")
	}
}

func TestStringOrdering(t *testing.T) {
	vals := []string{"", "\x00", "\x00\x00", "\x00a", "a", "a\x00", "a\x00b", "aa", "ab", "b"}
	for i := 1; i < len(vals); i++ {
		a := AppendString(nil, vals[i-1])
		b := AppendString(nil, vals[i])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("encoding of %q should sort before %q", vals[i-1], vals[i])
		}
	}
}

func TestStringOrderingProperty(t *testing.T) {
	f := func(a, b string) bool {
		ea, eb := AppendString(nil, a), AppendString(nil, b)
		return (strings.Compare(a, b) < 0) == (bytes.Compare(ea, eb) < 0) &&
			(a == b) == bytes.Equal(ea, eb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossTypeOrdering(t *testing.T) {
	null := AppendNull(nil)
	bf := AppendBool(nil, false)
	in := AppendInt(nil, math.MaxInt64)
	fl := AppendFloat(nil, math.Inf(-1))
	st := AppendString(nil, "")
	seq := [][]byte{null, bf, in, fl, st}
	names := []string{"null", "bool", "int", "float", "string"}
	for i := 1; i < len(seq); i++ {
		if bytes.Compare(seq[i-1], seq[i]) >= 0 {
			t.Errorf("%s should sort before %s", names[i-1], names[i])
		}
	}
}

func TestCompositeKeyOrdering(t *testing.T) {
	// ("a", 2) < ("a", 10) < ("b", 1): element boundaries must not leak.
	k1 := AppendInt(AppendString(nil, "a"), 2)
	k2 := AppendInt(AppendString(nil, "a"), 10)
	k3 := AppendInt(AppendString(nil, "b"), 1)
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Fatal("composite key ordering broken")
	}
	// Embedded NUL must not cause ("a\x00", "b") to collide with ("a", "\x00b").
	c1 := AppendString(AppendString(nil, "a\x00"), "b")
	c2 := AppendString(AppendString(nil, "a"), "\x00b")
	if bytes.Equal(c1, c2) {
		t.Fatal("composite keys with embedded NUL collide")
	}
}

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendNull(b)
	b = AppendBool(b, true)
	b = AppendInt(b, -12345)
	b = AppendFloat(b, 3.25)
	b = AppendString(b, "hello\x00world")

	want := []any{nil, true, int64(-12345), 3.25, "hello\x00world"}
	rest := b
	for i, w := range want {
		var v any
		var err error
		v, rest, err = DecodeNext(rest)
		if err != nil {
			t.Fatalf("decode element %d: %v", i, err)
		}
		if v != w {
			t.Fatalf("element %d: got %v, want %v", i, v, w)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes after decode: %v", rest)
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		var b []byte
		var want []any
		for i := 0; i < rng.Intn(6)+1; i++ {
			switch rng.Intn(4) {
			case 0:
				v := rng.Int63() - rng.Int63()
				b = AppendInt(b, v)
				want = append(want, v)
			case 1:
				v := rng.NormFloat64()
				b = AppendFloat(b, v)
				want = append(want, v)
			case 2:
				n := rng.Intn(10)
				buf := make([]byte, n)
				rng.Read(buf)
				b = AppendString(b, string(buf))
				want = append(want, string(buf))
			case 3:
				v := rng.Intn(2) == 0
				b = AppendBool(b, v)
				want = append(want, v)
			}
		}
		rest := b
		for i, w := range want {
			var v any
			var err error
			v, rest, err = DecodeNext(rest)
			if err != nil {
				t.Fatalf("trial %d element %d: %v", trial, i, err)
			}
			if v != w {
				t.Fatalf("trial %d element %d: got %v want %v", trial, i, v, w)
			}
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{},
		{tagBool},
		{tagInt, 1, 2},
		{tagFloat, 1},
		{tagString, 'a'},        // unterminated
		{tagString, 0x00},       // dangling escape
		{tagString, 0x00, 0x42}, // invalid escape
		{0x99},                  // unknown tag
	}
	for _, c := range cases {
		if _, _, err := DecodeNext(c); err == nil {
			t.Errorf("DecodeNext(%v) should fail", c)
		}
	}
}

var errCorrupt = errors.New("ordenc: corrupt encoding")

// DecodeNext decodes the first element of b and returns the value (nil,
// bool, int64, float64, or string) and the remaining bytes. Nothing outside
// these tests decodes a key — an index stores the row id beside it — so the
// decoder lives here, as the reference the encoders round-trip against.
func DecodeNext(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, errCorrupt
	}
	switch b[0] {
	case tagNull:
		return nil, b[1:], nil
	case tagBool:
		if len(b) < 2 {
			return nil, nil, errCorrupt
		}
		return b[1] != 0, b[2:], nil
	case tagInt:
		if len(b) < 9 {
			return nil, nil, errCorrupt
		}
		u := binary.BigEndian.Uint64(b[1:9]) ^ (1 << 63)
		return int64(u), b[9:], nil
	case tagFloat:
		if len(b) < 9 {
			return nil, nil, errCorrupt
		}
		bits := binary.BigEndian.Uint64(b[1:9])
		if bits == 0 {
			return math.NaN(), b[9:], nil
		}
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return math.Float64frombits(bits), b[9:], nil
	case tagString:
		var out []byte
		i := 1
		for {
			if i >= len(b) {
				return nil, nil, errCorrupt
			}
			c := b[i]
			if c != strEsc {
				out = append(out, c)
				i++
				continue
			}
			if i+1 >= len(b) {
				return nil, nil, errCorrupt
			}
			switch b[i+1] {
			case strTerm:
				return string(out), b[i+2:], nil
			case strPad:
				out = append(out, strEsc)
				i += 2
			default:
				return nil, nil, errCorrupt
			}
		}
	default:
		return nil, nil, fmt.Errorf("ordenc: unknown tag %#x", b[0])
	}
}
