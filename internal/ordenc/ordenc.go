// Package ordenc provides an order-preserving binary encoding for index key
// values: for any two keys a and b, bytes.Compare(Encode(a), Encode(b))
// matches the natural ordering of a and b. The encoding supports composite
// (multi-column) keys by concatenation, because every element encoding is
// self-delimiting.
//
// Ordering across types is by type tag: NULL < bool < int64 < float64 <
// string. Within a type, ordering is the natural one.
package ordenc

import (
	"encoding/binary"
	"math"
)

// Type tags. They sort NULL first, mirroring SQL's NULLS FIRST.
const (
	tagNull   byte = 0x00
	tagBool   byte = 0x01
	tagInt    byte = 0x02
	tagFloat  byte = 0x03
	tagString byte = 0x04
)

// String escape: 0x00 bytes are escaped as 0x00 0xFF, and the string is
// terminated by 0x00 0x00. This keeps prefix ordering correct and makes the
// element self-delimiting for composite keys.
const (
	strEsc  byte = 0x00
	strPad  byte = 0xFF
	strTerm byte = 0x00
)

// AppendNull appends the encoding of SQL NULL.
func AppendNull(dst []byte) []byte { return append(dst, tagNull) }

// AppendBool appends an order-preserving encoding of b (false < true).
func AppendBool(dst []byte, b bool) []byte {
	dst = append(dst, tagBool)
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendInt appends an order-preserving encoding of v.
func AppendInt(dst []byte, v int64) []byte {
	dst = append(dst, tagInt)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v)^(1<<63))
	return append(dst, buf[:]...)
}

// AppendFloat appends an order-preserving encoding of v. NaN sorts before
// -Inf (it is mapped to the smallest encoding) so that encoding is total.
func AppendFloat(dst []byte, v float64) []byte {
	dst = append(dst, tagFloat)
	bits := math.Float64bits(v)
	if math.IsNaN(v) {
		bits = 0 // smallest transformed value
	} else if bits&(1<<63) != 0 {
		bits = ^bits // negative: flip all bits
	} else {
		bits |= 1 << 63 // positive: set sign bit
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return append(dst, buf[:]...)
}

// AppendString appends an order-preserving, self-delimiting encoding of s.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, tagString)
	for i := 0; i < len(s); i++ {
		c := s[i]
		dst = append(dst, c)
		if c == strEsc {
			dst = append(dst, strPad)
		}
	}
	return append(dst, strEsc, strTerm)
}
