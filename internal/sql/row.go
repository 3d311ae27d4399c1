package sql

import (
	"encoding/binary"
	"fmt"

	"txcache/internal/wire"
)

// Row is a stored row: [u16 n] and then its n columns, each as Datum.Append
// writes it. These are the bytes a WAL record and a snapshot section carry,
// so a row is encoded once, when a statement stages it, and is the same value
// in the write set, the log, the version store and a checkpoint; recovery
// slices it back out of the file. It is a string because a version is never
// overwritten (nothing can write through one), because a TEXT column comes
// back as a substring, and because a string boxes behind mvcc's `any` in 16
// bytes where a slice takes 32.
//
// A Row is trusted: AppendRow built it or DecodeRow checked it, and the
// accessors index it without a second look (a Row forged any other way can
// make them panic, never read past it).
type Row string

// AppendRow appends the row of cols to dst.
func AppendRow(dst []byte, cols []Datum) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(cols)))
	for _, d := range cols {
		dst = d.Append(dst)
	}
	return dst
}

// DecodeRow reads a row AppendRow wrote and returns its bytes, copied. It
// accepts what a u16 count and that many DecodeValues accept — bounds and
// tags are checked here, once, and nothing is boxed — and fails d otherwise.
// Whether the row fits a table (arity, column types) is the table's to say.
func DecodeRow(d *wire.Decoder) Row {
	walk := *d // find where the row ends on a copy, then take it whole
	for n := walk.U16(); n > 0 && walk.Err() == nil; n-- {
		switch tag := walk.U8(); tag {
		case valNil, valTrue, valFalse:
		case valInt, valFloat:
			walk.Take(8)
		case valString:
			walk.Blob()
		default:
			walk.Fail(fmt.Errorf("sql: unknown value tag %d", tag))
		}
	}
	if walk.Err() != nil {
		d.Fail(walk.Err())
		return ""
	}
	return Row(d.Take(d.Len() - walk.Len()))
}

// Len returns the row's column count.
func (r Row) Len() int { return int(r[0]) | int(r[1])<<8 }

// le32 and le64 read a little-endian integer at r[off:].
func (r Row) le32(off int) uint32 {
	_ = r[off+3]
	return uint32(r[off]) | uint32(r[off+1])<<8 | uint32(r[off+2])<<16 | uint32(r[off+3])<<24
}

func (r Row) le64(off int) uint64 {
	return uint64(r.le32(off)) | uint64(r.le32(off+4))<<32
}

// next returns where the column after the one at off starts. The branches
// follow the table's schema, the same in every row, so they predict well; a
// width table would put a second dependent load in every step.
func (r Row) next(off int) int {
	switch kind := r[off]; {
	case kind-valInt < 2: // valInt, valFloat (valNil wraps around)
		return off + 9
	case kind == valString:
		return off + 5 + int(r.le32(off+1))
	default:
		return off + 1
	}
}

// datum decodes the column at off.
func (r Row) datum(off int) Datum {
	switch kind := r[off]; kind {
	case valInt, valFloat:
		return Datum{kind: kind, bits: r.le64(off + 1)}
	case valString:
		return Datum{kind: kind, str: string(r[off+5 : r.next(off)])}
	default:
		return Datum{kind: kind}
	}
}

// At returns column i. It walks there by tag width: a row is a dozen columns
// at most, and an offset table a row would cost more than the walks save.
// An i past the row's last column panics (the walk runs off the end).
func (r Row) At(i int) Datum {
	off := 2
	for ; i > 0; i-- {
		off = r.next(off)
	}
	return r.datum(off)
}

// AppendDatums appends every column of r to dst, in order.
func (r Row) AppendDatums(dst []Datum) []Datum {
	off := 2
	for n := r.Len(); n > 0; n-- {
		dst = append(dst, r.datum(off))
		off = r.next(off)
	}
	return dst
}
