package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want EOF after last frame, got %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("WriteFrame oversize: %v", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err != ErrFrameTooLarge {
		t.Fatalf("ReadFrame oversize: %v", err)
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(10))
	buf.WriteString("shrt")
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("want error on truncated body")
	}
}

func TestBufferDecoderRoundTrip(t *testing.T) {
	e := NewBuffer(0x42).
		U8(7).Bool(true).Bool(false).
		U32(12345).U64(math.MaxUint64).I64(-99).
		Str("héllo").Blob([]byte{0, 1, 2}).Str("")
	d := NewDecoder(e.Bytes())
	if op := d.U8(); op != 0x42 {
		t.Fatalf("op = %#x", op)
	}
	if v := d.U8(); v != 7 {
		t.Fatalf("u8 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool round trip failed")
	}
	if v := d.U32(); v != 12345 {
		t.Fatalf("u32 = %d", v)
	}
	if v := d.U64(); v != math.MaxUint64 {
		t.Fatalf("u64 = %d", v)
	}
	if v := d.I64(); v != -99 {
		t.Fatalf("i64 = %d", v)
	}
	if v := d.Str(); v != "héllo" {
		t.Fatalf("str = %q", v)
	}
	if v := d.Blob(); !bytes.Equal(v, []byte{0, 1, 2}) {
		t.Fatalf("blob = %v", v)
	}
	if v := d.Str(); v != "" {
		t.Fatalf("empty str = %q", v)
	}
	if d.Err() != nil {
		t.Fatalf("unexpected decode error: %v", d.Err())
	}
	// Reading past the end sets the error and returns zero values.
	if v := d.U64(); v != 0 || d.Err() != ErrTruncated {
		t.Fatalf("overread: v=%d err=%v", v, d.Err())
	}
}

func TestDecoderTruncatedBlob(t *testing.T) {
	e := NewBuffer(1)
	e.b = binary.LittleEndian.AppendUint32(e.b, 100) // claims 100 bytes
	e.b = append(e.b, 1, 2, 3)
	d := NewDecoder(e.Bytes())
	d.U8()
	if b := d.Blob(); b != nil || d.Err() == nil {
		t.Fatalf("truncated blob: %v, err %v", b, d.Err())
	}
}

// TestDecoderBoundedReads covers the reads the WAL, the snapshot and the
// cached-payload codec brought with them when they moved onto the Decoder:
// U16, Uvarint, Take, Count and Fail follow the same rule as the rest — a
// slip poisons every later read.
func TestDecoderBoundedReads(t *testing.T) {
	b := AppendStr([]byte{0x34, 0x12, 0xAC, 0x02}, "tail") // u16 0x1234, uvarint 300, "tail"
	d := NewDecoder(b)
	if v := d.U16(); v != 0x1234 {
		t.Fatalf("U16 = %#x", v)
	}
	if v := d.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if s := d.Str(); s != "tail" || d.Len() != 0 || d.Err() != nil {
		t.Fatalf("Str = %q, %d left, err %v", s, d.Len(), d.Err())
	}

	// A count is good while the bytes after it can hold that many items.
	d = NewDecoder(NewBuffer(2).U32(2).U64(1).U64(2).Bytes()[1:])
	if n := d.Count(8); n != 2 || d.Err() != nil || d.Len() != 16 {
		t.Fatalf("Count(8) of two u64s = %d, %d left, err %v", n, d.Len(), d.Err())
	}

	for name, slip := range map[string]func(d *Decoder){
		"Count past the end": func(d *Decoder) { d.Count(1) },
		"short U16":          func(d *Decoder) { d.Take(3); d.U16() },
		"unfinished varint":  func(d *Decoder) { d.Take(2); d.Uvarint() },
		"Take past the end":  func(d *Decoder) { d.Take(5) },
		"negative Take":      func(d *Decoder) { d.Take(-1) },
		"Fail":               func(d *Decoder) { d.Fail(io.ErrUnexpectedEOF) },
	} {
		d := NewDecoder([]byte{0x34, 0x12, 0xAC, 0x80})
		slip(d)
		if d.Err() == nil {
			t.Fatalf("%s: no error", name)
		}
		first := d.Err()
		d.Fail(ErrFrameTooLarge) // the first error stands
		if d.U8() != 0 || d.U16() != 0 || d.Uvarint() != 0 || d.Take(0) != nil || d.Err() != first {
			t.Fatalf("%s: reads after the slip are not all zero with the first error kept", name)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint64, b int64, s string, blob []byte, flag bool) bool {
		e := NewBuffer(9).U64(a).I64(b).Str(s).Blob(blob).Bool(flag)
		d := NewDecoder(e.Bytes())
		d.U8()
		return d.U64() == a && d.I64() == b && d.Str() == s &&
			bytes.Equal(d.Blob(), blob) && d.Bool() == flag && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
