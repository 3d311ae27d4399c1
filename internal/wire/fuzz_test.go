package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it must
// return the payload or an error, never panic, and a frame it accepts must
// round-trip back through WriteFrame.
func FuzzReadFrame(f *testing.F) {
	seed := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(nil))
	f.Add(seed([]byte("hello")))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length prefix
	f.Add([]byte{0, 0, 0, 10, 's', 'h', 'r', 't'})
	f.Fuzz(func(t *testing.T, stream []byte) {
		payload, err := ReadFrame(bytes.NewReader(stream))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("WriteFrame rejected accepted payload: %v", err)
		}
		again, err := ReadFrame(&buf)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("round trip changed payload: %v", err)
		}
	})
}

// FuzzDecoder drives every Decoder accessor over arbitrary payloads using
// the input's leading bytes as an op schedule: no input may panic, and once
// Err is set every subsequent read must return a zero value.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, NewBuffer(9).U64(7).Str("x").Blob([]byte{1}).Bytes())
	f.Add([]byte{5, 5, 5}, []byte{0xFF, 0xFF, 0xFF, 0x7F}) // blob length far past end
	// Counts: one that fits, one that does not at 9 bytes an item, one far past the end.
	f.Add([]byte{11, 107, 11}, []byte{2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 0})
	f.Add([]byte{7, 8, 9, 10}, []byte{1, 0, 0x85, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 9})
	f.Fuzz(func(t *testing.T, schedule, payload []byte) {
		d := NewDecoder(payload)
		for _, op := range schedule {
			hadErr := d.Err() != nil
			var zero bool
			switch op % 12 {
			case 0:
				zero = d.U8() == 0
			case 1:
				zero = !d.Bool()
			case 2:
				zero = d.U32() == 0
			case 3:
				zero = d.U64() == 0
			case 4:
				zero = d.I64() == 0
			case 5:
				zero = d.Blob() == nil
			case 6:
				zero = d.Str() == ""
			case 7:
				zero = d.U16() == 0
			case 8:
				zero = d.Uvarint() == 0
			case 9:
				// A length as a caller converts it from an unsigned prefix:
				// possibly negative, possibly past the end.
				zero = d.Take(int(int8(op))) == nil
			case 10:
				d.Fail(ErrFrameTooLarge)
				zero = d.Err() != nil
			case 11:
				// The item size as a handler passes it: a small constant.
				item := int(op)/12 + 1
				n := d.Count(item)
				zero = n == 0
				if n*item > d.Len() {
					t.Fatalf("Count(%d) = %d with %d bytes left", item, n, d.Len())
				}
			}
			if hadErr && !zero {
				t.Fatalf("op %d returned non-zero after error %v", op, d.Err())
			}
			if d.Len() > len(payload) {
				t.Fatalf("Len grew: %d > %d", d.Len(), len(payload))
			}
		}
	})
}
