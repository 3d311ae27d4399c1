// Package wire implements the framed binary protocol used between TxCache
// components: the application library, cache servers, the pincushion, and
// the database daemon.
//
// A frame is a 4-byte big-endian payload length followed by the payload.
// The first payload byte is a message opcode defined by each protocol; the
// rest is encoded with the Buffer/Decoder helpers here (little-endian fixed
// integers and length-prefixed byte strings).
//
// Frame I/O contract, shared by every endpoint of the three transports: a
// frame leaves in one Write (Buffer.WriteFrame — the Buffer reserves its
// header, so the encoded message is the frame) and arrives through a
// FrameReader, whose small per-connection buffer takes the header and the
// payload of a frame that came in one segment with one Read.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds a frame's payload so a corrupt length prefix cannot make
// a reader allocate unbounded memory. 64 MiB comfortably exceeds the largest
// cached value we expect.
const MaxFrame = 64 << 20

// ErrFrameTooLarge is returned when a frame exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrTruncated is returned when a decoder runs out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// WriteFrame writes one length-prefixed frame whose payload was built
// elsewhere, as two writes. Connection endpoints build their messages in a
// Buffer and send them with Buffer.WriteFrame, which is one.
func WriteFrame(w io.Writer, payload []byte) error { // kept for benchmark/ (ROADMAP 1)
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame with two reads of r; see
// FrameReader for connections.
func ReadFrame(r io.Reader) ([]byte, error) { // kept for benchmark/ (ROADMAP 1)
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: short frame body: %w", err)
	}
	return payload, nil
}

// readBufSize is a FrameReader's buffer: room for the header and payload of
// every request and of most replies, small enough that a connection's
// buffer does not show in the process's resident set.
const readBufSize = 4096

// FrameReader reads frames from one connection through a readBufSize
// buffer: a frame that arrived whole costs one Read of the connection, and
// frames that arrived together cost one between them. A payload larger than
// the buffer is read straight into its own slice.
type FrameReader struct {
	br   *bufio.Reader
	torn bool
}

// NewFrameReader returns a FrameReader on r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, readBufSize)}
}

// ReadFrame reads one frame; the payload is the caller's to keep. Errors
// are ReadFrame's: io.EOF only between frames, ErrFrameTooLarge before any
// allocation, a wrapped io.ErrUnexpectedEOF for a short body. A read that
// fails before the header is whole (a deadline, say) consumes nothing, and
// reading again resumes the stream; one that fails in the payload leaves
// the reader Torn.
func (fr *FrameReader) ReadFrame() ([]byte, error) { return fr.ReadFrameInto(nil) }

// ReadFrameInto is ReadFrame into buf's storage when it has room: a serve
// loop done with each request before it reads the next reads them all into
// one.
func (fr *FrameReader) ReadFrameInto(buf []byte) ([]byte, error) {
	hdr, err := fr.br.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	_, _ = fr.br.Discard(frameHeader) // cannot fail: Peek just buffered these bytes
	payload := buf[:0]
	if cap(payload) < int(n) {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		fr.torn = true
		return nil, fmt.Errorf("wire: short frame body: %w", err)
	}
	return payload, nil
}

// Torn reports whether a failed ReadFrame had consumed part of a frame: the
// stream is out of step, and nothing more can be read from it.
func (fr *FrameReader) Torn() bool { return fr.torn }

// frameHeader is the length prefix every Buffer reserves ahead of its
// payload.
const frameHeader = 4

// Buffer builds a message payload behind a reserved frame header, so that
// sending the message never copies it or writes the header on its own.
type Buffer struct {
	b     []byte // b[:frameHeader] is the header, stamped by WriteFrame
	small [64]byte
}

// NewBuffer returns a Buffer whose first payload byte is the opcode. A
// message that fits its first 64 bytes costs one allocation, not two.
func NewBuffer(op byte) *Buffer {
	e := new(Buffer)
	e.b = append(e.small[:frameHeader], op)
	return e
}

// Bytes returns the encoded payload.
func (e *Buffer) Bytes() []byte { return e.b[frameHeader:] }

// WriteFrame sends the message as one frame in a single Write. A Buffer may
// be sent again (a retry on another connection) or have fixed-width fields
// of Bytes patched between sends.
func (e *Buffer) WriteFrame(w io.Writer) error {
	n := len(e.b) - frameHeader
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(e.b, uint32(n))
	_, err := w.Write(e.b)
	return err
}

// Raw appends already-encoded bytes.
func (e *Buffer) Raw(v []byte) *Buffer { e.b = append(e.b, v...); return e }

// U8 appends a byte.
func (e *Buffer) U8(v byte) *Buffer { e.b = append(e.b, v); return e }

// Bool appends a boolean.
func (e *Buffer) Bool(v bool) *Buffer {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// U32 appends a fixed 32-bit integer.
func (e *Buffer) U32(v uint32) *Buffer {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
	return e
}

// U64 appends a fixed 64-bit integer.
func (e *Buffer) U64(v uint64) *Buffer {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
	return e
}

// I64 appends a signed 64-bit integer.
func (e *Buffer) I64(v int64) *Buffer { return e.U64(uint64(v)) }

// Blob appends a length-prefixed byte string.
func (e *Buffer) Blob(v []byte) *Buffer {
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(len(v)))
	e.b = append(e.b, v...)
	return e
}

// Str appends a length-prefixed string.
func (e *Buffer) Str(v string) *Buffer { e.b = AppendStr(e.b, v); return e }

// Append lets an append-style encoder (sql.AppendValue) write straight into
// the message.
func (e *Buffer) Append(f func(dst []byte) []byte) *Buffer { e.b = f(e.b); return e }

// AppendStr appends a length-prefixed string to dst: the one spelling of a
// string in frames, WAL records and snapshots, read back by Decoder.Str.
func AppendStr(dst []byte, v string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
	return append(dst, v...)
}

// Decoder reads a message payload produced by Buffer, or any other bytes in
// the same little-endian, length-prefixed style (WAL records, snapshot
// sections, cached payloads): it is the one place that checks a read
// against the bytes that remain. The first slip — a short read, or whatever
// the caller reports through Fail — poisons every later read, which then
// returns zero, so a caller decodes a whole message and checks Err once.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder wraps payload. The opcode (first byte) should already have been
// examined by the caller; pass the payload starting after it, or read it
// with U8.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unconsumed payload bytes.
func (d *Decoder) Len() int { return len(d.b) }

// Count consumes a 32-bit count of items that each occupy at least
// minItemBytes (>= 1) of what follows. A count the remaining bytes cannot
// hold is corrupt: it fails the Decoder and returns 0, so a caller sizes an
// allocation from the result without a check of its own.
func (d *Decoder) Count(minItemBytes int) int {
	n := d.U32()
	if uint64(n)*uint64(minItemBytes) > uint64(len(d.b)) {
		d.Fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// Fail records a decoding error the Decoder cannot see for itself — an
// unknown tag, a count that implies more bytes than remain — unless an
// earlier one is already recorded.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Take consumes the next n bytes. The returned slice aliases the payload
// buffer; it is nil when fewer than n remain (or n is negative, as a
// length converted from a corrupt unsigned prefix can be).
func (d *Decoder) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < n {
		d.err = ErrTruncated
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// U8 consumes one byte.
func (d *Decoder) U8() byte {
	v := d.Take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// U16 consumes a fixed 16-bit integer.
func (d *Decoder) U16() uint16 {
	v := d.Take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

// Bool consumes one boolean byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 consumes a fixed 32-bit integer.
func (d *Decoder) U32() uint32 {
	v := d.Take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

// U64 consumes a fixed 64-bit integer.
func (d *Decoder) U64() uint64 {
	v := d.Take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// I64 consumes a signed 64-bit integer.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Uvarint consumes a variable-length unsigned integer (encoding/binary's
// uvarint).
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Blob consumes a length-prefixed byte string. The returned slice aliases
// the payload buffer.
func (d *Decoder) Blob() []byte { return d.Take(int(d.U32())) }

// Str consumes a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Blob()) }
