package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"testing"
	"testing/iotest"
)

// countingWriter records each Write it receives.
type countingWriter struct {
	writes [][]byte
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestBufferWriteFrameIsOneWrite: the header and the payload leave
// together, the bytes are exactly WriteFrame's, and a Buffer whose payload
// was patched can be sent again.
func TestBufferWriteFrameIsOneWrite(t *testing.T) {
	e := NewBuffer(7).U32(0).Str("key").U64(99)
	var w countingWriter
	if err := e.WriteFrame(&w); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteFrame(&want, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 1 || !bytes.Equal(w.writes[0], want.Bytes()) {
		t.Fatalf("got %d writes %x, want one write %x", len(w.writes), w.writes, want.Bytes())
	}

	e.Bytes()[1] = 5 // what a request-ID patch does
	if err := e.WriteFrame(&w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bytes.NewReader(w.writes[1]))
	if err != nil || !bytes.Equal(got, e.Bytes()) {
		t.Fatalf("resent frame decodes to %x (%v), want %x", got, err, e.Bytes())
	}

	big := NewBuffer(1).Raw(make([]byte, MaxFrame))
	if err := big.WriteFrame(io.Discard); err != ErrFrameTooLarge {
		t.Fatalf("oversize WriteFrame: %v", err)
	}
}

// readAll decodes frames from next until it fails, returning the payloads
// and the error that ended the stream.
func readAll(next func() ([]byte, error)) ([][]byte, error) {
	var out [][]byte
	for {
		p, err := next()
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// sameDecode fails unless the FrameReader on r yields what ReadFrame yields
// on the plain stream: the same payloads and the same kind of final error.
func sameDecode(t *testing.T, stream []byte, r io.Reader, how string) {
	t.Helper()
	ref := bytes.NewReader(stream)
	want, wantErr := readAll(func() ([]byte, error) { return ReadFrame(ref) })
	fr := NewFrameReader(r)
	got, gotErr := readAll(fr.ReadFrame)
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames (then %v), want %d (then %v)", how, len(got), gotErr, len(want), wantErr)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: frame %d differs", how, i)
		}
	}
	for _, kind := range []error{io.EOF, io.ErrUnexpectedEOF, ErrFrameTooLarge} {
		if errors.Is(wantErr, kind) != errors.Is(gotErr, kind) {
			t.Fatalf("%s: stream ended with %v, want %v", how, gotErr, wantErr)
		}
	}
}

// testStream is several frames back to back: empty, tiny, buffer-sized
// neighbours, and one larger than the reader's buffer.
func testStream(t testing.TB) []byte {
	var buf bytes.Buffer
	for _, n := range []int{0, 1, 5, readBufSize - frameHeader, readBufSize, 3*readBufSize + 17, 2} {
		p := bytes.Repeat([]byte{byte(n)}, n)
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFrameReaderEveryBoundary cuts one stream in two at every offset, and
// also feeds it a byte at a time and all at once: the frames are the same.
func TestFrameReaderEveryBoundary(t *testing.T) {
	stream := testStream(t)
	sameDecode(t, stream, bytes.NewReader(stream), "coalesced")
	sameDecode(t, stream, iotest.OneByteReader(bytes.NewReader(stream)), "one byte at a time")
	for cut := 0; cut <= len(stream); cut++ {
		r := io.MultiReader(bytes.NewReader(stream[:cut]), bytes.NewReader(stream[cut:]))
		sameDecode(t, stream, r, "cut")
	}
	// Truncated anywhere, the reader reports what ReadFrame reports.
	for end := 0; end < len(stream); end += 97 {
		sameDecode(t, stream[:end], bytes.NewReader(stream[:end]), "truncated")
	}
	// Interrupted anywhere by a deadline, the reader has handed over every
	// frame that ended before it and is torn inside a payload; elsewhere it
	// reads on to the end of the stream.
	ref := bytes.NewReader(stream)
	want, _ := readAll(func() ([]byte, error) { return ReadFrame(ref) })
	for at := 0; at <= len(stream); at++ {
		fr := NewFrameReader(&timeoutAt{b: stream, at: at})
		got, err := readAll(fr.ReadFrame)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("deadline at %d: the stream ended with %v", at, err)
		}
		before, torn := 0, false
		for start := 0; start < len(stream); before++ {
			end := start + frameHeader + int(binary.BigEndian.Uint32(stream[start:]))
			if end > at {
				torn = at >= start+frameHeader
				break
			}
			start = end
		}
		if len(got) != before || fr.Torn() != torn {
			t.Fatalf("deadline at %d: %d frames and torn %v, want %d and %v", at, len(got), fr.Torn(), before, torn)
		}
		if torn {
			continue
		}
		rest, err := readAll(fr.ReadFrame)
		if got = append(got, rest...); err != io.EOF || len(got) != len(want) {
			t.Fatalf("deadline at %d: read on to %d frames, then %v; want %d, then EOF", at, len(got), err, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("deadline at %d: frame %d differs", at, i)
			}
		}
	}
}

// timeoutAt reads b, failing once with a deadline's error when it reaches
// offset at.
type timeoutAt struct {
	b        []byte
	off, at  int
	timedOut bool
}

func (r *timeoutAt) Read(p []byte) (int, error) {
	limit := len(r.b)
	if !r.timedOut {
		limit = r.at
		if r.off == limit {
			r.timedOut = true
			return 0, os.ErrDeadlineExceeded
		}
	}
	if r.off == len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:limit])
	r.off += n
	return n, nil
}

// TestFrameReaderCoalescedIsOneRead: frames that arrived together, header
// and payload alike, cost one Read of the connection between them.
func TestFrameReaderCoalescedIsOneRead(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := NewBuffer(byte(i)).Str("payload").WriteFrame(&buf); err != nil {
			t.Fatal(err)
		}
	}
	reads := 0
	fr := NewFrameReader(readerFunc(func(p []byte) (int, error) {
		reads++
		return buf.Read(p)
	}))
	for i := 0; i < 5; i++ {
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if reads != 1 {
		t.Fatalf("five coalesced frames took %d reads, want 1", reads)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// chunkReader returns at most chunk bytes per Read.
type chunkReader struct {
	r     io.Reader
	chunk int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.r.Read(p)
}

// FuzzFrameReader: however an arbitrary byte stream is cut into reads, the
// FrameReader decodes what ReadFrame decodes; oversized and truncated
// frames are errors, never panics.
func FuzzFrameReader(f *testing.F) {
	f.Add(testStream(f), uint16(1))
	f.Add(testStream(f), uint16(4099))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint16(2)) // absurd length prefix
	f.Add([]byte{0, 0, 0, 10, 's', 'h', 'r', 't'}, uint16(3))
	f.Add([]byte{0, 0}, uint16(1))
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint16) {
		sameDecode(t, stream, bytes.NewReader(stream), "coalesced")
		sameDecode(t, stream, chunkReader{bytes.NewReader(stream), int(chunk)%8192 + 1}, "chunked")
		if len(stream) > 0 {
			cut := int(chunk) % len(stream)
			sameDecode(t, stream, io.MultiReader(bytes.NewReader(stream[:cut]), bytes.NewReader(stream[cut:])), "cut")
		}
	})
}
