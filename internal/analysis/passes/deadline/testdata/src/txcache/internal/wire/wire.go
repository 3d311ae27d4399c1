package wire

import "io"

// FrameReader mirrors the real one: it reads length-prefixed frames off a
// stream.
type FrameReader struct{ r io.Reader }

func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }
