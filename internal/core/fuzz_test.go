package core

import "testing"

// FuzzDecodeCacheable feeds arbitrary bytes to the cached-payload decoder
// as every type TestCodecRoundTrip covers. A payload is another process's
// output — a cache node's memory, written by whatever build installed it —
// so malformed bytes must be a decode error (counted, recomputed), never a
// panic and never an allocation sized by a count the bytes cannot back.
func FuzzDecodeCacheable(f *testing.F) {
	cases := codecCases()
	for _, c := range cases {
		if c.payload == nil {
			continue
		}
		f.Add(c.payload)
		f.Add(c.payload[:len(c.payload)/2])
		// A count of 2^63 where the body starts, behind a valid header.
		f.Add(append(c.payload[:6:6], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F))
	}
	for _, p := range parentPayloads {
		f.Add([]byte(p))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range cases {
			if c.decode == nil {
				continue
			}
			// Every row's header carries its own fingerprint; stamp it so
			// the body, not just the header check, sees the input.
			if len(data) >= 6 && len(c.payload) >= 6 {
				stamped := append(append([]byte(nil), c.payload[:6]...), data[6:]...)
				_ = c.decode(stamped)
			}
			_ = c.decode(data)
		}
	})
}
