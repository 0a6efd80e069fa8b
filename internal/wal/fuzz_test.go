package wal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWALFrame drives the frame codec with arbitrary bytes in both
// directions: any payload must round-trip bit-identically, and any byte
// soup fed to the decoder must either yield frames that re-encode to
// the exact same bytes or fail with one of the typed errors — never
// panic, never mis-size.
func FuzzWALFrame(f *testing.F) {
	f.Add([]byte("job record payload"))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(AppendFrame(nil, []byte("a valid frame as raw input")))
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	corrupt := AppendFrame(nil, []byte("to be bit flipped"))
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data as a payload round-trips.
		frame := AppendFrame(nil, data)
		got, rest, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("own frame does not decode: %v", err)
		}
		if !bytes.Equal(got, data) || len(rest) != 0 {
			t.Fatalf("round trip mutated payload (%d -> %d bytes, %d rest)", len(data), len(got), len(rest))
		}

		// Direction 2: data as a raw log prefix never panics and every
		// decoded frame verifies against a re-encode.
		rest = data
		for len(rest) > 0 {
			payload, r, err := DecodeFrame(rest)
			if err != nil {
				if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("untyped decode error: %v", err)
				}
				break
			}
			reenc := AppendFrame(nil, payload)
			if !bytes.Equal(reenc, rest[:len(rest)-len(r)]) {
				t.Fatal("decoded frame does not re-encode to its input bytes")
			}
			rest = r
		}

		// A single flipped bit anywhere in a valid frame must be caught.
		if len(data) > 0 && len(data) < 512 {
			mut := append([]byte(nil), frame...)
			i := int(data[0]) % len(mut)
			mut[i] ^= 1 << (data[0] % 8)
			if _, _, err := DecodeFrame(mut); err == nil {
				t.Fatalf("bit flip at %d survived decode", i)
			}
		}
	})
}
