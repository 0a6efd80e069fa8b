package wal

import (
	"bytes"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 1<<16),
		{0x00},
	}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		got, r, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestFrameTruncated(t *testing.T) {
	frame := AppendFrame(nil, []byte("truncate me"))
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeFrame(frame[:cut]); !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("cut at %d: got %v, want ErrTruncatedFrame", cut, err)
		}
	}
}

func TestFrameBitFlipDetected(t *testing.T) {
	base := AppendFrame(nil, []byte("bit flips must not pass"))
	for i := 0; i < len(base); i++ {
		for bit := uint(0); bit < 8; bit++ {
			mut := append([]byte(nil), base...)
			mut[i] ^= 1 << bit
			_, _, err := DecodeFrame(mut)
			if err == nil {
				t.Fatalf("flip byte %d bit %d: frame still decoded", i, bit)
			}
		}
	}
}

func TestFrameZeroRegionRejected(t *testing.T) {
	// An all-zero tail (fresh blocks after a torn write) must never
	// decode as a valid frame; the CRC mask guarantees it.
	zeros := make([]byte, 64)
	if _, _, err := DecodeFrame(zeros); err == nil {
		t.Fatal("all-zero region decoded as a valid frame")
	}
}

func TestFrameHugeLengthRejected(t *testing.T) {
	b := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	if _, _, err := DecodeFrame(b); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}
