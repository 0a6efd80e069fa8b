// Package wal is a dependency-free write-ahead log for the jobs data
// storage: length-prefixed CRC32C-framed records appended to numbered
// segment files, group-committed under a selectable fsync policy, and
// compacted through full-store snapshots written with the
// temp-file+rename+dir-fsync discipline. Recovery replays the newest
// valid snapshot plus every surviving segment in order, truncating torn
// tails and quarantining corrupted mid-log segments, so the in-memory
// store a crash interrupted can be rebuilt to exactly the acknowledged
// prefix (the paper's online loop assumes the Fugaku relational job
// store survives restarts; this package supplies that guarantee for the
// in-process substitute).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame layout: a fixed 8-byte header followed by the payload.
//
//	bytes 0..3  payload length, uint32 little-endian
//	bytes 4..7  CRC32C (Castagnoli) of the payload
//	bytes 8..   payload
//
// A corrupted length field is caught because the checksum then verifies
// against the wrong byte span; a corrupted payload is caught directly.
const (
	// FrameHeaderBytes is the fixed per-record framing overhead.
	FrameHeaderBytes = 8
	// MaxFramePayload bounds a single record; decode rejects larger
	// lengths outright so a flipped length bit cannot trigger a huge
	// allocation.
	MaxFramePayload = 16 << 20
)

// Typed decode failures. ErrTruncatedFrame means the buffer ends inside
// a frame (the torn-tail shape a crash produces); ErrChecksum means the
// bytes are all present but do not verify (bit rot or a flipped tail);
// ErrFrameTooLarge means the length field itself is implausible.
var (
	ErrTruncatedFrame = errors.New("wal: truncated frame")
	ErrChecksum       = errors.New("wal: frame checksum mismatch")
	ErrFrameTooLarge  = errors.New("wal: frame length exceeds maximum")
)

// castagnoli is the CRC32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcMask is XORed into every stored checksum so an all-zero region — the
// usual content of a torn tail over freshly allocated blocks — can never
// decode as a valid empty frame (CRC32C of an empty payload is 0).
const crcMask = 0xa282ead8

func frameCRC(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli) ^ crcMask
}

// AppendFrame encodes payload as one frame appended to dst and returns
// the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	hdr := frameHeader(payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// frameHeader returns the header that precedes payload in its frame.
func frameHeader(payload []byte) [FrameHeaderBytes]byte {
	var hdr [FrameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], frameCRC(payload))
	return hdr
}

// DecodeFrame reads one frame from the front of b, returning the payload
// (aliasing b, not copied) and the remaining bytes. All failures are one
// of the typed errors above; DecodeFrame never panics on arbitrary
// input.
func DecodeFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < FrameHeaderBytes {
		return nil, b, ErrTruncatedFrame
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > MaxFramePayload {
		return nil, b, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint64(len(b)-FrameHeaderBytes) < uint64(n) {
		return nil, b, ErrTruncatedFrame
	}
	payload = b[FrameHeaderBytes : FrameHeaderBytes+int(n)]
	if frameCRC(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, b, ErrChecksum
	}
	return payload, b[FrameHeaderBytes+int(n):], nil
}
