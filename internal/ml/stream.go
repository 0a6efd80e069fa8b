package ml

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
)

// SpillBytes is about how much of a serialized model WriteTo holds at a
// time: a model's encoder appends to one buffer and hands it to a spill
// function each time it holds at least this many bytes.
const SpillBytes = 64 << 10

// Spill returns spill(b) once b holds SpillBytes, and b otherwise. A nil
// spill never fires: the encoder of MarshalBinary fills one buffer.
func Spill(b []byte, spill func([]byte) []byte) []byte {
	if spill != nil && len(b) >= SpillBytes {
		return spill(b)
	}
	return b
}

// StreamTo writes to w what encode appends, through one buffer of about
// SpillBytes that encode hands to spill (by Spill) as it fills, and
// returns the bytes written and the first write error. After an error
// the rest is encoded and dropped.
func StreamTo(w io.Writer, encode func(b []byte, spill func([]byte) []byte) []byte) (int64, error) {
	var n int64
	var err error
	spill := func(b []byte) []byte {
		if err == nil {
			var m int
			m, err = w.Write(b)
			n += int64(m)
		}
		return b[:0]
	}
	spill(encode(make([]byte, 0, 2*SpillBytes), spill))
	return n, err
}

// AppendFloat32s appends the little-endian bits of v to b, growing b
// once: a model's matrix rows, written a word at a time without an
// append's capacity check per value.
func AppendFloat32s(b []byte, v []float32) []byte {
	n := len(b)
	b = slices.Grow(b, 4*len(v))[:n+4*len(v)]
	out := b[n:]
	for i, f := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(f))
	}
	return b
}
