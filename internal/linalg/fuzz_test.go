package linalg

import (
	"encoding/binary"
	"math"
	"testing"
)

// The fuzz targets are differential: whatever bytes arrive, the exported
// kernel (the vector backend where there is one) and the Go reference
// must agree — exactly for the integer kernel, bit for bit (any NaN
// equal to any NaN) for the float ones. Vectors are cut at a fuzzed
// offset into their backing arrays so every alignment is reached.

func fuzzInt8s(b []byte) []int8 {
	v := make([]int8, len(b))
	for i, c := range b {
		v[i] = int8(c)
	}
	return v
}

// fuzzFloat32s reads little-endian float32 bit patterns, so the fuzzer
// can spell NaNs, infinities, denormals and negative zero directly.
func fuzzFloat32s(b []byte) []float32 {
	v := make([]float32, len(b)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

func float32Bytes(vs ...float32) []byte {
	b := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// floatSeeds are the checked-in starting points of the float targets:
// the special values next to ordinary ones, at lengths on both sides of
// the four-component step.
func floatSeeds() [][]byte {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	denorm, negZero := math.Float32frombits(1), float32(math.Copysign(0, -1))
	long := make([]float32, 2*385)
	for i := range long {
		long[i] = float32(i%97)/7 - 5
	}
	return [][]byte{
		nil,
		float32Bytes(1, 2),
		float32Bytes(1, -2, 3.5, 1e-3, 2, 2, -3.5, 1e3),
		float32Bytes(0, negZero, denorm, -denorm, 1, negZero, 0, denorm, denorm, 1),
		float32Bytes(inf, 1, 2, 3, 4, -inf, 1, 2, 3, 4),
		float32Bytes(nan, 1, inf, 3, 1, nan, inf, 3),
		float32Bytes(math.MaxFloat32, -math.MaxFloat32, 1, 1, -math.MaxFloat32, math.MaxFloat32, 1, 1),
		float32Bytes(long...),
	}
}

func FuzzSqDistInt8(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{127, 0x80}, uint8(0))
	f.Add([]byte("0123456789abcdef0123456789ABCDEF"), uint8(1))
	extreme := make([]byte, 2*385)
	for i := range extreme {
		extreme[i] = 127
		if i >= 385 {
			extreme[i] = 0x80
		}
	}
	f.Add(extreme, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		n := len(data) / 2
		o := int(off) % (n + 1)
		a, b := fuzzInt8s(data[:n])[o:], fuzzInt8s(data[n : 2*n])[o:]
		if got, want := SqDistInt8(a, b), sqDistInt8Generic(a, b); got != want {
			t.Fatalf("len %d offset %d: %d, reference %d", len(a), o, got, want)
		}
	})
}

// FuzzDotInt8Rows cuts the bytes into a query of dim values — each one
// byte as a code or, where wide is odd, two as any int16, which reaches
// the wrapping sums — and as many whole rows as the rest holds.
func FuzzDotInt8Rows(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{127, 0x80, 0x80, 127}, uint8(0), uint8(2), uint8(0))
	f.Add([]byte("0123456789abcdef0123456789ABCDEF0123456789abcdef+"), uint8(1), uint8(16), uint8(0))
	f.Add([]byte("0123456789abcdef0123456789ABCDEF0123456789abcdefgh"), uint8(0), uint8(8), uint8(1))
	extreme := make([]byte, 4*49+3)
	for i := range extreme {
		extreme[i] = 0x80
		if i%3 == 0 {
			extreme[i] = 127
		}
	}
	f.Add(extreme, uint8(3), uint8(49), uint8(0))
	f.Add(extreme, uint8(2), uint8(33), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, off, dim8, wide uint8) {
		o := int(off) % (len(data) + 1)
		data, codes := data[o:], fuzzInt8s(data)[o:]
		dim, width := int(dim8), 1+int(wide%2)
		if dim*width > len(data) {
			dim = len(data) / width
		}
		q := make([]int16, o%4+dim)[o%4:]
		for i := range q {
			if width == 2 {
				q[i] = int16(binary.LittleEndian.Uint16(data[2*i:]))
			} else {
				q[i] = int16(codes[i])
			}
		}
		var rows []int8 // a matrix of no columns has no codes
		if dim > 0 {
			rows = codes[dim*width:]
			rows = rows[:len(rows)/dim*dim]
		}
		checkDotRows(t, q, rows)
	})
}

func FuzzSqEuclidean(f *testing.F) {
	for i, s := range floatSeeds() {
		f.Add(s, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		v := fuzzFloat32s(data)
		n := len(v) / 2
		o := int(off) % (n + 1)
		a, b := v[:n][o:], v[n : 2*n][o:]
		got, want := SqEuclidean(a, b), sqEuclideanFrom(a, b, 0, 0)
		if !sameBits(got, want) {
			t.Fatalf("len %d offset %d: %x (%g), reference %x (%g)", len(a), o,
				math.Float64bits(got), got, math.Float64bits(want), want)
		}
	})
}

func FuzzSqEuclideanRows(f *testing.F) {
	dims := []uint8{0, 1, 4, 3, 5, 4, 2, 16} // one per seed: both sides of the four-component step
	for i, s := range floatSeeds() {
		f.Add(s, uint8(i), dims[i])
	}
	f.Fuzz(func(t *testing.T, data []byte, off, dim8 uint8) {
		v := fuzzFloat32s(data)
		v = v[int(off)%(len(v)+1):]
		dim := int(dim8)
		if dim > len(v) {
			dim = len(v)
		}
		q, rest := v[:dim], v[dim:]
		rows := 0
		if dim > 0 {
			rows = len(rest) / dim
		}
		mat, out := rest[:rows*dim], make([]float64, rows)
		SqEuclideanRows(q, mat, out)
		for r, got := range out {
			want := sqEuclideanFrom(q, mat[r*dim:(r+1)*dim], 0, 0)
			if !sameBits(got, want) {
				t.Fatalf("%dx%d row %d: %x (%g), reference %x (%g)", rows, dim, r,
					math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
	})
}

// FuzzSparseSqDistCols reads the bytes as float32 bit patterns: cols
// column norms, then the table, one row per coordinate, and the fuzzed
// nonzeros — coordinate i of the vector has the value of table entry
// (i, 0) and is listed where bit i of mask is set, so special values
// reach both the table and the vector.
func FuzzSparseSqDistCols(f *testing.F) {
	cols := []uint8{1, 16, 17, 3, 32, 49, 2, 48} // one per seed: both sides of the sixteen- and forty-eight-column steps
	for i, s := range floatSeeds() {
		f.Add(s, uint8(i), cols[i], uint64(0x5555_5555_5555_5555>>i))
	}
	f.Fuzz(func(t *testing.T, data []byte, off, cols8 uint8, mask uint64) {
		v := fuzzFloat32s(data)
		v = v[int(off)%(len(v)+1):]
		cols := int(cols8)
		if cols == 0 || cols > len(v) {
			return
		}
		norms := make([]float64, cols)
		for c := range norms {
			norms[c] = float64(v[c])
		}
		rows := (len(v) - cols) / cols
		table := make([]float64, rows*cols)
		for i := range table {
			table[i] = float64(v[cols+i])
		}
		var idx []int32
		var val []float64
		for i := 0; i < rows && i < 64; i++ {
			if mask>>i&1 != 0 {
				idx, val = append(idx, int32(i)), append(val, table[i*cols])
			}
		}
		checkSparseCols(t, norms, idx, val, table)
	})
}
