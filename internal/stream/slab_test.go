package stream

import (
	"bytes"
	"math"
	"testing"
)

// TestCheckpointSlabBulkMatchesPortable holds the bulk slab copy to the per-element
// path it replaces on little-endian hosts: the same bytes when encoding,
// the same bits when decoding, for every kind of float a ring or a sum can
// hold — NaNs with payloads, signed zeros, subnormals, infinities — at
// lengths 0, 1 and odd ones that end mid-word.
func TestCheckpointSlabBulkMatchesPortable(t *testing.T) {
	if !nativeLittleEndian {
		t.Skip("the bulk path runs on little-endian hosts only")
	}
	bits32 := []uint32{
		0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0xff800abc, // NaNs, quiet and signalling, with payloads
		0x80000000, 0x00000000, // -0, +0
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x7f800000, 0xff800000, // ±Inf
		0x3f800000, 0xbf000000, 0x3e99999a, 0x7f7fffff, // ordinary and largest finite
	}
	bits64 := []uint64{
		0x7ff8000000000000, 0x7ff8000000000001, 0xfff0dead0000beef, 0x7ff0000000000001,
		0x8000000000000000, 0,
		1, 0x800fffffffffffff, 0x0008000000000000,
		0x7ff0000000000000, 0xfff0000000000000,
		0x3ff0000000000000, 0xbfe0000000000000, 0x3fd3333333333333, 0x7fefffffffffffff,
	}
	// Deterministic filler beyond the listed values: every bit pattern is
	// fair game for a decoder, so draw from all of them.
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for _, n := range []int{0, 1, 3, 7, len(bits32), 1001} {
		v32 := make([]float32, n)
		v64 := make([]float64, n)
		for i := range v32 {
			b32, b64 := uint32(next()), next()
			if i < len(bits32) {
				b32 = bits32[i]
			}
			if i < len(bits64) {
				b64 = bits64[i]
			}
			v32[i], v64[i] = math.Float32frombits(b32), math.Float64frombits(b64)
		}

		bulk, portable := make([]byte, 4*n), make([]byte, 4*n)
		putF32s(bulk, v32, true)
		putF32s(portable, v32, false)
		if !bytes.Equal(bulk, portable) {
			t.Fatalf("n=%d: float32 encodings differ", n)
		}
		back, backPortable := make([]float32, n), make([]float32, n)
		getF32s(back, bulk, true)
		getF32s(backPortable, bulk, false)
		for i := range v32 {
			want := math.Float32bits(v32[i])
			if got, gotPortable := math.Float32bits(back[i]), math.Float32bits(backPortable[i]); got != want || gotPortable != want {
				t.Fatalf("n=%d, element %d: decoded %08x bulk, %08x portable, encoded %08x", n, i, got, gotPortable, want)
			}
		}

		bulk, portable = make([]byte, 8*n), make([]byte, 8*n)
		putF64s(bulk, v64, true)
		putF64s(portable, v64, false)
		if !bytes.Equal(bulk, portable) {
			t.Fatalf("n=%d: float64 encodings differ", n)
		}
		back64, backPortable64 := make([]float64, n), make([]float64, n)
		getF64s(back64, bulk, true)
		getF64s(backPortable64, bulk, false)
		for i := range v64 {
			want := math.Float64bits(v64[i])
			if got, gotPortable := math.Float64bits(back64[i]), math.Float64bits(backPortable64[i]); got != want || gotPortable != want {
				t.Fatalf("n=%d, element %d: decoded %016x bulk, %016x portable, encoded %016x", n, i, got, gotPortable, want)
			}
		}
	}
}
