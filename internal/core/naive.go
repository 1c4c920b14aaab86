package core

import (
	"fmt"

	"repro/internal/bitpack"
)

// This file implements the NAIVE escape-code scheme the paper benchmarks
// against in Figure 4: exceptions are marked with a reserved code
// (MAXCODE), and decompression tests for it with an if-then-else on every
// value. The branch is unpredictable at intermediate exception rates, which
// is exactly what the patched schemes eliminate.

// NaiveBlock is a block compressed with the NAIVE escape-code layout. The
// codable range shrinks by one (the escape value), and no patch lists or
// entry points exist — which also means NaiveBlock supports no fine-grained
// access and no compulsory-exception machinery.
type NaiveBlock[T Integer] struct {
	Scheme Scheme // SchemePFOR or SchemePDict (decode rule)
	B      uint
	N      int
	Base   T
	Dict   []T
	Codes  []uint32
	Exc    []T
}

// CompressNaive compresses src with frame-of-reference coding and escape
// codes.
func CompressNaive[T Integer](src []T, base T, b uint) *NaiveBlock[T] {
	checkWidth[T](b)
	checkLen(len(src))
	mask := typeMask[T]()
	escape := uint32(maxCode(b))
	maxc := maxCode(b) - 1 // escape value is reserved
	blk := &NaiveBlock[T]{Scheme: SchemePFOR, B: b, N: len(src), Base: base}
	codes := make([]uint32, len(src))
	for i, v := range src {
		ud := uint64(v-base) & mask
		if v < base || ud > maxc {
			codes[i] = escape
			blk.Exc = append(blk.Exc, v)
		} else {
			codes[i] = uint32(ud)
		}
	}
	blk.Codes = make([]uint32, bitpack.WordCount(len(src), b))
	bitpack.Pack(blk.Codes, codes, b)
	return blk
}

// CompressNaiveDict compresses src against dict with escape codes
// (the NAIVE counterpart of PDICT). dict may hold at most 1<<b - 1 values.
func CompressNaiveDict[T Integer](src []T, dict []T, b uint) *NaiveBlock[T] {
	checkWidth[T](b)
	checkLen(len(src))
	if len(dict) > (1<<b)-1 {
		panic("core: dictionary leaves no room for the escape code")
	}
	escape := uint32(maxCode(b))
	blk := &NaiveBlock[T]{Scheme: SchemePDict, B: b, N: len(src)}
	blk.Dict = make([]T, 1<<b)
	copy(blk.Dict, dict)
	var lk dictLookup[T]
	lk.build(dict)
	codes := make([]uint32, len(src))
	for i, v := range src {
		if code, ok := lk.find(v); ok {
			codes[i] = code
		} else {
			codes[i] = escape
			blk.Exc = append(blk.Exc, v)
		}
	}
	blk.Codes = make([]uint32, bitpack.WordCount(len(src), b))
	bitpack.Pack(blk.Codes, codes, b)
	return blk
}

// Decompress decodes the block with the NAIVE per-value branch:
//
//	if code[i] < MAXCODE { output[i] = DECODE(code[i]) }
//	else                 { output[i] = exception[j++]  }
//
// At exception rates near 50% this branch is unpredictable and Figure 4
// shows throughput collapsing on deeply pipelined CPUs.
func (blk *NaiveBlock[T]) Decompress(raw []uint32, dst []T) []T {
	if len(dst) < blk.N {
		panic(fmt.Sprintf("core: dst holds %d values, block has %d", len(dst), blk.N))
	}
	if len(raw) < blk.N {
		panic("core: raw scratch too small")
	}
	bitpack.Unpack(raw[:blk.N], blk.Codes, blk.B)
	escape := uint32(maxCode(blk.B))
	j := 0
	switch blk.Scheme {
	case SchemePFOR:
		base := blk.Base
		for i := 0; i < blk.N; i++ {
			if c := raw[i]; c < escape {
				dst[i] = base + T(c)
			} else {
				dst[i] = blk.Exc[j]
				j++
			}
		}
	case SchemePDict:
		dict := blk.Dict
		for i := 0; i < blk.N; i++ {
			if c := raw[i]; c < escape {
				dst[i] = dict[c]
			} else {
				dst[i] = blk.Exc[j]
				j++
			}
		}
	default:
		panic("core: naive decompress: bad scheme")
	}
	return dst[:blk.N]
}

// ExceptionCount returns the number of escaped values.
func (blk *NaiveBlock[T]) ExceptionCount() int { return len(blk.Exc) }
