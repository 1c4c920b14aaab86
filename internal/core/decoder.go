package core

import (
	"fmt"

	"repro/internal/bitpack"
)

// Decoder decompresses blocks while reusing its internal scratch buffer for
// the unpacked raw codes, so steady-state decompression performs no heap
// allocation. A Decoder is not safe for concurrent use; create one per
// goroutine.
type Decoder[T Integer] struct {
	raw []uint32
	// offs holds one group's exception offsets as Block.exceptions walks
	// them, for the kernels that patch group by group.
	offs [GroupSize]uint8
	// sel holds the compressed-domain selection scratch (select.go),
	// allocated on the first mask, refine, union or gather call.
	sel *selScratch[T]
}

// Decompress decodes all of blk into dst, which must hold blk.N values.
// It returns dst[:blk.N].
func (d *Decoder[T]) Decompress(blk *Block[T], dst []T) []T {
	if len(dst) < blk.N {
		panic(fmt.Sprintf("core: dst holds %d values, block has %d", len(dst), blk.N))
	}
	raw := d.scratch(blk.N)
	bitpack.Unpack(raw, blk.Codes, blk.B)
	switch blk.Scheme {
	case SchemePFOR:
		decompressPFOR(blk, raw, dst)
	case SchemePFORDelta:
		decompressPFORDelta(blk, raw, dst)
	case SchemePDict:
		decompressPDict(blk, raw, dst)
	default:
		panic("core: cannot decompress scheme " + blk.Scheme.String())
	}
	return dst[:blk.N]
}

// DecompressRange decodes values [lo,hi) of blk into dst — the vector-wise
// access pattern of the RAM-CPU cache architecture, where the execution
// engine pulls one CPU-cache-sized vector at a time. lo and hi must be
// multiples of GroupSize (or hi == blk.N); this matches ColumnBM's vector
// granularity.
func (d *Decoder[T]) DecompressRange(blk *Block[T], dst []T, lo, hi int) []T {
	if lo%GroupSize != 0 || (hi%GroupSize != 0 && hi != blk.N) || lo < 0 || hi > blk.N || lo > hi {
		panic(fmt.Sprintf("core: bad range [%d,%d) for block of %d", lo, hi, blk.N))
	}
	if len(dst) < hi-lo {
		panic("core: dst too small")
	}
	gLo, gHi := lo/GroupSize, (hi+GroupSize-1)/GroupSize
	raw := d.scratch(GroupSize)
	out := dst[:0]
	for g := gLo; g < gHi; g++ {
		n := d.decompressGroup(blk, g, raw, dst[len(out):])
		out = dst[:len(out)+n]
	}
	return out
}

// decompressGroup decodes group g into dst and returns the group length.
func (d *Decoder[T]) decompressGroup(blk *Block[T], g int, raw []uint32, dst []T) int {
	gStart := g * GroupSize
	gEnd := gStart + GroupSize
	if gEnd > blk.N {
		gEnd = blk.N
	}
	n := gEnd - gStart
	unpackGroup(blk, g, n, raw)

	switch blk.Scheme {
	case SchemePFOR:
		base := blk.Base
		out := dst[:n]
		for i, c := range raw[:n] {
			out[i] = base + T(c)
		}
	case SchemePDict:
		dict := blk.Dict
		out := dst[:n]
		for i, c := range raw[:n] {
			out[i] = dict[c]
		}
	case SchemePFORDelta:
		return d.decompressPFORDeltaGroup(blk, g, raw, dst)
	default:
		panic("core: cannot decompress scheme " + blk.Scheme.String())
	}
	blk.exceptions(g, GroupSize-1, raw, &d.offs, dst) // LOOP2
	return n
}

// unpackGroup unpacks the n codes of group g into raw (group-relative).
// Groups are 128 values and widths divide the 32-value kernel granularity,
// so a group always starts on a word boundary: offset = g*128*b/32 = 4*g*b.
func unpackGroup[T Integer](blk *Block[T], g, n int, raw []uint32) {
	word := 4 * g * int(blk.B)
	bitpack.Unpack(raw[:n], blk.Codes[word:], blk.B)
}

// Get returns the single value at position x without decompressing the
// block: the finegrained_decompress routine of Section 3.1. For PFOR and
// PDICT it walks at most one group's patch list, and only up to x (≈
// E'*128/2 hops on average); for PFOR-DELTA it decodes the enclosing
// 128-value group.
func (d *Decoder[T]) Get(blk *Block[T], x int) T {
	if x < 0 || x >= blk.N {
		panic(fmt.Sprintf("core: index %d out of range [0,%d)", x, blk.N))
	}
	g := x / GroupSize
	off := x % GroupSize

	if blk.Scheme == SchemePFORDelta {
		raw := d.scratch(GroupSize)
		gStart := g * GroupSize
		gEnd := min(gStart+GroupSize, blk.N)
		unpackGroup(blk, g, gEnd-gStart, raw)
		var vbuf [GroupSize]T
		d.decompressPFORDeltaGroup(blk, g, raw[:gEnd-gStart], vbuf[:])
		return vbuf[off]
	}

	offs, exc := blk.exceptions(g, off, nil, &d.offs, nil)
	for k, o := range offs {
		if int(o) >= off {
			if int(o) == off {
				return exc[k]
			}
			break
		}
	}
	c := d.codeAt(blk, x)
	switch blk.Scheme {
	case SchemePFOR:
		return blk.Base + T(c)
	case SchemePDict:
		return blk.Dict[c]
	}
	panic("core: cannot access scheme " + blk.Scheme.String())
}

// codeAt extracts the b-bit code at position x directly from the packed
// code section.
func (d *Decoder[T]) codeAt(blk *Block[T], x int) uint32 {
	return bitpack.CodeAt(blk.Codes, x, blk.B)
}

func (d *Decoder[T]) scratch(n int) []uint32 {
	if cap(d.raw) < n {
		d.raw = make([]uint32, n)
	}
	return d.raw[:n]
}

// Decompress is the convenience form of Decoder.Decompress for callers that
// do not reuse a decoder.
func Decompress[T Integer](blk *Block[T], dst []T) []T {
	var d Decoder[T]
	return d.Decompress(blk, dst)
}

// Get is the convenience form of Decoder.Get.
func Get[T Integer](blk *Block[T], x int) T {
	var d Decoder[T]
	return d.Get(blk, x)
}
