// Package bitpack implements the PACK[b]/UNPACK[b] routines from Section 3.1
// of "Super-Scalar RAM-CPU Cache Compression": the transformation between
// arrays of machine-addressable integers and b-bit-wide code patterns.
//
// The hot path uses loop-unrolled kernels that process 32 values per call
// (see unrolled.go, generated by cmd/genbitpack). Arbitrary lengths are
// handled by padding the final partial group through a stack buffer, so no
// heap allocation happens on either path.
//
//go:generate sh -c "go run ../../cmd/genbitpack > unrolled.go"
package bitpack

import "fmt"

// MaxBits is the widest supported code. Codes in the paper vary 1..24 bits;
// we support the full word for generality.
const MaxBits = 32

// WordCount returns the number of 32-bit words needed to hold n values of
// b bits each.
func WordCount(n int, b uint) int {
	if b > MaxBits {
		panic(fmt.Sprintf("bitpack: width %d out of range", b))
	}
	return (n*int(b) + 31) / 32
}

// Pack packs the low b bits of each value in src into dst and returns the
// number of words written. dst must have at least WordCount(len(src), b)
// words. Values wider than b bits are silently truncated; callers that need
// exceptions must detect them before packing (as the PFOR compressor does).
func Pack(dst, src []uint32, b uint) int {
	if b > MaxBits {
		panic(fmt.Sprintf("bitpack: width %d out of range", b))
	}
	words := WordCount(len(src), b)
	if len(dst) < words {
		panic("bitpack: dst too small")
	}
	if b == 0 {
		return 0
	}
	mask := maskFor(b)
	pk := pack32[b]
	// The kernels want codes of at most b bits. A group that already is
	// (every caller that detects exceptions first) is packed in place;
	// staging masked copies costs a heap buffer, because the kernel call
	// is indirect, so it is paid only by callers relying on truncation.
	var staged *[32]uint32
	n := len(src)
	i, w := 0, 0
	for ; i+32 <= n; i, w = i+32, w+int(b) {
		group := (*[32]uint32)(src[i : i+32])
		var a0, a1, a2, a3 uint32
		for k := 0; k < 32; k += 4 {
			a0, a1, a2, a3 = a0|group[k], a1|group[k+1], a2|group[k+2], a3|group[k+3]
		}
		if (a0|a1|a2|a3)&^mask != 0 {
			if staged == nil {
				staged = new([32]uint32)
			}
			for k, v := range group {
				staged[k] = v & mask
			}
			group = staged
		}
		pk(dst[w:], group)
	}
	if i < n {
		// Partial tail: fewer than 32 codes remain and end on no group
		// boundary, so the scalar path packs them.
		PackGeneric(dst[w:words], src[i:], b)
	}
	return words
}

// Unpack expands len(dst) b-bit values from src into dst. src must hold at
// least WordCount(len(dst), b) words.
func Unpack(dst, src []uint32, b uint) {
	if b > MaxBits {
		panic(fmt.Sprintf("bitpack: width %d out of range", b))
	}
	n := len(dst)
	words := WordCount(n, b)
	if len(src) < words {
		panic("bitpack: src too small")
	}
	if b == 0 {
		clear(dst)
		return
	}
	up := unpack32[b]
	i, w := 0, 0
	for ; i+32 <= n; i, w = i+32, w+int(b) {
		up((*[32]uint32)(dst[i:i+32]), src[w:])
	}
	// Partial tail: fewer than 32 codes remain, starting on the word
	// boundary src[w], so the scalar path extracts them in place. (Staging
	// through a kernel-sized buffer would make the buffer escape — the
	// kernel call is indirect — costing a heap allocation on every Unpack
	// even when no tail exists.)
	if i < n {
		UnpackGeneric(dst[i:], src[w:], b)
	}
}

// PackGeneric is a straightforward shift-based reference implementation used
// to cross-check the generated kernels in tests. Semantics match Pack.
func PackGeneric(dst, src []uint32, b uint) int {
	if b > MaxBits {
		panic(fmt.Sprintf("bitpack: width %d out of range", b))
	}
	words := WordCount(len(src), b)
	if len(dst) < words {
		panic("bitpack: dst too small")
	}
	clear(dst[:words])
	if b == 0 {
		return 0
	}
	mask := maskFor(b)
	for i, v := range src {
		v &= mask
		bitPos := i * int(b)
		word, shift := bitPos/32, uint(bitPos%32)
		dst[word] |= v << shift
		if shift+b > 32 {
			dst[word+1] |= v >> (32 - shift)
		}
	}
	return words
}

// UnpackGeneric is the reference counterpart of Unpack.
func UnpackGeneric(dst, src []uint32, b uint) {
	if b > MaxBits {
		panic(fmt.Sprintf("bitpack: width %d out of range", b))
	}
	if b == 0 {
		clear(dst)
		return
	}
	mask := maskFor(b)
	for i := range dst {
		bitPos := i * int(b)
		word, shift := bitPos/32, uint(bitPos%32)
		v := src[word] >> shift
		if shift+b > 32 {
			v |= src[word+1] << (32 - shift)
		}
		dst[i] = v & mask
	}
}

func maskFor(b uint) uint32 {
	if b >= 32 {
		return ^uint32(0)
	}
	return 1<<b - 1
}

// inRange reports whether v lies in the unsigned code range [lo, lo+span]
// as a 0/1 integer. The subtraction wraps, so a single compare covers both
// bounds; inlined into the select kernels it compiles to a flag set, not a
// branch — the mask accumulation stays a data dependency.
func inRange(v, lo, span uint32) int {
	if v-lo <= span {
		return 1
	}
	return 0
}

// SelectMask scans 32*len(dst) b-bit codes directly in their packed form
// against the unsigned code range [lo, lo+span] and writes one match mask
// per 32-code group into dst: bit i of dst[g] is set iff code g*32+i
// matches. src must hold the packed words (Pack's layout); b must be
// <= MaxBits. The kernels never materialize a value and store only one
// word per 32 codes — callers then visit just the set bits, which is where
// the bandwidth of a selective scan goes.
func SelectMask(dst, src []uint32, b uint, lo, span uint32) {
	if b > MaxBits {
		panic(fmt.Sprintf("bitpack: width %d out of range", b))
	}
	if len(src) < len(dst)*int(b) {
		panic("bitpack: src too small")
	}
	selmask32[b](dst, src, lo, span)
}

// RefineMask intersects dst with the match masks of 32*len(dst) packed
// b-bit codes against the unsigned code range [lo, lo+span]: bit i of
// dst[g] survives iff it was set and code g*32+i matches. This is the
// conjunctive step of a multi-predicate scan — the first predicate's
// SelectMask output is narrowed by each further predicate without ever
// materializing a value. Groups whose incoming mask is already zero are
// skipped before any code is extracted, so work shrinks with the running
// selectivity.
func RefineMask(dst, src []uint32, b uint, lo, span uint32) {
	if b > MaxBits {
		panic(fmt.Sprintf("bitpack: width %d out of range", b))
	}
	if len(src) < len(dst)*int(b) {
		panic("bitpack: src too small")
	}
	refmask32[b](dst, src, lo, span)
}

// RefineMaskTail is the scalar counterpart of RefineMask for a final
// partial group: it returns m intersected with the match mask of the first
// n (<= 32) b-bit codes of src, which must start on a word boundary. An
// already-empty m short-circuits without touching src, once the width and
// the count have passed the same checks as SelectMaskTail's.
func RefineMaskTail(src []uint32, n int, b uint, lo, span uint32, m uint32) uint32 {
	checkTail(n, b)
	if m == 0 {
		return 0
	}
	return m & SelectMaskTail(src, n, b, lo, span)
}

// checkTail panics on the misuses of the tail kernels: a width past
// MaxBits or a partial group of more than 32 codes.
func checkTail(n int, b uint) {
	if b > MaxBits {
		panic(fmt.Sprintf("bitpack: width %d out of range", b))
	}
	if n > 32 {
		panic(fmt.Sprintf("bitpack: group of %d codes", n))
	}
}

// SelectMaskTail is the scalar counterpart of SelectMask for a final
// partial group: it scans the first n (<= 32) b-bit codes of src, which
// must start on a word boundary, and returns their match mask.
func SelectMaskTail(src []uint32, n int, b uint, lo, span uint32) uint32 {
	checkTail(n, b)
	mask := maskFor(b)
	var m uint32
	for i := 0; i < n; i++ {
		var v uint32
		if b > 0 {
			bitPos := i * int(b)
			word, shift := bitPos/32, uint(bitPos%32)
			v = src[word] >> shift
			if shift+b > 32 {
				v |= src[word+1] << (32 - shift)
			}
			v &= mask
		}
		m |= uint32(inRange(v, lo, span)) << i
	}
	return m
}

// CodeAt extracts the b-bit code at position x of a packed code section —
// the per-match decode step after a SelectMask scan, and each hop of a
// patch-list walk, where one call's result is the next call's position.
// The arithmetic is unsigned, so the word index and the shift are one
// instruction each on that chain.
func CodeAt(src []uint32, x int, b uint) uint32 {
	bitPos := uint(x) * b
	word, shift := bitPos/32, bitPos%32
	v := src[word] >> shift
	if shift+b > 32 {
		v |= src[word+1] << (32 - shift)
	}
	if b >= 32 {
		return v
	}
	return v & (1<<b - 1)
}

// swarRange restates the wrap-safe code range [lo, lo+span] of b-bit
// codes in the form the word-parallel kernels compare against: code c
// matches iff l <= c <= h, with l <= h <= the largest b-bit code, and the
// whole mask is inverted when flip is all ones. A range that does not
// wrap but starts past every code matches nothing (the inverse of all
// codes). One that wraps past 2^32 at end = lo+span matches [0, end] and
// [lo, max]: all codes when end reaches max or the span is the whole
// uint32 domain, else the complement of [end+1, lo-1].
func swarRange(lo, span uint32, b uint) (l, h, flip uint32) {
	maxc := maskFor(b)
	end := lo + span
	switch {
	case end >= lo && lo <= maxc:
		return lo, min(end, maxc), 0
	case end >= lo:
		return 0, maxc, ^uint32(0)
	case end >= maxc || end+1 == lo:
		return 0, maxc, 0
	}
	return end + 1, min(lo-1, maxc), ^uint32(0)
}
