package core

// Compressed-domain predicate evaluation: range predicates are pushed below
// decompression. The value-domain range [lo, hi] is translated into the
// packed code domain once per block, and the generated bitpack select
// kernels then scan the code section directly, producing one 32-bit match
// mask per 32 codes — a MonetDB/X100-style selection vector in bitmap
// form. This file holds the code-range translation and the mask builders;
// maskselect.go composes them into DecompressMask / RefineMask / UnionMask
// and materializes the surviving rows (DecompressSelected), so values that
// fail the predicate are never decoded.
//
// Per scheme:
//
//   - PFOR: codes are unsigned offsets from Base, and the code-to-value
//     mapping is monotone over the codable window, so [lo, hi] becomes a
//     code range [clo, clo+span] (subtract the base, clamp to the window).
//     A range that misses the window entirely reduces the scan to a walk
//     of the patch lists.
//   - PDICT: the predicate is remapped into dictionary-code space once per
//     block. Every dictionary is ascending (the compressor sorts it, the
//     parser refuses any other), so a value range is one code range, found
//     by two binary searches, and the range kernels run as for PFOR.
//   - PFOR-DELTA: codes are differences, so a value predicate has no fixed
//     code image; each group falls back to a fused decode+compare over the
//     group's running sum (prefix-sum-aware: the per-group Totals keep the
//     decode self-contained).
//
// Exception slots carry bogus patch-list gap codes, so whatever bits the
// kernels computed for them are overwritten with the verdict on the
// exception's true value from the exception section.

import (
	"slices"
	"sort"

	"repro/internal/bitpack"
)

// selScratch is the block-level selection scratch. It lives in the Decoder
// so steady-state filtered scans allocate nothing.
type selScratch[T Integer] struct {
	mask []uint32     // one match bit per value, (N+31)/32 words
	vbuf [GroupSize]T // decoded group values (PFOR-DELTA fallback)
	fix  []int32      // selected exception slots of a refinement, pos<<1 | verdict
}

// pforCodeRange translates the value-domain range [lo, hi] (lo <= hi) into
// PFOR's code domain: the codes c with Base+T(c) in [lo, hi] are exactly
// [clo, clo+span] when ok, and none otherwise. Non-exception values never
// wrap past the base (the compressor classifies those as exceptions), so
// the mapping is monotone and exceptions are judged separately on their
// true values.
func pforCodeRange[T Integer](base T, b uint, lo, hi T) (clo, span uint32, ok bool) {
	if hi < base {
		return 0, 0, false
	}
	mask := typeMask[T]()
	maxc := maxCode(b)
	dhi := uint64(hi-base) & mask
	if dhi > maxc {
		dhi = maxc
	}
	var dlo uint64
	if lo > base {
		dlo = uint64(lo-base) & mask
	}
	if dlo > dhi {
		return 0, 0, false
	}
	return uint32(dlo), uint32(dhi - dlo), true
}

// groupBounds returns the half-open value range of group g.
func groupBounds[T Integer](blk *Block[T], g int) (start, end int) {
	start = g * GroupSize
	end = start + GroupSize
	if end > blk.N {
		end = blk.N
	}
	return start, end
}

// maskBuf sizes the scratch mask to cover n values and returns it.
func (s *selScratch[T]) maskBuf(n int) []uint32 {
	words := (n + 31) / 32
	if cap(s.mask) < words {
		s.mask = make([]uint32, words)
	}
	s.mask = s.mask[:words]
	return s.mask
}

// blockMasks runs the select kernels over the whole code section, filling
// mask — sized for blk.N — with one match bit per value (tail handled by
// the scalar path). When codable is false no code can match and the masks
// are cleared.
func (d *Decoder[T]) blockMasks(blk *Block[T], clo, span uint32, codable bool, mask []uint32) {
	if !codable {
		clear(mask)
		return
	}
	groups := blk.N / 32
	bitpack.SelectMask(mask[:groups], blk.Codes, blk.B, clo, span)
	if tail := blk.N % 32; tail > 0 {
		mask[groups] = bitpack.SelectMaskTail(blk.Codes[groups*int(blk.B):], tail, blk.B, clo, span)
	}
}

// codeRange translates the value-domain range [lo, hi] (lo <= hi) into the
// code domain of a PFOR or PDICT block: the codes that decode into the
// range are exactly [clo, clo+span] when ok, and none otherwise.
func codeRange[T Integer](blk *Block[T], lo, hi T) (clo, span uint32, ok bool) {
	if blk.Scheme == SchemePDict {
		return pdictCodeRange(blk.Dict[:blk.DictLen], lo, hi)
	}
	return pforCodeRange(blk.Base, blk.B, lo, hi)
}

// pdictCodeRange remaps [lo, hi] into the code space of dict, an ascending
// dictionary: two binary searches find the one code range. Codes >= len(dict)
// never match — they only occur as bogus gap codes on exception slots.
func pdictCodeRange[T Integer](dict []T, lo, hi T) (clo, span uint32, ok bool) {
	first, _ := slices.BinarySearch(dict, lo)
	// How many entries from first on are no greater than hi (searching for
	// hi+1 would wrap at the top of the type).
	rest := dict[first:]
	n := sort.Search(len(rest), func(i int) bool { return rest[i] > hi })
	if n == 0 {
		return 0, 0, false
	}
	return uint32(first), uint32(n - 1), true
}

// selectScratch lazily allocates the decoder's selection scratch; one
// allocation per Decoder lifetime keeps steady-state filtered scans
// allocation-free.
func (d *Decoder[T]) selectScratch() *selScratch[T] {
	if d.sel == nil {
		d.sel = new(selScratch[T])
	}
	return d.sel
}
