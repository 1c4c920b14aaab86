package core

// Compressed-domain predicate evaluation: range predicates are pushed below
// decompression. The value-domain range [lo, hi] is translated into the
// packed code domain once per block, and the generated bitpack select
// kernels then scan the code section directly, producing one 32-bit match
// mask per 32 codes — a MonetDB/X100-style selection vector in bitmap
// form. Only the set bits are ever visited afterwards, so values that fail
// the predicate are never materialized; that is where the bandwidth of a
// selective scan goes today.
//
// Per scheme:
//
//   - PFOR: codes are unsigned offsets from Base, and the code-to-value
//     mapping is monotone over the codable window, so [lo, hi] becomes a
//     code range [clo, clo+span] (subtract the base, clamp to the window).
//     A range that misses the window entirely reduces the scan to a walk
//     of the patch lists.
//   - PDICT: the predicate is remapped into dictionary-code space once per
//     block. An ascending dictionary — what the analyzer emits — maps a
//     value range to one code range and the range kernels run as for PFOR,
//     as they do whenever the matching codes happen to be contiguous;
//     otherwise a per-code bitmap is built and membership is tested
//     branch-free after unpacking.
//   - PFOR-DELTA: codes are differences, so a value predicate has no fixed
//     code image; each group falls back to a fused decode+compare over the
//     group's running sum (prefix-sum-aware: the per-group Totals keep the
//     decode self-contained).
//
// Exception slots carry bogus patch-list gap codes, so their mask bits are
// cleared and every exception is judged on its true value from the
// exception section; matching exceptions are merged back in position order
// while walking the masks.

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitpack"
)

// Aggregate summarizes the values of one block that fall inside a range.
// Sum is the two's-complement (wrapping) sum of int64(v); Min and Max are
// only meaningful when Count > 0.
type Aggregate[T Integer] struct {
	Count int
	Sum   int64
	Min   T
	Max   T
}

// add folds one matching value into the aggregate.
func (a *Aggregate[T]) add(v T) {
	if a.Count == 0 {
		a.Min, a.Max = v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Count++
	a.Sum += int64(v)
}

// Merge folds another aggregate (e.g. a different block's) into a.
func (a *Aggregate[T]) Merge(b Aggregate[T]) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		return
	}
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	a.Count += b.Count
	a.Sum += b.Sum
}

// selScratch is the block-level selection scratch. It lives in the Decoder
// so steady-state filtered scans allocate nothing.
type selScratch[T Integer] struct {
	mask []uint32         // one match bit per value, (N+31)/32 words
	epos [GroupSize]int32 // block-absolute positions of matching exceptions
	eval [GroupSize]T     // their true values, parallel to epos
	xpos [GroupSize]int32 // all exception positions of one group, in order
	vbuf [GroupSize]T     // decoded group values (PFOR-DELTA fallback)
	bm   []uint64         // PDICT code-match bitmap, 1<<B bits
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

// excPositions walks group g's patch list and writes the block-absolute
// position of every exception to out, returning the filled prefix. The
// gaps live in the code slots, so each hop extracts one packed code.
func (d *Decoder[T]) excPositions(blk *Block[T], g int, out *[GroupSize]int32) []int32 {
	es, ee := blk.groupExc(g)
	if es == ee {
		return out[:0]
	}
	pos := g*GroupSize + blk.patchStart(g)
	n := 0
	for k := es; k < ee; k++ {
		out[n] = int32(pos)
		n++
		pos += int(bitpack.CodeAt(blk.Codes, pos, blk.B)) + 1
	}
	return out[:n]
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

// fixExceptions resolves group g's exception slots against the match
// masks: the bogus gap codes have their mask bits cleared, and each
// exception is judged on its true value, filling s.epos/s.eval with the
// matches in position order.
func (d *Decoder[T]) fixExceptions(blk *Block[T], g int, lo, hi T, mask []uint32, s *selScratch[T]) (matched []int32) {
	all := d.excPositions(blk, g, &s.xpos)
	es, _ := blk.groupExc(g)
	n := 0
	for i, pos := range all {
		mask[pos>>5] &^= 1 << (uint(pos) & 31)
		ev := blk.Exc[es+i]
		if ev >= lo && ev <= hi {
			s.epos[n] = pos
			s.eval[n] = ev
			n++
		}
	}
	return s.epos[:n]
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

// bitmapMasks is blockMasks for a non-contiguous PDICT predicate: each
// group is unpacked and its codes tested against the per-code bitmap.
func (d *Decoder[T]) bitmapMasks(blk *Block[T], mask []uint32, s *selScratch[T]) {
	raw := d.scratch(GroupSize)
	bm := s.bm
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		n := gEnd - gStart
		unpackGroup(blk, g, n, raw)
		mw := mask[gStart>>5:]
		i := 0
		for ; i+32 <= n; i += 32 {
			var m uint32
			for j := 0; j < 32; j++ {
				c := raw[i+j]
				m |= uint32(bm[c>>6]>>(c&63)&1) << j
			}
			mw[i>>5] = m
		}
		if i < n {
			var m uint32
			for j := 0; i+j < n; j++ {
				c := raw[i+j]
				m |= uint32(bm[c>>6]>>(c&63)&1) << j
			}
			mw[i>>5] = m
		}
	}
}

// DecompressWhere appends the block-relative position and value of every
// element of blk inside the inclusive range [lo, hi] to sel and vals, in
// position order, and returns the extended slices. Non-matching values are
// never materialized; exception slots are judged on their true values. An
// inverted range (lo > hi) selects nothing.
func (d *Decoder[T]) DecompressWhere(blk *Block[T], lo, hi T, sel []int32, vals []T) ([]int32, []T) {
	if lo > hi || blk.N == 0 {
		return sel, vals
	}
	// Pre-size once and emit through indexed stores: per-match appends
	// would reload and spill two slice headers on every match, which at
	// moderate selectivities costs more than the compare kernels
	// themselves.
	k := len(sel)
	sel = slices.Grow(sel, blk.N)[:k+blk.N]
	vals = slices.Grow(vals, blk.N)[:k+blk.N]
	s := d.selectScratch()
	switch blk.Scheme {
	case SchemePFOR:
		clo, span, ok := pforCodeRange(blk.Base, blk.B, lo, hi)
		d.blockMasks(blk, clo, span, ok, s.maskBuf(blk.N))
		k = d.emitMatches(blk, lo, hi, sel, vals, k, s)
	case SchemePDict:
		clo, span, ok, contiguous := d.pdictCodeMatch(blk, lo, hi, s)
		if contiguous {
			d.blockMasks(blk, clo, span, ok, s.maskBuf(blk.N))
		} else {
			d.bitmapMasks(blk, s.maskBuf(blk.N), s)
		}
		k = d.emitMatches(blk, lo, hi, sel, vals, k, s)
	case SchemePFORDelta:
		k = d.selectPFORDelta(blk, lo, hi, sel, vals, k, s)
	default:
		panic("core: cannot select on scheme " + blk.Scheme.String())
	}
	return sel[:k], vals[:k]
}

// emitMatches converts the match masks into the (position, value) output
// streams starting at cursor k, fixing up exception groups along the way,
// and returns the advanced cursor. Groups whose mask words are all zero
// and that hold no exceptions are skipped wholesale.
func (d *Decoder[T]) emitMatches(blk *Block[T], lo, hi T, sel []int32, vals []T, k int, s *selScratch[T]) int {
	pdict := blk.Scheme == SchemePDict
	dict := blk.Dict
	base := blk.Base
	b := blk.B
	codes := blk.Codes
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		w0, w1 := gStart>>5, (gEnd+31)>>5
		es, ee := blk.groupExc(g)
		if es == ee {
			// No exceptions: the masks are final.
			for w := w0; w < w1; w++ {
				vb := int32(w << 5)
				for m := s.mask[w]; m != 0; m &= m - 1 {
					p := vb + int32(bits.TrailingZeros32(m))
					c := bitpack.CodeAt(codes, int(p), b)
					sel[k] = p
					if pdict {
						vals[k] = dict[c]
					} else {
						vals[k] = base + T(c)
					}
					k++
				}
			}
			continue
		}
		epos := d.fixExceptions(blk, g, lo, hi, s.mask, s)
		xi := 0
		for w := w0; w < w1; w++ {
			vb := int32(w << 5)
			for m := s.mask[w]; m != 0; m &= m - 1 {
				p := vb + int32(bits.TrailingZeros32(m))
				for xi < len(epos) && epos[xi] < p {
					sel[k], vals[k] = epos[xi], s.eval[xi]
					k++
					xi++
				}
				c := bitpack.CodeAt(codes, int(p), b)
				sel[k] = p
				if pdict {
					vals[k] = dict[c]
				} else {
					vals[k] = base + T(c)
				}
				k++
			}
		}
		for ; xi < len(epos); xi++ {
			sel[k], vals[k] = epos[xi], s.eval[xi]
			k++
		}
	}
	return k
}

// selectPFORDelta is the fused decode+compare fallback: deltas have no
// fixed code image of a value range, so each group is decoded through its
// running total and compared in place. The filter loop is predicated —
// every slot is written at the cursor, which only advances on a match —
// so selectivity costs no branch mispredictions.
func (d *Decoder[T]) selectPFORDelta(blk *Block[T], lo, hi T, sel []int32, vals []T, k int, s *selScratch[T]) int {
	raw := d.scratch(GroupSize)
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		n := gEnd - gStart
		unpackGroup(blk, g, n, raw)
		decompressPFORDeltaGroup(blk, g, raw, s.vbuf[:n])
		for i := 0; i < n; i++ {
			v := s.vbuf[i]
			sel[k] = int32(gStart + i)
			vals[k] = v
			k += b2i(v >= lo && v <= hi)
		}
	}
	return k
}

// pdictCodeMatch remaps [lo, hi] into dictionary-code space. When the
// matching codes form one contiguous range it returns (clo, span, ok,
// contiguous=true) so the packed range kernels apply — always the case for
// an ascending dictionary, where two binary searches find the range.
// Otherwise (a dictionary in frequency order from before PR 14, or one a
// caller supplied) it builds the per-code bitmap in s.bm (1<<B bits; codes
// >= DictLen never match — they only occur as bogus gap codes on exception
// slots) and returns contiguous=false. ok=false means no dictionary entry
// matches at all.
func (d *Decoder[T]) pdictCodeMatch(blk *Block[T], lo, hi T, s *selScratch[T]) (clo, span uint32, ok, contiguous bool) {
	dict := blk.Dict[:blk.DictLen]
	if blk.DictAscending {
		first, _ := slices.BinarySearch(dict, lo)
		// How many entries from first on are no greater than hi (searching
		// for hi+1 would wrap at the top of the type).
		rest := dict[first:]
		n := sort.Search(len(rest), func(i int) bool { return rest[i] > hi })
		if n == 0 {
			return 0, 0, false, true
		}
		return uint32(first), uint32(n - 1), true, true
	}
	first, last := -1, -1
	count := 0
	for c, v := range dict {
		if v >= lo && v <= hi {
			if first < 0 {
				first = c
			}
			last = c
			count++
		}
	}
	if count == 0 {
		return 0, 0, false, true
	}
	if last-first+1 == count {
		return uint32(first), uint32(last - first), true, true
	}
	words := (1<<blk.B + 63) / 64
	if cap(s.bm) < words {
		s.bm = make([]uint64, words)
	}
	s.bm = s.bm[:words]
	clear(s.bm)
	for c, v := range dict {
		if v >= lo && v <= hi {
			s.bm[c>>6] |= 1 << (uint(c) & 63)
		}
	}
	return 0, 0, true, false
}

// AggregateWhere computes Count, Sum, Min and Max over the values of blk
// inside [lo, hi] without materializing them. For PFOR the aggregate is
// derived from the matching codes alone (Count by mask popcount, Sum as
// Count*Base plus the code sum, Min/Max through the monotone code-to-value
// mapping) — codes are never widened to T; PDICT folds dictionary values
// per matching code; PFOR-DELTA falls back to the fused group decode.
// Exceptions are folded on their true values.
func (d *Decoder[T]) AggregateWhere(blk *Block[T], lo, hi T) Aggregate[T] {
	var agg Aggregate[T]
	if lo > hi || blk.N == 0 {
		return agg
	}
	s := d.selectScratch()
	switch blk.Scheme {
	case SchemePFOR:
		clo, span, ok := pforCodeRange(blk.Base, blk.B, lo, hi)
		d.blockMasks(blk, clo, span, ok, s.maskBuf(blk.N))
		d.aggregateMasks(blk, lo, hi, &agg, s)
	case SchemePDict:
		clo, span, ok, contiguous := d.pdictCodeMatch(blk, lo, hi, s)
		if contiguous {
			d.blockMasks(blk, clo, span, ok, s.maskBuf(blk.N))
		} else {
			d.bitmapMasks(blk, s.maskBuf(blk.N), s)
		}
		d.aggregateMasks(blk, lo, hi, &agg, s)
	case SchemePFORDelta:
		raw := d.scratch(GroupSize)
		numGroups := blk.NumGroups()
		for g := 0; g < numGroups; g++ {
			gStart, gEnd := groupBounds(blk, g)
			n := gEnd - gStart
			unpackGroup(blk, g, n, raw)
			decompressPFORDeltaGroup(blk, g, raw, s.vbuf[:n])
			for i := 0; i < n; i++ {
				if v := s.vbuf[i]; v >= lo && v <= hi {
					agg.add(v)
				}
			}
		}
	default:
		panic("core: cannot aggregate scheme " + blk.Scheme.String())
	}
	return agg
}

// aggregateMasks folds the masked matches of a PFOR or PDICT block.
// Aggregation is order-free, so exceptions fold independently — no
// position merge. The PFOR leg accumulates raw codes (popcount, code sum,
// code min/max) and derives the value aggregate once at the end.
func (d *Decoder[T]) aggregateMasks(blk *Block[T], lo, hi T, agg *Aggregate[T], s *selScratch[T]) {
	pfor := blk.Scheme == SchemePFOR
	dict := blk.Dict
	b := blk.B
	codes := blk.Codes
	var codeCount int
	var codeSum uint64
	minC, maxC := ^uint32(0), uint32(0)
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		w0, w1 := gStart>>5, (gEnd+31)>>5
		if es, ee := blk.groupExc(g); es != ee {
			epos := d.fixExceptions(blk, g, lo, hi, s.mask, s)
			for i := range epos {
				agg.add(s.eval[i])
			}
		}
		for w := w0; w < w1; w++ {
			m := s.mask[w]
			if m == 0 {
				continue
			}
			vb := w << 5
			codeCount += bits.OnesCount32(m)
			for ; m != 0; m &= m - 1 {
				p := vb + bits.TrailingZeros32(m)
				c := bitpack.CodeAt(codes, p, b)
				if pfor {
					codeSum += uint64(c)
					if c < minC {
						minC = c
					}
					if c > maxC {
						maxC = c
					}
				} else {
					agg.add(dict[c])
				}
			}
		}
	}
	if pfor && codeCount > 0 {
		agg.Merge(Aggregate[T]{
			Count: codeCount,
			Sum:   int64(codeCount)*int64(blk.Base) + int64(codeSum),
			Min:   blk.Base + T(minC),
			Max:   blk.Base + T(maxC),
		})
	}
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
