package core

// Selection-vector composition: the code-range and mask helpers of
// select.go targeted at an explicit SelectionVector, so predicates over
// several columns compose before anything is materialized. A
// conjunctive scan runs DecompressMask for its most selective predicate,
// RefineMask for each further predicate (same-column or — via the shared
// block geometry — a different column's block), and only once the bitmap
// is final does DecompressSelected touch the surviving rows. RefineMask is
// where the composition pays: groups whose running mask is already empty
// are skipped before a single code is extracted, so each predicate's cost
// shrinks with the selectivity of the ones before it.

import (
	"fmt"
	"math/bits"

	"repro/internal/bitpack"
)

// DecompressMask evaluates the inclusive range [lo, hi] over blk and fills
// sv with the block-level match bitmap: bit i set iff value i lies in the
// range. No value is materialized — PFOR and PDICT predicates run
// entirely in the packed code domain, PFOR-DELTA falls back to a fused
// per-group decode+compare — and exception slots are judged on their true
// values.
// An inverted range (lo > hi) selects nothing.
func (d *Decoder[T]) DecompressMask(blk *Block[T], lo, hi T, sv *SelectionVector) {
	sv.size(blk.N)
	if blk.N == 0 {
		return
	}
	if lo > hi {
		clear(sv.words)
		return
	}
	s := d.selectScratch()
	d.buildMask(blk, lo, hi, sv.words, s)
}

// buildMask fills mask — (blk.N+31)/32 words — with the match bitmap of
// the non-inverted range [lo, hi] over blk: the scheme dispatch shared by
// DecompressMask (targeting a SelectionVector) and UnionMask (targeting
// the scratch mask before the OR fold). Every word is assigned, so the
// destination needs no clearing, and tail bits beyond blk.N stay zero.
func (d *Decoder[T]) buildMask(blk *Block[T], lo, hi T, mask []uint32, s *selScratch[T]) {
	switch blk.Scheme {
	case SchemePFOR, SchemePDict:
		clo, span, ok := codeRange(blk, lo, hi)
		d.blockMasks(blk, clo, span, ok, mask)
		maskFixExceptions(blk, lo, hi, mask)
	case SchemePFORDelta:
		d.maskPFORDelta(blk, lo, hi, mask, s)
	default:
		panic("core: cannot select on scheme " + blk.Scheme.String())
	}
}

// UnionMask ORs the match bitmap of the inclusive range [lo, hi] over blk
// into sv — the disjunction counterpart of RefineMask. The branch's
// bitmap is built in the decoder's scratch mask with the same kernels
// DecompressMask uses (exception slots judged on their true values, never
// on their bogus gap codes), then folded into sv one OR per 32 rows. An
// inverted range (lo > hi) adds nothing. sv must cover exactly blk.N rows.
func (d *Decoder[T]) UnionMask(blk *Block[T], lo, hi T, sv *SelectionVector) {
	if sv.n != blk.N {
		panic(fmt.Sprintf("core: selection of %d rows unioned against block of %d", sv.n, blk.N))
	}
	if blk.N == 0 || lo > hi {
		return
	}
	s := d.selectScratch()
	tmp := s.maskBuf(blk.N)
	d.buildMask(blk, lo, hi, tmp, s)
	for i, w := range tmp {
		sv.words[i] |= w
	}
}

// maskFixExceptions resolves exception slots of a freshly built mask: the
// bogus patch-list gap codes produced whatever bits the kernels computed,
// so each exception slot is overwritten with the verdict on its true
// value.
func maskFixExceptions[T Integer](blk *Block[T], lo, hi T, mask []uint32) {
	var buf [GroupSize]uint8
	for g := range blk.Entries {
		gStart := g * GroupSize
		offs, exc := blk.exceptions(g, GroupSize-1, nil, &buf, nil)
		for k, o := range offs {
			pos := gStart + int(o)
			v := exc[k]
			sh := uint(pos) & 31
			mask[pos>>5] = mask[pos>>5]&^(1<<sh) | uint32(b2i(v >= lo && v <= hi))<<sh
		}
	}
}

// allZero reports whether no bit is set in words.
func allZero(words []uint32) bool {
	for _, w := range words {
		if w != 0 {
			return false
		}
	}
	return true
}

// lastLive returns the position of the last selected row among mask words
// [w0, w1), or -1 when none is selected.
func lastLive(mask []uint32, w0, w1 int) int {
	for w := w1 - 1; w >= w0; w-- {
		if m := mask[w]; m != 0 {
			return w<<5 + 31 - bits.LeadingZeros32(m)
		}
	}
	return -1
}

// RefineMask intersects sv — a selection over exactly blk.N rows, e.g.
// another predicate's DecompressMask output or a different column's bitmap
// under shared block geometry — with the match bitmap of [lo, hi] over
// blk. Groups whose running mask is already empty are skipped without
// extracting a code (or, for PFOR-DELTA, without decoding the group), so
// refinement gets cheaper the more selective the earlier predicates were.
// An inverted range empties the selection.
func (d *Decoder[T]) RefineMask(blk *Block[T], lo, hi T, sv *SelectionVector) {
	if sv.n != blk.N {
		panic(fmt.Sprintf("core: selection of %d rows refined against block of %d", sv.n, blk.N))
	}
	if blk.N == 0 {
		return
	}
	if lo > hi {
		clear(sv.words)
		return
	}
	s := d.selectScratch()
	switch blk.Scheme {
	case SchemePFOR, SchemePDict:
		clo, span, ok := codeRange(blk, lo, hi)
		d.refineCoded(blk, lo, hi, clo, span, ok, sv.words, s)
	case SchemePFORDelta:
		d.refinePFORDelta(blk, lo, hi, sv.words, s)
	default:
		panic("core: cannot select on scheme " + blk.Scheme.String())
	}
}

// refineCoded is the PFOR / PDICT refinement. It first captures which
// still-selected exception slots truly match (their codes are bogus
// patch-list gaps, so the kernels must not judge them), reading each
// group's exceptions only up to the group's last selected row: refining
// never sets a bit, so slots past it stay clear. Then the branch-free
// refine kernel runs over the packed codes of the whole block in one
// refmask32 call, whose per-call set-up is paid once and which skips every
// 32-row word already empty, and finally the exception slots are
// overwritten with the captured verdicts.
func (d *Decoder[T]) refineCoded(blk *Block[T], lo, hi T, clo, span uint32, codable bool, mask []uint32, s *selScratch[T]) {
	// fix lists the selected exception slots as pos<<1 | verdict.
	if cap(s.fix) < blk.N {
		s.fix = make([]int32, 0, blk.N)
	}
	fix := s.fix[:0]
	var buf [GroupSize]uint8
	for g := range blk.Entries {
		if es, ee := blk.groupExc(g); es == ee {
			continue
		}
		gStart, gEnd := groupBounds(blk, g)
		last := lastLive(mask, gStart>>5, (gEnd+31)>>5)
		if last < 0 {
			continue
		}
		offs, exc := blk.exceptions(g, last-gStart, nil, &buf, nil)
		for k, o := range offs {
			pos := gStart + int(o)
			if mask[pos>>5]&(1<<(uint(pos)&31)) != 0 {
				v := exc[k]
				fix = append(fix, int32(pos<<1|b2i(v >= lo && v <= hi)))
			}
		}
	}
	if codable {
		full := blk.N / 32
		bitpack.RefineMask(mask[:full], blk.Codes, blk.B, clo, span)
		if tail := blk.N % 32; tail > 0 {
			mask[full] = bitpack.RefineMaskTail(blk.Codes[full*int(blk.B):], tail, blk.B, clo, span, mask[full])
		}
	} else {
		clear(mask)
	}
	for _, f := range fix {
		pos := f >> 1
		mask[pos>>5] = mask[pos>>5]&^(1<<(uint(pos)&31)) | uint32(f&1)<<(uint(pos)&31)
	}
	s.fix = fix
}

// maskPFORDelta emits the match bitmap of a PFOR-DELTA block: deltas have
// no fixed code image of a value range, so each group decodes through its
// running total and the compare results accumulate into mask words.
func (d *Decoder[T]) maskPFORDelta(blk *Block[T], lo, hi T, mask []uint32, s *selScratch[T]) {
	raw := d.scratch(GroupSize)
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		n := gEnd - gStart
		unpackGroup(blk, g, n, raw)
		d.decompressPFORDeltaGroup(blk, g, raw, s.vbuf[:n])
		w0 := gStart >> 5
		for i := 0; i < n; i += 32 {
			var m uint32
			lim := min(32, n-i)
			for j := 0; j < lim; j++ {
				v := s.vbuf[i+j]
				m |= uint32(b2i(v >= lo && v <= hi)) << j
			}
			mask[w0+i>>5] = m
		}
	}
}

// refinePFORDelta intersects mask with a PFOR-DELTA predicate, decoding
// only the groups that still have surviving rows.
func (d *Decoder[T]) refinePFORDelta(blk *Block[T], lo, hi T, mask []uint32, s *selScratch[T]) {
	raw := d.scratch(GroupSize)
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		n := gEnd - gStart
		w0 := gStart >> 5
		w1 := (gEnd + 31) >> 5
		if allZero(mask[w0:w1]) {
			continue
		}
		unpackGroup(blk, g, n, raw)
		d.decompressPFORDeltaGroup(blk, g, raw, s.vbuf[:n])
		for i := 0; i < n; i += 32 {
			w := w0 + i>>5
			m := mask[w]
			if m == 0 {
				continue
			}
			var match uint32
			lim := min(32, n-i)
			for j := 0; j < lim; j++ {
				v := s.vbuf[i+j]
				match |= uint32(b2i(v >= lo && v <= hi)) << j
			}
			mask[w] = m & match
		}
	}
}

// denseGatherMin is the number of selected rows in a 128-value group at
// or above which the group is materialized by decoding it whole — unpack,
// LOOP1, LOOP2, the paper's branch-free two-loop decompression — and
// compacting the decoded values through the bitmap; below it each selected
// row is extracted on its own (CodeAt plus the group's exceptions up to
// it, the paper's fine-grained access). Both paths return the same
// values, so the choice is made per group from the bitmap's popcount
// alone.
//
// The value is the crossover of BenchmarkGatherCrossover: ns per group on
// the benchmark's column shapes (experiments.SynthBenchColumns), every
// group holding the given number of selected rows at random positions,
// best of five runs on the throttled 2-vCPU box (go1.24, amd64,
// host.mem_gb_s ≈ 5-6 during the run: the box was loaded, so compare the
// columns with each other, not with figures taken elsewhere). The shapes
// cross between 16 and 40 rows. At 128 the dense column is the
// block-level Decompress a fully selected block takes. Re-run the
// benchmark when either path changes.
//
//	            a: PFOR 10 bit, 2 %   b: PFOR 16 bit, 10 %   d: PDICT 6 bit, 1 %
//	rows/group     sparse    dense       sparse    dense       sparse    dense
//	         2         55      214           56      222           25      202
//	         4         39      249           72      201           37      268
//	         8        130      315          140      327           72      216
//	        16        185      274          230      202          162      356
//	        24        245      241          269      213          215      345
//	        32        302      388          309      222          289      301
//	        40        416      288          374      260          263      352
//	        48        466      313          382      311          389      344
//	        64        571      337          463      322          442      259
//	       128        748      240          647      149          600      133
const denseGatherMin = 24

// DecompressSelected appends the values of blk at the rows selected by sv
// to vals, in row order, and returns the extended slice — the
// materialization step after a multi-predicate bitmap has been composed.
// Only groups with surviving rows are touched, and the bitmap picks the
// decoder: a fully selected block is one Decompress, a group with at least
// denseGatherMin selected rows (and every live PFOR-DELTA group, whose
// values only exist as a running sum) is decoded whole and compacted, a
// sparser PFOR or PDICT group extracts one code per selected row, with
// exception slots reading their true values from the exception section.
// sv must cover exactly blk.N rows.
func (d *Decoder[T]) DecompressSelected(blk *Block[T], sv *SelectionVector, vals []T) []T {
	return d.gatherSelected(blk, sv, vals, denseGatherMin)
}

// gatherSelected is DecompressSelected with the dense threshold as a
// parameter, so tests and the crossover benchmark can force either regime:
// 0 decodes every live group whole, GroupSize+1 none.
func (d *Decoder[T]) gatherSelected(blk *Block[T], sv *SelectionVector, vals []T, denseMin int) []T {
	if sv.n != blk.N {
		panic(fmt.Sprintf("core: selection of %d rows gathered from block of %d", sv.n, blk.N))
	}
	count := sv.Count()
	if count == 0 {
		return vals
	}
	k := len(vals)
	vals = growTo(vals, k+count)
	delta := blk.Scheme == SchemePFORDelta
	pdict := blk.Scheme == SchemePDict
	if !delta && !pdict && blk.Scheme != SchemePFOR {
		panic("core: cannot select on scheme " + blk.Scheme.String())
	}
	if count == blk.N && denseMin <= GroupSize {
		d.Decompress(blk, vals[k:])
		return vals
	}
	s := d.selectScratch()
	mask := sv.words
	raw := d.scratch(GroupSize)
	base := blk.Base
	dict := blk.Dict
	b := blk.B
	codes := blk.Codes
	var buf [GroupSize]uint8
	for g := range blk.Entries {
		gStart, gEnd := groupBounds(blk, g)
		w0 := gStart >> 5
		w1 := (gEnd + 31) >> 5
		live := popCount(mask[w0:w1])
		if live == 0 {
			continue
		}
		if delta || live >= denseMin {
			d.decompressGroup(blk, g, raw, s.vbuf[:])
			k = compactSelected(vals, k, s.vbuf[:], mask[w0:w1])
			continue
		}
		// Exception slots hold bogus gap codes; a selected exception row
		// reads its true value from the exception section. The merge runs
		// the group's exception offsets, up to its last selected row,
		// alongside the ordered set bits.
		offs, exc := blk.exceptions(g, lastLive(mask, w0, w1)-gStart, nil, &buf, nil)
		x := 0
		for w := w0; w < w1; w++ {
			vb := w<<5 - gStart
			for m := mask[w]; m != 0; m &= m - 1 {
				p := vb + bits.TrailingZeros32(m)
				for x < len(offs) && int(offs[x]) < p {
					x++
				}
				if x < len(offs) && int(offs[x]) == p {
					vals[k] = exc[x]
				} else {
					c := bitpack.CodeAt(codes, gStart+p, b)
					if pdict {
						vals[k] = dict[c]
					} else {
						vals[k] = base + T(c)
					}
				}
				k++
			}
		}
	}
	return vals[:k]
}

// compactSelected stores src[i] at dst[k], dst[k+1], ... for every bit i
// set in mask — mask word j covers src[32j:] — and returns the advanced
// cursor: the second half of the dense gather. A full word moves its 32
// values as one run, without a bit walk.
func compactSelected[D, S Integer](dst []D, k int, src []S, mask []uint32) int {
	for j, m := range mask {
		in := src[j<<5:]
		if m == ^uint32(0) {
			run := dst[k : k+32]
			for i := range run {
				run[i] = D(in[i])
			}
			k += 32
			continue
		}
		for ; m != 0; m &= m - 1 {
			dst[k] = D(in[bits.TrailingZeros32(m)])
			k++
		}
	}
	return k
}

// DecompressSelectedCodes appends, for every row selected by sv in row
// order, the row's PDICT dictionary code — or -1 for exception slots,
// whose packed codes are bogus patch-list gaps and whose true values live
// only in the exception section. This is the group-key extraction of
// code-space grouped aggregation: keys stay in the tiny code domain, the
// caller aggregates per code and decodes the dictionary once at the end,
// handling the rare -1 rows on their materialized values. Groups are
// density-switched exactly as in DecompressSelected. blk must be PDICT; sv
// must cover exactly blk.N rows.
func (d *Decoder[T]) DecompressSelectedCodes(blk *Block[T], sv *SelectionVector, codes []int32) []int32 {
	return d.gatherSelectedCodes(blk, sv, codes, denseGatherMin)
}

// gatherSelectedCodes is DecompressSelectedCodes with the dense threshold
// as a parameter (see gatherSelected).
func (d *Decoder[T]) gatherSelectedCodes(blk *Block[T], sv *SelectionVector, codes []int32, denseMin int) []int32 {
	if blk.Scheme != SchemePDict {
		panic("core: DecompressSelectedCodes on scheme " + blk.Scheme.String())
	}
	if sv.n != blk.N {
		panic(fmt.Sprintf("core: selection of %d rows gathered from block of %d", sv.n, blk.N))
	}
	count := sv.Count()
	if count == 0 {
		return codes
	}
	k := len(codes)
	codes = growTo(codes, k+count)
	mask := sv.words
	packed := blk.Codes
	b := blk.B
	raw := d.scratch(GroupSize)
	var buf [GroupSize]uint8
	for g := range blk.Entries {
		gStart, gEnd := groupBounds(blk, g)
		w0 := gStart >> 5
		w1 := (gEnd + 31) >> 5
		live := popCount(mask[w0:w1])
		if live == 0 {
			continue
		}
		if live >= denseMin {
			// Unpack the group, overwrite each exception slot's gap code with
			// all ones once the offsets are read, and compact: int32 of all
			// ones is the -1 the caller expects.
			unpackGroup(blk, g, gEnd-gStart, raw)
			offs, _ := blk.exceptions(g, GroupSize-1, raw, &buf, nil)
			for _, o := range offs {
				raw[o] = ^uint32(0)
			}
			k = compactSelected(codes, k, raw, mask[w0:w1])
			continue
		}
		offs, _ := blk.exceptions(g, lastLive(mask, w0, w1)-gStart, nil, &buf, nil)
		x := 0
		for w := w0; w < w1; w++ {
			vb := w<<5 - gStart
			for m := mask[w]; m != 0; m &= m - 1 {
				p := vb + bits.TrailingZeros32(m)
				for x < len(offs) && int(offs[x]) < p {
					x++
				}
				if x < len(offs) && int(offs[x]) == p {
					codes[k] = -1
				} else {
					codes[k] = int32(bitpack.CodeAt(packed, gStart+p, b))
				}
				k++
			}
		}
	}
	return codes[:k]
}

// growTo extends vals to length n, reusing capacity when possible.
func growTo[T Integer](vals []T, n int) []T {
	if cap(vals) >= n {
		return vals[:n]
	}
	out := make([]T, n, max(n, 2*cap(vals)))
	copy(out, vals)
	return out
}
