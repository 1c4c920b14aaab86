// Command genbitpack generates the unrolled bit-packing kernels in
// internal/bitpack/unrolled.go.
//
// The paper's PACK[b]/UNPACK[b] routines are "highly optimized routines that
// are loop-unrolled to handle 32 values each iteration" (Section 3.1). Real
// implementations of this technique (Lucene's BulkOperation, FastPFOR's
// bitpacking) ship exactly this kind of generated code; we do the same and
// keep the generator in-tree so the kernels stay reproducible.
//
// The select and refine kernels of widths swarMinBits..swarMaxBits compare
// the codes of each 64-bit chunk of a group at once, with guard bits
// between the lanes (see swarMinBits); the other widths extract and
// compare one code at a time.
//
// Usage: go run ./cmd/genbitpack > internal/bitpack/unrolled.go
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/format"
	"math/bits"
	"os"
	"slices"
)

func main() {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)

	fmt.Fprintln(w, "// Code generated by cmd/genbitpack. DO NOT EDIT.")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "package bitpack")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "import \"math/bits\"")
	fmt.Fprintln(w, "")

	genUnpack0(w)
	for b := 1; b <= 31; b++ {
		genUnpack(w, b)
	}
	genUnpack32(w)

	genPack0(w)
	for b := 1; b <= 31; b++ {
		genPack(w, b)
	}
	genPack32(w)

	genSelect0(w)
	for b := 1; b <= 32; b++ {
		genSelect(w, b)
	}

	genRefine0(w)
	for b := 1; b <= 32; b++ {
		genRefine(w, b)
	}

	genTables(w)

	w.Flush()
	src, err := format.Source(buf.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "genbitpack:", err)
		os.Exit(1)
	}
	os.Stdout.Write(src)
}

// extractExpr returns the expression extracting value i of a 32-value b-bit
// group from the word slice named s, mirroring the unpack kernel's
// per-value extraction.
func extractExpr(i, b int) string {
	mask := uint32(1)<<uint(b) - 1
	if b == 32 {
		return fmt.Sprintf("s[%d]", i)
	}
	bitPos := i * b
	word := bitPos / 32
	shift := bitPos % 32
	if shift+b <= 32 {
		if shift == 0 {
			return fmt.Sprintf("s[%d] & 0x%X", word, mask)
		}
		if shift+b == 32 {
			return fmt.Sprintf("s[%d] >> %d", word, shift)
		}
		return fmt.Sprintf("(s[%d] >> %d) & 0x%X", word, shift, mask)
	}
	return fmt.Sprintf("(s[%d]>>%d | s[%d]<<%d) & 0x%X", word, shift, word+1, 32-shift, mask)
}

// Word-parallel range compare.
//
// From swarMinBits to swarMaxBits bits the select and refine kernels
// compare codes where they lie instead of extracting each one: the packed
// group is read 64 bits at a time and every code wholly inside such a
// chunk is tested in place with the guard-bit compare of BitWeaving/H (Li
// and Patel, SIGMOD 2013). Per chunk the kernel
//
//  1. shifts the chunk down to its first whole code and masks out the
//     even-indexed codes, each of which then has a zero guard bit above
//     it (the lowest bit of its odd neighbour), and shifts the
//     odd-indexed codes down onto the same slots;
//  2. computes ((x|G)-LO) & ((HI|G)-x) & G for each half x, where G holds
//     the guard bits and LO/HI replicate the bounds into every slot: a
//     guard bit stays set iff lo <= code <= hi, and since no lane's
//     difference is negative no borrow crosses into the next lane;
//  3. merges the halves into one word, the odd half's guard bits one
//     above the even half's;
//  4. moves each adjacent pair of guard bits onto consecutive mask bits
//     with one multiply by a per-chunk constant (bits.Mul64 when the
//     gathered bits sit in the high word of the product), which the
//     generator checks against every subset of guard bits before it
//     emits it;
//  5. leaves codes that straddle two chunks, and an even code whose guard
//     bit would be bit 64, to the scalar compare, extracted from the
//     chunks already loaded.
//
// Since every chunk is shifted to start at a slot, all chunks share one
// slot layout, and LO and HI cost one multiply each per call. The kernels
// keep the scalar contract — code c matches iff c-lo <= span in uint32
// arithmetic — through bitpack.swarRange, which restates any (lo, span)
// as a range [l, h] inside the code domain plus an optional inversion of
// the mask: a range that wraps past 2^32 is the complement of one range.
// Below swarMinBits a half-chunk holds more lanes than b and the pair
// gather collides (planSWAR panics); above swarMaxBits too few codes share
// a chunk for the compare to beat extraction. BenchmarkSelectMask in
// internal/bitpack measured the bound on a 2-vCPU amd64 box (go1.24): the
// word-parallel kernel is 2.7x the scalar one at 6-8 bits, 1.7x at 10,
// 1.3x at 16, 1.1x at 17 and level from 18 bits on.
const (
	swarMinBits = 6
	swarMaxBits = 16
)

// swarChunk is the plan for one 64-bit chunk of a 32-code group: which
// codes the word-parallel compare judges in it and the constants it
// needs.
type swarChunk struct {
	chunk    int    // the chunk is source words 2*chunk and 2*chunk+1
	off      int    // bit offset of code first in the chunk, shifted away
	first, k int    // the chunk compares codes first .. first+k-1
	even     uint64 // the slots of the even-indexed codes
	guard    uint64 // the guard bit above every slot
	oddGuard uint64 // the guard bits of the slots an odd code is shifted onto
	mul      uint64 // gathers the merged guard bits onto consecutive bits
	high     bool   // the gathered bits are in the high word of the product
	shift    int    // then shift left (> 0) or right (< 0) onto bit first
}

// planSWAR lays the 64-bit chunks over a group of 32 b-bit codes and
// returns them with the codes left to the scalar compare; outside
// swarMinBits..swarMaxBits it plans nothing.
func planSWAR(b int) (chunks []swarChunk, scalar []int) {
	if b < swarMinBits || b > swarMaxBits {
		return nil, nil
	}
	var judged [32]bool
	for word := 0; word < b; word += 2 {
		lo, width := word*32, 64
		if word+1 == b {
			width = 32
		}
		first, k := -1, 0
		for i := 0; i < 32; i++ {
			if i*b >= lo && i*b+b <= lo+width {
				if first < 0 {
					first = i
				}
				k++
			}
		}
		off := first*b - lo
		if k%2 == 1 && off == 0 && k*b == 64 {
			k-- // an even last code ending at bit 64 has no guard bit
		}
		if k < 2 {
			continue
		}
		c := swarChunk{chunk: word / 2, off: off, first: first, k: k}
		for j := 0; j < k; j += 2 {
			c.even |= (uint64(1)<<b - 1) << (j * b)
			c.guard |= 1 << (j*b + b)
			if j+1 < k {
				c.oddGuard |= 1 << (j*b + b)
			}
		}
		if !c.findGather(b) {
			panic(fmt.Sprintf("genbitpack: no collision-free gather for %d-bit codes %d..%d", b, first, first+k-1))
		}
		for i := first; i < first+k; i++ {
			judged[i] = true
		}
		chunks = append(chunks, c)
	}
	for i, ok := range judged {
		if !ok {
			scalar = append(scalar, i)
		}
	}
	return chunks, scalar
}

// guardBit is the bit the merged word holds code first+j's verdict in:
// even codes keep their slot's guard bit, odd codes sit one above.
func guardBit(b, j int) int {
	return (j&^1)*b + b + j&1
}

// findGather picks the window of the 128-bit product that receives the
// gathered bits, preferring one that needs no shift, and the multiplier
// that moves guard-bit pair l to window bits 2l and 2l+1. It accepts the
// first candidate that gathers every subset of guard bits exactly.
func (c *swarChunk) findGather(b int) bool {
	windows := []int{c.first, 64 + c.first}
	for t := 0; t < 128; t++ {
		if t != c.first && t != 64+c.first {
			windows = append(windows, t)
		}
	}
	for _, t := range windows {
		if t%64+c.k > 64 {
			continue
		}
		var mul uint64
		ok := true
		for j := 0; j < c.k; j += 2 {
			sh := t + j - guardBit(b, j)
			if sh < 0 || sh > 63 {
				ok = false
				break
			}
			mul |= 1 << sh
		}
		if !ok {
			continue
		}
		c.mul, c.high, c.shift = mul, t >= 64, c.first-t%64
		if c.gathersExactly(b) {
			return true
		}
	}
	return false
}

// gathersExactly checks the multiplier against every subset of guard
// bits: no two product terms may meet in the window, and no carry from
// below may reach it.
func (c *swarChunk) gathersExactly(b int) bool {
	for sub := uint64(0); sub < 1<<c.k; sub++ {
		var r uint64
		for j := 0; j < c.k; j++ {
			r |= (sub >> j & 1) << guardBit(b, j)
		}
		hi, lo := bits.Mul64(r, c.mul)
		if c.high {
			lo = hi
		}
		if c.shift >= 0 {
			lo <<= c.shift
		} else {
			lo >>= -c.shift
		}
		if uint32(lo)&c.mask() != uint32(sub)<<c.first {
			return false
		}
	}
	return true
}

// mask is the chunk's mask bits: first .. first+k-1.
func (c *swarChunk) mask() uint32 {
	return (1<<c.k - 1) << c.first
}

// genMaskPrologue emits the per-call set-up of a range kernel and returns
// the names of the bounds the group body compares against. A scalar
// kernel compares against (lo, span) as given; a word-parallel one against
// swarRange's [l, l+hs], with l and h replicated into every slot (ll, hh;
// hh carries the guard bits too).
func genMaskPrologue(w *bufio.Writer, b int, chunks []swarChunk, scalar []int) (lo, span string) {
	if b < swarMinBits || b > swarMaxBits {
		return "lo", "span"
	}
	fmt.Fprintf(w, "\tl, h, flip := swarRange(lo, span, %d)\n", b)
	if len(scalar) > 0 {
		fmt.Fprintln(w, "\ths := h - l")
	}
	rep := swarRep(chunks, b)
	fmt.Fprintf(w, "\tll, hh := uint64(l)*0x%X, uint64(h)*0x%X|0x%X\n", rep, rep, rep<<b)
	return "l", "hs"
}

// swarRep is the lowest bit of every slot of any chunk: l*rep replicates
// l into all of them.
func swarRep(chunks []swarChunk, b int) uint64 {
	var guards uint64
	for _, c := range chunks {
		guards |= c.guard
	}
	return guards >> b
}

// genGroupMask emits the statements that leave the match mask of the
// 32-code group at s in m0|m1|m2|m3 — four independent accumulator
// chains, the super-scalar trick of the paper's LOOP1 applied to
// selection — and returns the expression that yields it.
func genGroupMask(w *bufio.Writer, b int, chunks []swarChunk, scalar []int, lo, span string) string {
	fmt.Fprintln(w, "\t\tvar m0, m1, m2, m3 uint32")
	if b < swarMinBits || b > swarMaxBits {
		fmt.Fprintln(w, "\t\tvar v uint32")
		for i := 0; i < 32; i++ {
			fmt.Fprintf(w, "\t\tv = %s\n", extractExpr(i, b))
			fmt.Fprintf(w, "\t\tm%d |= uint32(inRange(v, %s, %s)) << %d\n", i/8, lo, span, i)
		}
		return "m0 | m1 | m2 | m3"
	}
	fmt.Fprintln(w, "\t\tvar e, o uint64")
	if slices.ContainsFunc(chunks, func(c swarChunk) bool { return c.high }) {
		fmt.Fprintln(w, "\t\tvar p uint64")
	}
	if len(scalar) > 0 {
		fmt.Fprintln(w, "\t\tvar v uint32")
	}
	// Chunk c is read once, as words 2c and 2c+1 in one 64-bit load, and
	// the scalar compare extracts its codes from the chunks as well, so
	// no source word is loaded twice.
	loaded := make([]bool, (b+1)/2)
	chunk := func(c int) string {
		if !loaded[c] {
			loaded[c] = true
			if 2*c+1 < b {
				fmt.Fprintf(w, "\t\tx%d := uint64(s[%d]) | uint64(s[%d])<<32\n", c, 2*c, 2*c+1)
			} else {
				fmt.Fprintf(w, "\t\tx%d := uint64(s[%d])\n", c, 2*c)
			}
		}
		return fmt.Sprintf("x%d", c)
	}
	all := swarRep(chunks, b) << b
	acc := 0
	next := func() int { acc++; return (acc - 1) % 4 }
	emitScalar := func(i int) {
		c, sh := i*b/64, i*b%64
		x := chunk(c)
		switch {
		case sh+b > 64:
			fmt.Fprintf(w, "\t\tv = uint32(%s>>%d|%s<<%d) & 0x%X\n", x, sh, chunk(c+1), 64-sh, uint32(1)<<b-1)
		case sh == 0:
			fmt.Fprintf(w, "\t\tv = uint32(%s) & 0x%X\n", x, uint32(1)<<b-1)
		default:
			fmt.Fprintf(w, "\t\tv = uint32(%s>>%d) & 0x%X\n", x, sh, uint32(1)<<b-1)
		}
		fmt.Fprintf(w, "\t\tm%d |= uint32(inRange(v, %s, %s)) << %d\n", next(), lo, span, i)
	}
	si := 0
	for _, c := range chunks {
		for ; si < len(scalar) && scalar[si] < c.first; si++ {
			emitScalar(scalar[si])
		}
		fmt.Fprintf(w, "\t\t// codes %d-%d\n", c.first, c.first+c.k-1)
		x := chunk(c.chunk)
		if c.off == 0 {
			fmt.Fprintf(w, "\t\te = %s & 0x%X\n", x, c.even)
		} else {
			fmt.Fprintf(w, "\t\te = %s >> %d & 0x%X\n", x, c.off, c.even)
		}
		fmt.Fprintf(w, "\t\to = %s >> %d & 0x%X\n", x, c.off+b, c.even)
		fmt.Fprintf(w, "\t\te = ((e | 0x%X) - ll) & (hh - e) & 0x%X\n", all, c.guard)
		fmt.Fprintf(w, "\t\to = ((o | 0x%X) - ll) & (hh - o) & 0x%X\n", all, c.oddGuard)
		word := fmt.Sprintf("(e | o<<1) * 0x%X", c.mul)
		if c.high {
			fmt.Fprintf(w, "\t\tp, _ = bits.Mul64(e|o<<1, 0x%X)\n", c.mul)
			word = "p"
		}
		switch {
		case c.shift > 0:
			word = fmt.Sprintf("(%s) << %d", word, c.shift)
		case c.shift < 0:
			word = fmt.Sprintf("(%s) >> %d", word, -c.shift)
		}
		fmt.Fprintf(w, "\t\tm%d |= uint32(%s) & 0x%X\n", next(), word, c.mask())
	}
	for ; si < len(scalar); si++ {
		emitScalar(scalar[si])
	}
	return "(m0 | m1 | m2 | m3) ^ flip"
}

// genSelect emits the compare/select kernel: it scans packed b-bit codes
// directly in their compressed form against the unsigned code range
// [lo, lo+span] and writes one 32-bit match mask per 32-code group — bit i
// set iff code i matches. No value is materialized and nothing is stored
// per code: the loop body is pure ALU work feeding four independent
// accumulator chains, and the only store is one mask word per 32 codes.
// Callers then touch only the set bits. From swarMinBits to swarMaxBits
// bits the body compares the codes of each 64-bit chunk at once (see
// swarMinBits); other widths extract and compare one code at a time.
func genSelect(w *bufio.Writer, b int) {
	chunks, scalar := planSWAR(b)
	fmt.Fprintf(w, "// selmask32x%d scans len(dst) groups of 32 %d-bit codes from src and\n", b, b)
	fmt.Fprintf(w, "// writes one match mask per group: bit i of dst[g] is set iff code\n")
	fmt.Fprintf(w, "// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).")
	if b >= swarMinBits && b <= swarMaxBits {
		fmt.Fprintf(w, " Codes are\n// compared in place, a 64-bit chunk at a time.")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "func selmask32x%d(dst, src []uint32, lo, span uint32) {\n", b)
	clo, cspan := genMaskPrologue(w, b, chunks, scalar)
	fmt.Fprintln(w, "\tfor g := range dst {")
	fmt.Fprintf(w, "\t\ts := src[g*%d:]\n", b)
	fmt.Fprintf(w, "\t\t_ = s[%d]\n", b-1)
	m := genGroupMask(w, b, chunks, scalar, clo, cspan)
	fmt.Fprintf(w, "\t\tdst[g] = %s\n", m)
	fmt.Fprintln(w, "\t}")
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
}

func genSelect0(w *bufio.Writer) {
	fmt.Fprintln(w, "// selmask32x0 scans zero-bit codes (all zero): every group is either a")
	fmt.Fprintln(w, "// full match or empty.")
	fmt.Fprintln(w, "func selmask32x0(dst, src []uint32, lo, span uint32) {")
	fmt.Fprintln(w, "\t_ = src")
	fmt.Fprintln(w, "\tm := uint32(0)")
	fmt.Fprintln(w, "\tif inRange(0, lo, span) == 1 {")
	fmt.Fprintln(w, "\t\tm = ^uint32(0)")
	fmt.Fprintln(w, "\t}")
	fmt.Fprintln(w, "\tfor g := range dst {")
	fmt.Fprintln(w, "\t\tdst[g] = m")
	fmt.Fprintln(w, "\t}")
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
}

// genRefine emits the conjunctive variant of the select kernel: instead of
// storing a fresh mask it ANDs the computed match mask into the one already
// in dst — the bitmap-intersection step of a multi-predicate scan. A group
// whose incoming mask is zero is skipped before a single code is touched,
// so after a selective first predicate the remaining predicates only visit
// the groups that still have survivors; inside a surviving group the
// compare stays branch-free, word-parallel or per code exactly as in
// selmask32.
func genRefine(w *bufio.Writer, b int) {
	chunks, scalar := planSWAR(b)
	fmt.Fprintf(w, "// refmask32x%d refines len(dst) groups of 32 %d-bit codes from src:\n", b, b)
	fmt.Fprintf(w, "// dst[g] is replaced by dst[g] AND the group's match mask for the code\n")
	fmt.Fprintf(w, "// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are\n")
	fmt.Fprintf(w, "// skipped without extracting any code.\n")
	fmt.Fprintf(w, "func refmask32x%d(dst, src []uint32, lo, span uint32) {\n", b)
	clo, cspan := genMaskPrologue(w, b, chunks, scalar)
	fmt.Fprintln(w, "\tfor g := range dst {")
	fmt.Fprintln(w, "\t\tm := dst[g]")
	fmt.Fprintln(w, "\t\tif m == 0 {")
	fmt.Fprintln(w, "\t\t\tcontinue")
	fmt.Fprintln(w, "\t\t}")
	fmt.Fprintf(w, "\t\ts := src[g*%d:]\n", b)
	fmt.Fprintf(w, "\t\t_ = s[%d]\n", b-1)
	match := genGroupMask(w, b, chunks, scalar, clo, cspan)
	fmt.Fprintf(w, "\t\tdst[g] = m & (%s)\n", match)
	fmt.Fprintln(w, "\t}")
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
}

func genRefine0(w *bufio.Writer) {
	fmt.Fprintln(w, "// refmask32x0 refines against zero-bit codes (all zero): either every")
	fmt.Fprintln(w, "// group's mask survives unchanged or every group empties.")
	fmt.Fprintln(w, "func refmask32x0(dst, src []uint32, lo, span uint32) {")
	fmt.Fprintln(w, "\t_ = src")
	fmt.Fprintln(w, "\tif inRange(0, lo, span) == 1 {")
	fmt.Fprintln(w, "\t\treturn")
	fmt.Fprintln(w, "\t}")
	fmt.Fprintln(w, "\tclear(dst)")
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
}

// genUnpack emits the kernel that expands 32 b-bit values from b source
// words into 32 destination words.
func genUnpack(w *bufio.Writer, b int) {
	fmt.Fprintf(w, "// unpack32x%d expands 32 %d-bit values from src[0:%d] into dst[0:32].\n", b, b, b)
	fmt.Fprintf(w, "func unpack32x%d(dst *[32]uint32, src []uint32) {\n", b)
	fmt.Fprintf(w, "\t_ = src[%d]\n", b-1)
	mask := uint32(1)<<uint(b) - 1
	for i := 0; i < 32; i++ {
		bitPos := i * b
		word := bitPos / 32
		shift := bitPos % 32
		if shift+b <= 32 {
			if shift == 0 {
				fmt.Fprintf(w, "\tdst[%d] = src[%d] & 0x%X\n", i, word, mask)
			} else if shift+b == 32 {
				fmt.Fprintf(w, "\tdst[%d] = src[%d] >> %d\n", i, word, shift)
			} else {
				fmt.Fprintf(w, "\tdst[%d] = (src[%d] >> %d) & 0x%X\n", i, word, shift, mask)
			}
		} else {
			// Value straddles a word boundary.
			fmt.Fprintf(w, "\tdst[%d] = (src[%d]>>%d | src[%d]<<%d) & 0x%X\n",
				i, word, shift, word+1, 32-shift, mask)
		}
	}
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
}

func genUnpack0(w *bufio.Writer) {
	fmt.Fprintln(w, "// unpack32x0 expands 32 zero-bit values: all zeros.")
	fmt.Fprintln(w, "func unpack32x0(dst *[32]uint32, src []uint32) {")
	fmt.Fprintln(w, "\t*dst = [32]uint32{}")
	fmt.Fprintln(w, "\t_ = src")
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
}

func genUnpack32(w *bufio.Writer) {
	fmt.Fprintln(w, "// unpack32x32 copies 32 full-width values.")
	fmt.Fprintln(w, "func unpack32x32(dst *[32]uint32, src []uint32) {")
	fmt.Fprintln(w, "\tcopy(dst[:], src[:32])")
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
}

// genPack emits the kernel that packs 32 b-bit values into b destination
// words. Source values must already be masked to b bits.
func genPack(w *bufio.Writer, b int) {
	fmt.Fprintf(w, "// pack32x%d packs 32 %d-bit values from src[0:32] into dst[0:%d].\n", b, b, b)
	fmt.Fprintf(w, "func pack32x%d(dst []uint32, src *[32]uint32) {\n", b)
	fmt.Fprintf(w, "\t_ = dst[%d]\n", b-1)
	word := 0
	terms := []string{}
	flush := func() {
		if len(terms) == 0 {
			return
		}
		fmt.Fprintf(w, "\tdst[%d] = %s", word, terms[0])
		for _, t := range terms[1:] {
			fmt.Fprintf(w, " | %s", t)
		}
		fmt.Fprintln(w, "")
		terms = terms[:0]
	}
	for i := 0; i < 32; i++ {
		bitPos := i * b
		wd := bitPos / 32
		shift := bitPos % 32
		if wd != word {
			flush()
			word = wd
		}
		if shift == 0 {
			terms = append(terms, fmt.Sprintf("src[%d]", i))
		} else {
			terms = append(terms, fmt.Sprintf("src[%d]<<%d", i, shift))
		}
		if shift+b > 32 {
			// Straddles into the next word: flush this word, start the
			// next one with the spilled high bits.
			flush()
			word = wd + 1
			terms = append(terms, fmt.Sprintf("src[%d]>>%d", i, 32-shift))
		}
	}
	flush()
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
}

func genPack0(w *bufio.Writer) {
	fmt.Fprintln(w, "// pack32x0 packs 32 zero-bit values: writes nothing.")
	fmt.Fprintln(w, "func pack32x0(dst []uint32, src *[32]uint32) {")
	fmt.Fprintln(w, "\t_, _ = dst, src")
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
}

func genPack32(w *bufio.Writer) {
	fmt.Fprintln(w, "// pack32x32 copies 32 full-width values.")
	fmt.Fprintln(w, "func pack32x32(dst []uint32, src *[32]uint32) {")
	fmt.Fprintln(w, "\tcopy(dst[:32], src[:])")
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
}

func genTables(w *bufio.Writer) {
	fmt.Fprintln(w, "// unpack32 dispatches to the unrolled kernel for each bit width.")
	fmt.Fprintln(w, "var unpack32 = [33]func(dst *[32]uint32, src []uint32){")
	for b := 0; b <= 32; b++ {
		fmt.Fprintf(w, "\tunpack32x%d,\n", b)
	}
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "// pack32 dispatches to the unrolled kernel for each bit width.")
	fmt.Fprintln(w, "var pack32 = [33]func(dst []uint32, src *[32]uint32){")
	for b := 0; b <= 32; b++ {
		fmt.Fprintf(w, "\tpack32x%d,\n", b)
	}
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "// selmask32 dispatches to the unrolled compare/select kernel for each bit")
	fmt.Fprintln(w, "// width.")
	fmt.Fprintln(w, "var selmask32 = [33]func(dst, src []uint32, lo, span uint32){")
	for b := 0; b <= 32; b++ {
		fmt.Fprintf(w, "\tselmask32x%d,\n", b)
	}
	fmt.Fprintln(w, "}")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "// refmask32 dispatches to the unrolled mask-refining compare kernel for")
	fmt.Fprintln(w, "// each bit width.")
	fmt.Fprintln(w, "var refmask32 = [33]func(dst, src []uint32, lo, span uint32){")
	for b := 0; b <= 32; b++ {
		fmt.Fprintf(w, "\trefmask32x%d,\n", b)
	}
	fmt.Fprintln(w, "}")
}
