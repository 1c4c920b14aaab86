// Package core implements the paper's primary contribution: the "patched"
// super-scalar compression family PFOR, PFOR-DELTA and PDICT (Zukowski,
// Héman, Nes, Boncz: "Super-Scalar RAM-CPU Cache Compression", ICDE 2006).
//
// All three schemes classify input values as either coded values — small
// integers of a fixed bit width b — or exception values stored verbatim.
// Instead of escaping exceptions with a reserved code (the NAIVE scheme,
// kept here as a baseline), the code slot of each exception stores the
// distance to the next exception, forming a linked "patch" list. Decoding
// then runs as two tight, branch-free loops: LOOP1 decodes every slot
// regardless, LOOP2 walks the patch list and overwrites the bogus values
// with the stored exceptions.
//
// Every GroupSize (128) values an entry point restarts the patch list and
// records where that group's exceptions start, enabling fine-grained access
// to single values without decompressing the whole block (Section 3.1,
// "Fine-Grained Access").
package core

import (
	"fmt"
	"unsafe"

	"repro/internal/bitpack"
)

// GroupSize is the entry-point granularity: the patch list restarts every
// GroupSize values, and one entry-point word is stored per group. The paper
// fixes this at 128 ("For every 128 values...").
const GroupSize = 128

// MaxBlockValues bounds a block so exception offsets fit the 25-bit field of
// an entry-point word (Section 3.1: "25-bits exception codes limit our
// segments to a maximum of 32MB").
const MaxBlockValues = 1 << 25

// Integer is the set of element types the codecs operate on. The paper
// implements its algorithms "for all (applicable) datatypes"; these are the
// fixed-width integer columns of a column store (dates, keys, decimals
// scaled to integers, dictionary codes...).
type Integer interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Scheme identifies a compression method.
type Scheme uint8

const (
	// SchemeNone stores values verbatim.
	SchemeNone Scheme = iota
	// SchemePFOR is Patched Frame-of-Reference: codes are unsigned offsets
	// from a per-block base value; values below the base or too far above
	// it become exceptions.
	SchemePFOR
	// SchemePFORDelta applies PFOR to the differences between subsequent
	// values; decompression patches first, then computes the running sum.
	SchemePFORDelta
	// SchemePDict is Patched Dictionary compression: codes index a
	// dictionary; values outside the dictionary become exceptions.
	SchemePDict
)

// String returns the scheme name as used in the paper.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "NONE"
	case SchemePFOR:
		return "PFOR"
	case SchemePFORDelta:
		return "PFOR-DELTA"
	case SchemePDict:
		return "PDICT"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// Block is one compressed block of values: the in-memory form of the
// compressed segment of Figure 3 (header fields, entry points, code section,
// exception section). The segment package serializes blocks to the on-page
// byte layout; this package owns the (de)compression kernels.
//
// A block parsed from a frame may borrow the frame's code section: Codes
// then aliases bytes the block does not own (a cached frame, a container
// in memory), so the decompression kernels only ever read it, and so must
// everyone else. No other section aliases; Entries, Dict, Exc and Totals
// are always the block's own. A parser that has to copy the codes asks
// OwnCodes for the buffer to copy into.
type Block[T Integer] struct {
	Scheme Scheme
	B      uint // code bit width, 1..32
	N      int  // number of values

	// Base is the frame-of-reference value (PFOR) or the value preceding
	// the first delta (PFOR-DELTA).
	Base T
	// DeltaBase is subtracted from each delta before coding (PFOR-DELTA
	// only); it plays the role Base plays for plain PFOR, allowing slightly
	// negative deltas to stay codable.
	DeltaBase T

	// Dict is the PDICT dictionary, padded with zero values to exactly
	// 1<<B entries so that LOOP1 can index it with any b-bit code — the
	// bogus codes at exception slots (patch-list gaps) then read garbage
	// instead of faulting, and LOOP2 overwrites the result.
	//
	// Dict[:DictLen] is in ascending (non-decreasing) order, so a value
	// range is one code range, found by binary search: the compressor sorts
	// the dictionary it is given and the segment parser refuses any other.
	Dict    []T
	DictLen int // number of meaningful dictionary entries

	// Codes is the bit-packed code section: N codes of B bits each. It is
	// the one section that may alias memory the block does not own; treat
	// it as read-only.
	Codes []uint32
	// own is the code buffer the block does own, kept aside while Codes
	// borrows so that a recycled block copies into its own memory and
	// never into what it borrowed.
	own []uint32
	// Exc is the exception section in position order. (On disk it grows
	// backwards from the end of the segment; in memory order is forward.)
	Exc []T
	// Entries holds one word per 128-value group:
	// bits 0..6  = offset of the group's first exception (patch start),
	// bits 7..31 = index into Exc of the group's first exception.
	// A group with no exceptions has the same exception index as its
	// successor; the patch-start bits are then meaningless.
	Entries []uint32
	// Totals (PFOR-DELTA only) stores the running total just before each
	// group, so fine-grained access decodes at most one group.
	Totals []T
	// ExcOff, once IndexExceptions has built it, holds each exception's
	// offset within its group, in Exc order, so the patch kernels find a
	// group's exceptions without walking its patch list. Only a block a
	// cache keeps resident is indexed; a parse leaves ExcOff nil.
	ExcOff []uint8
}

// IndexExceptions records every exception's in-group offset in ExcOff,
// walking each group's patch list once. Indexing costs that walk and a
// byte per exception, which pays only on a block that is scanned again
// and again; the block must not change afterwards. Like every reader of a
// patch list, it panics on a list that leaves its group.
func (b *Block[T]) IndexExceptions() {
	b.ExcOff = nil
	off := make([]uint8, len(b.Exc))
	var buf [GroupSize]uint8
	for g := range b.Entries {
		es, _ := b.groupExc(g)
		offs, _ := b.exceptions(g, GroupSize-1, nil, &buf, nil)
		copy(off[es:], offs)
	}
	b.ExcOff = off
}

// CheckExceptions walks every group's patch list of a block just parsed,
// as IndexExceptions does, and keeps nothing: it panics where a read of
// the block would.
func (b *Block[T]) CheckExceptions() {
	var buf [GroupSize]uint8
	for g := range b.Entries {
		b.exceptions(g, GroupSize-1, nil, &buf, nil)
	}
}

// exceptions returns the in-group offsets of group g's exceptions and
// their values, in list order: all of them on an indexed block, otherwise
// those at or before limit, the last in-group position the caller needs.
// Those are found by one walk of the group's patch list into buf (LOOP2's
// hops, no more), which reads each gap from raw, the group's unpacked
// codes, when the caller has them and from the packed codes otherwise. A
// hop that leaves the group panics: only a corrupt frame links one.
//
// Given patch, the group's values as LOOP1 decoded them, exceptions also
// stores every exception at its offset there: LOOP2 itself, done in the
// walk that finds the offsets, so a decode pays one pass over a group's
// exceptions as the fused loop of the paper does, not two.
func (b *Block[T]) exceptions(g, limit int, raw []uint32, buf *[GroupSize]uint8, patch []T) ([]uint8, []T) {
	es, ee := b.groupExc(g)
	if es == ee {
		return nil, nil
	}
	exc := b.Exc[es:ee]
	if b.ExcOff != nil {
		offs := b.ExcOff[es:ee]
		if patch != nil {
			for k, o := range offs {
				patch[o] = exc[k]
			}
		}
		return offs, exc
	}
	gStart, gEnd := groupBounds(b, g)
	n := gEnd - gStart
	lim := uint64(min(limit, n-1))
	// A group holds at most GroupSize exceptions; a crafted list claiming
	// more runs out of positions and panics below.
	out := buf[:min(len(exc), GroupSize)]
	pos := uint64(b.patchStart(g))
	k := 0
	if raw != nil {
		raw = raw[:n]
		for ; k < len(out) && pos <= lim; k++ {
			out[k] = uint8(pos)
			if patch != nil {
				patch[pos] = exc[k]
			}
			pos += uint64(raw[pos]) + 1
		}
	} else {
		k, pos = walkPacked(b.Codes, b.B, gStart, pos, lim, out)
	}
	if k < len(exc) && pos >= uint64(n) {
		panic(fmt.Sprintf("core: corrupt segment: group %d's patch list leaves the group", g))
	}
	return out[:k], exc[:k]
}

// walkPacked is exceptions' walk over packed codes: from in-group position
// pos of the group starting at code at, it records positions into out
// until out is full or a position passes lim, and returns how many it
// recorded and the position it stopped at. It does not depend on the
// element type, so it is compiled once, in this package, with the code
// extraction inlined, whichever package instantiates the generic kernels.
func walkPacked(codes []uint32, width uint, at int, pos, lim uint64, out []uint8) (int, uint64) {
	k := 0
	for ; k < len(out) && pos <= lim; k++ {
		out[k] = uint8(pos)
		pos += uint64(bitpack.CodeAt(codes, at+int(pos), width)) + 1
	}
	return k, pos
}

// OwnCodes makes Codes an n-word buffer the block owns, recycled from its
// previous OwnCodes call, and returns it for the caller to fill. What
// Codes borrowed in between (a plain assignment) is left untouched.
func (b *Block[T]) OwnCodes(n int) []uint32 {
	b.own = sized(b.own, n)
	b.Codes = b.own
	return b.Codes
}

// NumGroups returns the number of 128-value groups in the block.
func (b *Block[T]) NumGroups() int { return (b.N + GroupSize - 1) / GroupSize }

// ExceptionCount returns the number of exception values (including
// compulsory exceptions).
func (b *Block[T]) ExceptionCount() int { return len(b.Exc) }

// ExceptionRate returns the effective exception rate E' (exceptions per
// value, including compulsory exceptions).
func (b *Block[T]) ExceptionRate() float64 {
	if b.N == 0 {
		return 0
	}
	return float64(len(b.Exc)) / float64(b.N)
}

// groupExc returns the half-open range of indices into Exc that belong to
// group g.
func (b *Block[T]) groupExc(g int) (start, end int) {
	start = int(b.Entries[g] >> 7)
	if g+1 < len(b.Entries) {
		end = int(b.Entries[g+1] >> 7)
	} else {
		end = len(b.Exc)
	}
	return start, end
}

// patchStart returns the in-group offset of the first exception of group g.
// Only meaningful if the group has exceptions.
func (b *Block[T]) patchStart(g int) int { return int(b.Entries[g] & 0x7F) }

// CompressedBytes returns the compressed size of the block in bytes,
// counting the per-block header at the size the segment serializer uses.
// This is the denominator of the paper's compression ratios.
func (b *Block[T]) CompressedBytes() int {
	var v T
	elem := int(unsafe.Sizeof(v))
	size := headerBytes        // fixed header
	size += len(b.Entries) * 4 // entry-point section
	size += len(b.Codes) * 4   // code section
	size += len(b.Exc) * elem  // exception section
	size += b.DictLen * elem   // dictionary (PDICT)
	size += len(b.Totals) * elem
	return size
}

// UncompressedBytes returns the size the block's values occupy uncoded.
func (b *Block[T]) UncompressedBytes() int {
	var v T
	return b.N * int(unsafe.Sizeof(v))
}

// Ratio returns the compression ratio (uncompressed / compressed).
func (b *Block[T]) Ratio() float64 {
	c := b.CompressedBytes()
	if c == 0 {
		return 0
	}
	return float64(b.UncompressedBytes()) / float64(c)
}

// headerBytes is the serialized fixed-header size used in size accounting
// (scheme, width, count, base, section offsets — see internal/segment).
const headerBytes = 44

// typeMask returns the bit mask covering T's width, used to interpret
// wrapped differences as exact unsigned distances.
func typeMask[T Integer]() uint64 {
	var v T
	bits := uint(unsafe.Sizeof(v)) * 8
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<bits - 1
}

// typeBits returns the width of T in bits.
func typeBits[T Integer]() uint {
	var v T
	return uint(unsafe.Sizeof(v)) * 8
}

// maxCode returns the largest code representable in b bits.
func maxCode(b uint) uint64 {
	if b >= 64 {
		return ^uint64(0)
	}
	return 1<<b - 1
}

func checkWidth[T Integer](b uint) {
	if b < 1 || b > bitpack.MaxBits {
		panic(fmt.Sprintf("core: bit width %d out of range [1,%d]", b, bitpack.MaxBits))
	}
	if b > typeBits[T]() {
		panic(fmt.Sprintf("core: bit width %d wider than element type (%d bits)", b, typeBits[T]()))
	}
}

func checkLen(n int) {
	if n > MaxBlockValues {
		panic(fmt.Sprintf("core: block of %d values exceeds MaxBlockValues (%d)", n, MaxBlockValues))
	}
}
