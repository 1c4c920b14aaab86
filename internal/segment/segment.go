// Package segment serializes compressed blocks to the on-page layout of
// Figure 3 of the paper: a fixed-size header, the entry-point section for
// fine-grained access, a forward-growing code section, and an exception
// section that grows backwards from the end of the segment.
//
// ColumnBM stores one segment per chunk (DSM) or one segment per column per
// chunk (PAX); this package is only concerned with the byte layout of a
// single segment.
//
// Parsing a segment does not copy its code section when it can be read
// where it lies: on a little-endian host, at a 4-byte-aligned address, the
// parsed block's Codes alias the frame (see UnmarshalInto). Frames are
// therefore immutable once parsed. Every other section — entry points,
// dictionary, running totals, exceptions — is copied into the block.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/core"
)

// Errors returned by Unmarshal.
var (
	ErrTooShort  = errors.New("segment: buffer too short")
	ErrBadMagic  = errors.New("segment: bad magic byte")
	ErrBadScheme = errors.New("segment: unknown compression scheme")
	ErrCorrupt   = errors.New("segment: inconsistent header or sections")
	ErrChecksum  = errors.New("segment: payload checksum mismatch")
)

// Magic is the first byte of every serialized segment, raw or compressed.
const Magic = 0xC5 // "compressed segment"

const (
	magic      = Magic
	headerSize = 44 // includes the payload checksum at offset 40
)

// fnv32 is FNV-1a over the segment payload; it guards the decompression
// kernels (whose patch-list walks trust their inputs) against corrupt or
// truncated pages.
func fnv32(data []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range data {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// Marshal serializes blk into the Figure-3 segment layout and returns the
// byte slice. The exception section is written in reverse order at the tail
// of the segment, matching the paper's backward-growing exception area.
func Marshal[T core.Integer](blk *core.Block[T]) []byte {
	return AppendMarshal(nil, blk)
}

// AppendMarshal appends the serialized form of blk (see Marshal) to dst and
// returns the extended slice.
func AppendMarshal[T core.Integer](dst []byte, blk *core.Block[T]) []byte {
	elem := elemSize[T]()
	numGroups := len(blk.Entries)
	size := headerSize + numGroups*4 + blk.DictLen*elem + len(blk.Totals)*elem +
		len(blk.Codes)*4 + len(blk.Exc)*elem
	dst = slices.Grow(dst, size)
	buf := dst[len(dst) : len(dst)+size]

	// Header.
	buf[0] = magic
	buf[1] = byte(blk.Scheme)
	buf[2] = byte(blk.B)
	buf[3] = byte(elem)
	binary.LittleEndian.PutUint32(buf[4:], uint32(blk.N))
	binary.LittleEndian.PutUint64(buf[8:], toBits(blk.Base))
	binary.LittleEndian.PutUint64(buf[16:], toBits(blk.DeltaBase))
	binary.LittleEndian.PutUint32(buf[24:], uint32(blk.DictLen))
	binary.LittleEndian.PutUint32(buf[28:], uint32(len(blk.Exc)))
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(blk.Codes)))
	flags := uint32(0)
	if len(blk.Totals) > 0 {
		flags |= 1
	}
	binary.LittleEndian.PutUint32(buf[36:], flags)

	// Entry-point section.
	off := headerSize
	for _, e := range blk.Entries {
		binary.LittleEndian.PutUint32(buf[off:], e)
		off += 4
	}
	// Dictionary (PDICT): only the meaningful entries travel to disk.
	off = putValues(buf, off, elem, blk.Dict[:blk.DictLen])
	// Running totals (PFOR-DELTA).
	off = putValues(buf, off, elem, blk.Totals)
	// Code section (forward-growing).
	if hostLittleEndian {
		copy(buf[off:], wordBytes(blk.Codes))
	} else {
		for i, w := range blk.Codes {
			binary.LittleEndian.PutUint32(buf[off+4*i:], w)
		}
	}
	// Exception section: grows backwards from the end of the segment, so
	// exception k lives at size - (k+1)*elem.
	putValues(buf, size-elem, -elem, blk.Exc)
	binary.LittleEndian.PutUint32(buf[40:], fnv32(buf[headerSize:]))
	return dst[:len(dst)+size]
}

// Unmarshal parses a segment produced by Marshal. The element type must
// match the one used at Marshal time (enforced by the element-size byte).
func Unmarshal[T core.Integer](buf []byte) (*core.Block[T], error) {
	blk := new(core.Block[T])
	if err := UnmarshalInto(blk, buf); err != nil {
		return nil, err
	}
	return blk, nil
}

// UnmarshalInto parses a segment produced by Marshal into blk, reusing
// blk's section slices whenever their capacity suffices. Recycling one
// Block across every segment of a column is the zero-allocation steady
// state of a block-at-a-time scan. blk is overwritten completely; on error
// its contents are unspecified.
//
// The code section is not copied when the host can read it in place
// (little-endian, 4-byte-aligned): blk.Codes then aliases buf, which must
// stay unchanged for as long as blk is in use, and blk must be treated as
// read-only. Otherwise the words are copied into a buffer blk owns — never
// into memory an earlier parse borrowed.
func UnmarshalInto[T core.Integer](blk *core.Block[T], buf []byte) error {
	return unmarshalInto(blk, buf, true)
}

// UnmarshalIntoTrusted is UnmarshalInto without the payload checksum pass.
// The FNV hash walks the payload byte by byte and dominates the parse cost
// of large segments, but it is redundant when the caller has already
// integrity-checked the same bytes — the ZKC2 column reader verifies a
// hardware CRC32-C over every frame before handing it to the decoder. All
// structural header validation (scheme, width, section sizes, entry-point
// invariants) still runs; only the redundant hash is skipped. Callers
// without an outer integrity check must use UnmarshalInto.
func UnmarshalIntoTrusted[T core.Integer](blk *core.Block[T], buf []byte) error {
	return unmarshalInto(blk, buf, false)
}

func unmarshalInto[T core.Integer](blk *core.Block[T], buf []byte, verify bool) error {
	if len(buf) < headerSize {
		return ErrTooShort
	}
	if buf[0] != magic {
		return ErrBadMagic
	}
	scheme := core.Scheme(buf[1])
	switch scheme {
	case core.SchemePFOR, core.SchemePFORDelta, core.SchemePDict:
	default:
		return ErrBadScheme
	}
	elem := elemSize[T]()
	if int(buf[3]) != elem {
		return fmt.Errorf("%w: element size %d, decoding as %d", ErrCorrupt, buf[3], elem)
	}
	blk.Scheme, blk.B = scheme, uint(buf[2])
	blk.N = int(binary.LittleEndian.Uint32(buf[4:]))
	blk.Base = fromBits[T](binary.LittleEndian.Uint64(buf[8:]))
	blk.DeltaBase = fromBits[T](binary.LittleEndian.Uint64(buf[16:]))
	blk.DictLen = int(binary.LittleEndian.Uint32(buf[24:]))
	excCount := int(binary.LittleEndian.Uint32(buf[28:]))
	codeWords := int(binary.LittleEndian.Uint32(buf[32:]))
	flags := binary.LittleEndian.Uint32(buf[36:])

	if blk.B < 1 || blk.B > 32 || blk.N < 0 || blk.N > core.MaxBlockValues || excCount > blk.N || excCount < 0 {
		return ErrCorrupt
	}
	// The header fields must be mutually consistent — the decompression
	// kernels trust them (a corrupted width would make the code section
	// appear shorter or longer than it is).
	if codeWords != (blk.N*int(blk.B)+31)/32 {
		return ErrCorrupt
	}
	if blk.DictLen < 0 || (scheme == core.SchemePDict) != (blk.DictLen > 0) {
		return ErrCorrupt
	}
	// The decoder materializes a dictionary of 1<<B entries so LOOP1 can
	// index it with bogus gap codes; an unchecked width would let a
	// 50-byte frame demand a 32GB allocation. Legitimate producers never
	// exceed MaxDictBits (the analyzer's cap).
	if scheme == core.SchemePDict && blk.B > core.MaxDictBits {
		return fmt.Errorf("%w: PDICT width %d exceeds %d bits", ErrCorrupt, blk.B, core.MaxDictBits)
	}
	if blk.B > uint(elem)*8 {
		return ErrCorrupt
	}
	numGroups := (blk.N + core.GroupSize - 1) / core.GroupSize
	numTotals := 0
	if flags&1 != 0 {
		numTotals = numGroups
	}
	size := headerSize + numGroups*4 + blk.DictLen*elem + numTotals*elem + codeWords*4 + excCount*elem
	if len(buf) < size {
		return ErrTooShort
	}
	if verify && binary.LittleEndian.Uint32(buf[40:]) != fnv32(buf[headerSize:size]) {
		return ErrChecksum
	}

	off := headerSize
	blk.Entries = sized(blk.Entries, numGroups)
	prevExc := uint32(0)
	for g := range blk.Entries {
		e := binary.LittleEndian.Uint32(buf[off:])
		// Entry words must point into the exception section in
		// non-decreasing order, and a group's patch start must lie inside
		// the group — the patch-walk kernels trust both invariants.
		exc := e >> 7
		if exc < prevExc || int(exc) > excCount {
			return fmt.Errorf("%w: entry point %d", ErrCorrupt, g)
		}
		prevExc = exc
		if gLen := blk.N - g*core.GroupSize; int(e&0x7F) >= gLen && gLen < core.GroupSize {
			return fmt.Errorf("%w: entry point %d patch start", ErrCorrupt, g)
		}
		blk.Entries[g] = e
		off += 4
	}
	if blk.DictLen > 0 {
		if blk.DictLen > 1<<blk.B {
			return ErrCorrupt
		}
		// The dictionary stays zero-padded to 1<<B entries so LOOP1 can
		// index it with any b-bit code; a recycled slice must have its
		// stale tail cleared to keep that invariant.
		blk.Dict = sized(blk.Dict, 1<<blk.B)
		off = getValues(buf, off, elem, blk.Dict[:blk.DictLen])
		clear(blk.Dict[blk.DictLen:])
	} else {
		blk.Dict = blk.Dict[:0]
	}
	// The predicate kernels find a value range's codes by binary search.
	// Writers from before dictionaries were stored sorted laid them out by
	// falling frequency; such a frame must be rewritten.
	if !slices.IsSorted(blk.Dict[:blk.DictLen]) {
		return fmt.Errorf("%w: PDICT dictionary not in ascending order (frequency order, from an older writer; rewrite the column)", ErrCorrupt)
	}
	blk.Totals = sized(blk.Totals, numTotals)
	off = getValues(buf, off, elem, blk.Totals)
	codes := buf[off : off+codeWords*4]
	if words := wordView(codes); words != nil {
		blk.Codes = words
	} else {
		own := blk.OwnCodes(codeWords)
		for i := range own {
			own[i] = binary.LittleEndian.Uint32(codes[i*4:])
		}
	}
	blk.Exc = sized(blk.Exc, excCount)
	getValues(buf, size-elem, -elem, blk.Exc)
	blk.ExcOff = nil // a parse builds no exception index
	return nil
}

// hostLittleEndian reports whether this machine lays a word out the way a
// segment does, so that a code section can be read, or written, as words.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordView returns b, a whole number of little-endian words, as a word
// slice over the same memory, or nil when it cannot be read in place: on a
// big-endian host, at an address a word load may not use, or when empty.
func wordView(b []byte) []uint32 {
	if !hostLittleEndian || len(b) == 0 || uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 != 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

// wordBytes returns the memory of w as bytes.
func wordBytes(w []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*4)
}

// sized returns s resized to n elements, reusing its backing array when
// capacity allows and allocating otherwise. Contents are unspecified.
func sized[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
}

// MarshalRaw serializes an uncompressed value array (SchemeNone storage).
func MarshalRaw[T core.Integer](vals []T) []byte {
	return AppendMarshalRaw(nil, vals)
}

// AppendMarshalRaw appends the raw segment of vals (see MarshalRaw) to dst
// and returns the extended slice.
func AppendMarshalRaw[T core.Integer](dst []byte, vals []T) []byte {
	elem := elemSize[T]()
	size := 8 + len(vals)*elem
	dst = slices.Grow(dst, size)
	buf := dst[len(dst) : len(dst)+size]
	buf[0] = magic
	buf[1] = byte(core.SchemeNone)
	buf[2] = byte(elem)
	buf[3] = 0 // reserved; dst's spare capacity may hold anything
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(vals)))
	putValues(buf, 8, elem, vals)
	return dst[:len(dst)+size]
}

// UnmarshalRaw parses a MarshalRaw segment.
func UnmarshalRaw[T core.Integer](buf []byte) ([]T, error) {
	if len(buf) < 8 {
		return nil, ErrTooShort
	}
	if buf[0] != magic || core.Scheme(buf[1]) != core.SchemeNone {
		return nil, ErrBadMagic
	}
	elem := elemSize[T]()
	if int(buf[2]) != elem {
		return nil, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	if len(buf) < 8+n*elem {
		return nil, ErrTooShort
	}
	vals := make([]T, n)
	getValues(buf, 8, elem, vals)
	return vals, nil
}

// IsCompressed reports whether buf holds a compressed (patched-scheme)
// segment rather than a raw one.
func IsCompressed(buf []byte) bool {
	return len(buf) >= 2 && buf[0] == magic && core.Scheme(buf[1]) != core.SchemeNone
}

// FrameSize returns the total byte length of the segment frame starting at
// buf[0], derived from the header alone — buf may extend past the frame or
// stop short of it. Every section length is a function of the header
// fields, which is what lets a recovery pass walk back-to-back frames with
// no directory to consult. The header is validated with the same structural
// checks unmarshalInto applies, but the payload itself is not: callers
// salvaging untrusted bytes must still decode the full frame before
// believing it.
func FrameSize(buf []byte) (int, error) {
	if len(buf) < 8 {
		return 0, ErrTooShort
	}
	if buf[0] != magic {
		return 0, ErrBadMagic
	}
	scheme := core.Scheme(buf[1])
	if scheme == core.SchemeNone {
		elem := int(buf[2])
		if elem != 1 && elem != 2 && elem != 4 && elem != 8 {
			return 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(buf[4:]))
		if n > core.MaxBlockValues {
			return 0, ErrCorrupt
		}
		return 8 + n*elem, nil
	}
	switch scheme {
	case core.SchemePFOR, core.SchemePFORDelta, core.SchemePDict:
	default:
		return 0, ErrBadScheme
	}
	if len(buf) < headerSize {
		return 0, ErrTooShort
	}
	b := uint(buf[2])
	elem := int(buf[3])
	if elem != 1 && elem != 2 && elem != 4 && elem != 8 {
		return 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	dictLen := int(binary.LittleEndian.Uint32(buf[24:]))
	excCount := int(binary.LittleEndian.Uint32(buf[28:]))
	codeWords := int(binary.LittleEndian.Uint32(buf[32:]))
	flags := binary.LittleEndian.Uint32(buf[36:])
	if b < 1 || b > 32 || b > uint(elem)*8 || n < 0 || n > core.MaxBlockValues || excCount < 0 || excCount > n {
		return 0, ErrCorrupt
	}
	if codeWords != (n*int(b)+31)/32 {
		return 0, ErrCorrupt
	}
	if dictLen < 0 || (scheme == core.SchemePDict) != (dictLen > 0) {
		return 0, ErrCorrupt
	}
	if scheme == core.SchemePDict && (b > core.MaxDictBits || dictLen > 1<<b) {
		return 0, ErrCorrupt
	}
	numGroups := (n + core.GroupSize - 1) / core.GroupSize
	numTotals := 0
	if flags&1 != 0 {
		numTotals = numGroups
	}
	return headerSize + numGroups*4 + dictLen*elem + numTotals*elem + codeWords*4 + excCount*elem, nil
}

func elemSize[T core.Integer]() int {
	var v T
	return int(unsafe.Sizeof(v))
}

// toBits widens a value to its 64-bit two's-complement image.
func toBits[T core.Integer](v T) uint64 { return uint64(int64(v)) }

// fromBits truncates a 64-bit image back to T.
func fromBits[T core.Integer](u uint64) T { return T(u) }

// putValues stores vals little-endian in buf, value k at off+k*step: step
// is the element size for a section that grows forwards and its negative
// for the exception section. It returns the offset of the slot after the
// last one. The width is decided once, not per value.
func putValues[T core.Integer](buf []byte, off, step int, vals []T) int {
	switch elemSize[T]() {
	case 1:
		for k, v := range vals {
			buf[off+k*step] = byte(v)
		}
	case 2:
		for k, v := range vals {
			binary.LittleEndian.PutUint16(buf[off+k*step:], uint16(v))
		}
	case 4:
		for k, v := range vals {
			binary.LittleEndian.PutUint32(buf[off+k*step:], uint32(v))
		}
	default:
		for k, v := range vals {
			binary.LittleEndian.PutUint64(buf[off+k*step:], uint64(v))
		}
	}
	return off + len(vals)*step
}

// getValues is the inverse of putValues.
func getValues[T core.Integer](buf []byte, off, step int, vals []T) int {
	switch elemSize[T]() {
	case 1:
		for k := range vals {
			vals[k] = T(buf[off+k*step])
		}
	case 2:
		for k := range vals {
			vals[k] = T(binary.LittleEndian.Uint16(buf[off+k*step:]))
		}
	case 4:
		for k := range vals {
			vals[k] = T(binary.LittleEndian.Uint32(buf[off+k*step:]))
		}
	default:
		for k := range vals {
			vals[k] = T(binary.LittleEndian.Uint64(buf[off+k*step:]))
		}
	}
	return off + len(vals)*step
}
