package zukowski

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/core"
	"repro/internal/segment"
)

// Integer is the set of element types the codecs operate on: the
// fixed-width integer columns of a column store (dates, keys, decimals
// scaled to integers, dictionary codes, inverted-file d-gaps...).
type Integer interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// GroupSize is the fine-grained access granularity of the patched schemes:
// one entry point per 128 values (Section 3.1 of the paper).
const GroupSize = core.GroupSize

// MaxBlockValues is the largest value count a single compressed frame may
// hold; Encode returns ErrBlockTooLarge beyond it.
const MaxBlockValues = core.MaxBlockValues

// Codec is the unified compression contract every scheme implements. A
// Codec value is stateless and safe for concurrent use.
type Codec[T Integer] interface {
	// Name returns the codec's registry name (e.g. "pfor", "pdict").
	Name() string

	// Encode appends the compressed frame for src to dst and returns the
	// extended slice. The frame is self-describing; dst may be nil.
	Encode(dst []byte, src []T) ([]byte, error)

	// Decode appends the values of a frame produced by Encode to dst and
	// returns the extended slice. dst may be nil.
	Decode(dst []T, encoded []byte) ([]T, error)

	// Get returns the single value at position i of the frame. The patched
	// codecs use the entry-point machinery and touch at most one 128-value
	// group; a raw frame is read in place.
	Get(encoded []byte, i int) (T, error)

	// Stats inspects a frame without decoding its values.
	Stats(encoded []byte) (Stats, error)
}

// Stats describes one compressed frame.
type Stats struct {
	// Scheme is the name of the scheme that produced the frame (which for
	// Auto is the scheme the analyzer picked, not "auto").
	Scheme string
	// BitWidth is the code width b in bits (0 for uncoded frames).
	BitWidth uint
	// NumValues is the number of values in the frame.
	NumValues int
	// Exceptions counts exception values, including compulsory exceptions;
	// ExceptionRate is Exceptions/NumValues (the paper's E').
	Exceptions    int
	ExceptionRate float64
	// DictEntries is the number of meaningful dictionary entries (PDICT
	// frames).
	DictEntries int
	// Groups counts 128-value entry-point groups; GroupsWithExceptions and
	// MaxGroupExceptions summarize how exceptions cluster across them.
	Groups               int
	GroupsWithExceptions int
	MaxGroupExceptions   int
	// EncodedBytes is the frame size; UncompressedBytes the size of the
	// values stored verbatim; Ratio their quotient.
	EncodedBytes      int
	UncompressedBytes int
	Ratio             float64
}

// elemSize returns sizeof(T) in bytes.
func elemSize[T Integer]() int {
	var v T
	return int(unsafe.Sizeof(v))
}

// checkWidth validates a code bit width for element type T.
func checkWidth[T Integer](b uint) error {
	if b < 1 || b > 32 {
		return fmt.Errorf("%w: b=%d not in [1,32]", ErrWidthOutOfRange, b)
	}
	if int(b) > 8*elemSize[T]() {
		return fmt.Errorf("%w: b=%d wider than %d-bit element", ErrWidthOutOfRange, b, 8*elemSize[T]())
	}
	return nil
}

// checkLen validates an encode input length.
func checkLen(n int) error {
	if n > MaxBlockValues {
		return fmt.Errorf("%w: %d values > %d", ErrBlockTooLarge, n, MaxBlockValues)
	}
	return nil
}

// corrupt wraps a cause as an ErrCorruptSegment while keeping it in the
// error chain.
func corrupt(cause error) error {
	return fmt.Errorf("%w: %w", ErrCorruptSegment, cause)
}

// guardSegment converts a decoder panic into ErrCorruptSegment. The
// internal kernels trust their inputs (their patch-list walks are
// branch-free); header and checksum validation catches everything short of
// deliberately crafted frames, and this recover is the backstop for those.
func guardSegment(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: decoder fault: %v", ErrCorruptSegment, r)
	}
}

// grow extends dst by n elements and returns the extended slice plus the
// newly added tail.
func grow[T Integer](dst []T, n int) ([]T, []T) {
	dst = slices.Grow(dst, n)
	out := dst[:len(dst)+n]
	return out, out[len(dst):]
}

// decodeSegment appends the values of a segment frame (raw or patched) to
// dst. It is shared by every segment-backed codec: the frame header, not
// the codec, determines the scheme.
func decodeSegment[T Integer](dst []T, encoded []byte) (out []T, err error) {
	defer guardSegment(&err)
	if !segment.IsCompressed(encoded) {
		return rawAppend[T](dst, encoded)
	}
	blk, err := segment.Unmarshal[T](encoded)
	if err != nil {
		return nil, corrupt(err)
	}
	dst, tail := grow(dst, blk.N)
	core.Decompress(blk, tail)
	return dst, nil
}

// segmentGet returns value i of a segment frame using the entry-point
// fine-grained access path.
func segmentGet[T Integer](encoded []byte, i int) (v T, err error) {
	defer guardSegment(&err)
	if !segment.IsCompressed(encoded) {
		return rawGet[T](encoded, i)
	}
	blk, err := segment.Unmarshal[T](encoded)
	if err != nil {
		return v, corrupt(err)
	}
	if i < 0 || i >= blk.N {
		return v, fmt.Errorf("%w: %d not in [0,%d)", ErrIndexOutOfRange, i, blk.N)
	}
	return core.Get(blk, i), nil
}

// rawHeader validates a raw (SchemeNone) segment header — an 8-byte
// prefix followed by the values — and returns the value count.
func rawHeader[T Integer](encoded []byte) (int, error) {
	if len(encoded) < 8 {
		return 0, corrupt(segment.ErrTooShort)
	}
	if encoded[0] != segment.Magic {
		return 0, corrupt(segment.ErrBadMagic)
	}
	elem := elemSize[T]()
	if int(encoded[2]) != elem {
		return 0, corrupt(segment.ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(encoded[4:]))
	if len(encoded) < 8+n*elem {
		return 0, corrupt(segment.ErrTooShort)
	}
	return n, nil
}

// rawGet reads value i of a raw segment in place, without decoding the
// frame.
func rawGet[T Integer](encoded []byte, i int) (v T, err error) {
	n, err := rawHeader[T](encoded)
	if err != nil {
		return v, err
	}
	elem := elemSize[T]()
	if i < 0 || i >= n {
		return v, fmt.Errorf("%w: %d not in [0,%d)", ErrIndexOutOfRange, i, n)
	}
	off := 8 + i*elem
	switch elem {
	case 1:
		return T(encoded[off]), nil
	case 2:
		return T(binary.LittleEndian.Uint16(encoded[off:])), nil
	case 4:
		return T(binary.LittleEndian.Uint32(encoded[off:])), nil
	default:
		return T(binary.LittleEndian.Uint64(encoded[off:])), nil
	}
}

// rawAppend appends the values of a raw (SchemeNone) segment to dst,
// decoding straight into the destination — no intermediate slice, so scans
// over uncoded blocks stay allocation-free once dst has capacity.
func rawAppend[T Integer](dst []T, encoded []byte) ([]T, error) {
	n, err := rawHeader[T](encoded)
	if err != nil {
		return nil, err
	}
	out, tail := grow(dst, n)
	switch elemSize[T]() {
	case 1:
		for i := range tail {
			tail[i] = T(encoded[8+i])
		}
	case 2:
		for i := range tail {
			tail[i] = T(binary.LittleEndian.Uint16(encoded[8+i*2:]))
		}
	case 4:
		for i := range tail {
			tail[i] = T(binary.LittleEndian.Uint32(encoded[8+i*4:]))
		}
	default:
		for i := range tail {
			tail[i] = T(binary.LittleEndian.Uint64(encoded[8+i*8:]))
		}
	}
	return out, nil
}

// segmentStats inspects a segment frame.
func segmentStats[T Integer](encoded []byte) (Stats, error) {
	if !segment.IsCompressed(encoded) {
		n, err := rawHeader[T](encoded)
		if err != nil {
			return Stats{}, err
		}
		return fillSizes(Stats{
			Scheme:    core.SchemeNone.String(),
			NumValues: n,
		}, len(encoded), n*elemSize[T]()), nil
	}
	blk, err := segment.Unmarshal[T](encoded)
	if err != nil {
		return Stats{}, corrupt(err)
	}
	st := Stats{
		Scheme:        blk.Scheme.String(),
		BitWidth:      blk.B,
		NumValues:     blk.N,
		Exceptions:    blk.ExceptionCount(),
		ExceptionRate: blk.ExceptionRate(),
		DictEntries:   blk.DictLen,
		Groups:        blk.NumGroups(),
	}
	for g := 0; g < len(blk.Entries); g++ {
		end := len(blk.Exc)
		if g+1 < len(blk.Entries) {
			end = int(blk.Entries[g+1] >> 7)
		}
		n := end - int(blk.Entries[g]>>7)
		if n > 0 {
			st.GroupsWithExceptions++
		}
		if n > st.MaxGroupExceptions {
			st.MaxGroupExceptions = n
		}
	}
	return fillSizes(st, len(encoded), blk.UncompressedBytes()), nil
}

// fillSizes completes the size fields of a Stats.
func fillSizes(st Stats, encodedBytes, rawBytes int) Stats {
	st.EncodedBytes = encodedBytes
	st.UncompressedBytes = rawBytes
	if encodedBytes > 0 {
		st.Ratio = float64(rawBytes) / float64(encodedBytes)
	}
	return st
}

// Inspect parses a compressed frame produced by any segment-backed codec
// (PFOR, PFORDelta, PDict, None, Auto) and returns its Stats. It is the
// programmatic form of the cmd/segdump tool.
func Inspect[T Integer](encoded []byte) (Stats, error) {
	return segmentStats[T](encoded)
}
