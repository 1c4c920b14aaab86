// Package baseline implements the compression schemes the paper measures
// against its own and does not store: the fast byte-stream compressors
// LZRW1 and LZW plus DEFLATE and semi-static Huffman (Figure 2), and the
// inverted-file codecs carryover-12, gap Huffman ("shuff") and
// variable-byte (Table 4). The experiments package calls them directly;
// the product's container holds only the patched schemes.
//
// Everything here is implemented from scratch on the Go standard library.
package baseline

import "errors"

// ErrCorrupt is returned when a compressed stream fails validation.
var ErrCorrupt = errors.New("baseline: corrupt compressed data")

// ByteCodec compresses opaque byte streams (the granularity at which
// Sybase IQ-style page compressors such as LZRW1 operate).
type ByteCodec interface {
	Name() string
	// Compress appends the compressed form of src to dst.
	Compress(dst, src []byte) []byte
	// Decompress appends the decompressed form of src to dst.
	Decompress(dst, src []byte) ([]byte, error)
}

// IntCodec compresses arrays of small non-negative integers (the
// granularity at which inverted-file codecs operate).
type IntCodec interface {
	Name() string
	// Encode appends the compressed form of vals to dst.
	Encode(dst []byte, vals []uint32) []byte
	// Decode appends exactly n decoded values to dst and returns the
	// remaining input.
	Decode(dst []uint32, src []byte, n int) ([]uint32, []byte, error)
}

// --- little-endian helpers shared across the package ---------------------

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
