package zukowski

import "fmt"

// Zone maps: the ZKC2 directory stores the min and max value of every
// block, so a selective scan consults 16 bytes of metadata instead of
// decompressing the block — the classic small-materialized-aggregate
// trick. Pruning matters most exactly where the paper's superscalar
// decompression shines: on clustered or sorted columns a range predicate
// touches a handful of blocks and the decode bandwidth is spent only on
// those. A Query prunes through one function, rangeVerdict (expr.go).
//
// Values are stored as 64-bit two's-complement bit patterns
// (sign-extended), so one directory layout serves all eight element
// types; zoneBits/zoneValue convert losslessly in both directions.

// zoneBits widens v to the 64-bit directory representation.
func zoneBits[T Integer](v T) uint64 { return uint64(int64(v)) }

// zoneValue narrows a directory bit pattern back to T. Only patterns
// produced by zoneBits[T] round-trip; the directory checksum guards the
// stored patterns against corruption.
func zoneValue[T Integer](bits uint64) T { return T(bits) }

// ZoneMap returns the min and max value of block b. ok is false when b is
// out of range.
func (cr *ColumnReader[T]) ZoneMap(b int) (min, max T, ok bool) {
	if b < 0 || b >= len(cr.blocks) {
		return min, max, false
	}
	return zoneValue[T](cr.blocks[b].minBits), zoneValue[T](cr.blocks[b].maxBits), true
}

// BlockInfo describes one block of a column container: its extent in the
// file and its directory statistics.
type BlockInfo[T Integer] struct {
	Offset   int64  // first byte of the frame
	Length   int    // frame size in bytes
	Count    int    // values in the block
	CRC32C   uint32 // stored payload CRC32-C
	Min, Max T      // the block's zone map
}

// BlockInfo returns block b's directory entry without touching the
// block's payload.
func (cr *ColumnReader[T]) BlockInfo(b int) (BlockInfo[T], error) {
	if b < 0 || b >= len(cr.blocks) {
		return BlockInfo[T]{}, fmt.Errorf("%w: block %d not in [0,%d)", ErrIndexOutOfRange, b, len(cr.blocks))
	}
	blk := cr.blocks[b]
	return BlockInfo[T]{
		Offset: int64(blk.offset),
		Length: int(blk.length),
		Count:  int(blk.count),
		CRC32C: blk.crc,
		Min:    zoneValue[T](blk.minBits),
		Max:    zoneValue[T](blk.maxBits),
	}, nil
}

// VerifyBlock checks block b's payload CRC32-C without decoding its
// values, and that the frame parses, holds the values its directory entry
// counts and walks its patch lists as a read parses, counts and walks
// them: a checksum-valid frame of another format (a retired comparator
// codec's, say), with a PDICT dictionary in frequency order (an older
// writer's) or with a patch list that leaves its group is
// ErrCorruptSegment here, and one of another count ErrCorruptColumn, as
// each is on every read. Every error names the block once. The hash runs
// unconditionally: VerifyBlock's contract is to check the bytes now, not
// to trust the latch.
func (cr *ColumnReader[T]) VerifyBlock(b int) error {
	if b < 0 || b >= len(cr.blocks) {
		return fmt.Errorf("%w: block %d not in [0,%d)", ErrIndexOutOfRange, b, len(cr.blocks))
	}
	frame, err := cr.readFrames(nil, b, b+1)
	if err != nil {
		return fmt.Errorf("block %d: %w", b, err)
	}
	if err := cr.verify(frame, b); err != nil {
		return err
	}
	st := cr.getState()
	defer cr.putState(st)
	if err := readableFrame(frame, int(cr.blocks[b].count), &st.blk); err != nil {
		return fmt.Errorf("block %d: %w", b, err)
	}
	return nil
}

// Verify checks every block of the column; the directory checksum was
// already verified when the reader opened. It returns the first failure.
func (cr *ColumnReader[T]) Verify() error {
	for b := range cr.blocks {
		if err := cr.VerifyBlock(b); err != nil {
			return err
		}
	}
	return nil
}
