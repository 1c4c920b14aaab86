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

// FormatName returns the container magic string for a format version
// ("ZKC1", "ZKC2"), or a descriptive placeholder for unknown versions.
func FormatName(version int) string {
	switch version {
	case FormatZKC1:
		return "ZKC1"
	case FormatZKC2:
		return "ZKC2"
	}
	return fmt.Sprintf("unknown(%d)", version)
}

// HasZoneMaps reports whether the container carries per-block min/max
// statistics (ZKC2 and later).
func (cr *ColumnReader[T]) HasZoneMaps() bool { return cr.version >= FormatZKC2 }

// ZoneMap returns the min and max value of block b. ok is false when the
// container predates zone maps (ZKC1) or b is out of range.
func (cr *ColumnReader[T]) ZoneMap(b int) (min, max T, ok bool) {
	if !cr.HasZoneMaps() || b < 0 || b >= len(cr.blocks) {
		return min, max, false
	}
	return zoneValue[T](cr.blocks[b].minBits), zoneValue[T](cr.blocks[b].maxBits), true
}

// BlockInfo describes one block of a column container: its extent in the
// file, its directory statistics, and whether those statistics exist in
// this format version.
type BlockInfo[T Integer] struct {
	Offset int64 // first byte of the frame
	Length int   // frame size in bytes
	Count  int   // values in the block

	HasChecksum bool   // ZKC2: CRC32C holds the stored payload checksum
	CRC32C      uint32 // stored payload CRC32-C (0 for ZKC1)

	HasZoneMap bool // ZKC2: Min and Max hold the block's zone map
	Min, Max   T
}

// BlockInfo returns block b's directory entry without touching the
// block's payload.
func (cr *ColumnReader[T]) BlockInfo(b int) (BlockInfo[T], error) {
	if b < 0 || b >= len(cr.blocks) {
		return BlockInfo[T]{}, fmt.Errorf("%w: block %d not in [0,%d)", ErrIndexOutOfRange, b, len(cr.blocks))
	}
	blk := cr.blocks[b]
	info := BlockInfo[T]{
		Offset: int64(blk.offset),
		Length: int(blk.length),
		Count:  int(blk.count),
	}
	if cr.version >= FormatZKC2 {
		info.HasChecksum = true
		info.CRC32C = blk.crc
		info.HasZoneMap = true
		info.Min = zoneValue[T](blk.minBits)
		info.Max = zoneValue[T](blk.maxBits)
	}
	return info, nil
}

// VerifyBlock checks block b's integrity without decoding its values on
// ZKC2 (payload CRC32-C); on ZKC1, which stores no checksum, it falls
// back to a full decode so damage still surfaces as a typed error.
func (cr *ColumnReader[T]) VerifyBlock(b int) error {
	if b < 0 || b >= len(cr.blocks) {
		return fmt.Errorf("%w: block %d not in [0,%d)", ErrIndexOutOfRange, b, len(cr.blocks))
	}
	if cr.version >= FormatZKC2 {
		// The hash runs unconditionally: VerifyBlock's contract is to check
		// the bytes now, not to trust the latch.
		frame, err := cr.view(b)
		if err != nil {
			return err
		}
		return cr.verify(frame, b)
	}
	st := cr.getState()
	defer cr.putState(st)
	_, err := cr.readBlockInto(st, b, nil)
	return err
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
