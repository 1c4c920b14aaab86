package core

import (
	"repro/internal/bitpack"
)

// finish turns the output of an exception-detection pass into a finished
// block: it inserts compulsory exceptions, links each group's patch list
// through the code slots, records entry points, and bit-packs the code
// section.
//
// e.codes holds one candidate code per value (garbage at exception slots is
// fine — those slots are overwritten with patch-list gaps). miss holds the
// positions of the natural exceptions in ascending order. excSrc holds, by
// position, the value to store in the exception section: for PFOR and PDICT
// the original input, for PFOR-DELTA the raw deltas.
func (e *Encoder[T]) finish(blk *Block[T], miss []int32, excSrc []T) {
	n := blk.N
	codes := e.codes
	numGroups := blk.NumGroups()
	blk.Entries = sized(blk.Entries, numGroups)
	// maxGap is the largest representable distance between two linked
	// exceptions: the code slot stores gap-1 in b bits (Section 3.1,
	// "Compulsory Exceptions": "the maximum distance between elements in
	// the linked list of exceptions is 2^b").
	maxGap := int(min64(maxCode(blk.B)+1, GroupSize))

	mi := 0 // cursor into miss
	positions := e.positions
	for g := 0; g < numGroups; g++ {
		gStart := g * GroupSize
		gEnd := gStart + GroupSize
		if gEnd > n {
			gEnd = n
		}

		// Collect this group's natural exceptions and interleave the
		// compulsory ones needed to keep patch-list gaps representable.
		// Lists restart at every entry point, so gaps before the first and
		// after the last exception of a group never need compulsories.
		positions = positions[:0]
		prev := -1
		for mi < len(miss) && int(miss[mi]) < gEnd {
			m := int(miss[mi])
			mi++
			if prev >= 0 {
				for m-prev > maxGap {
					prev += maxGap
					positions = append(positions, int32(prev))
				}
			}
			positions = append(positions, int32(m))
			prev = m
		}

		if len(positions) == 0 {
			blk.Entries[g] = uint32(len(blk.Exc)) << 7
			continue
		}
		blk.Entries[g] = uint32(int(positions[0])-gStart) | uint32(len(blk.Exc))<<7
		for k, pos := range positions {
			blk.Exc = append(blk.Exc, excSrc[pos])
			if k+1 < len(positions) {
				codes[pos] = uint32(int(positions[k+1])-int(pos)) - 1
			} else {
				// The last exception of a group terminates the list; its
				// code slot is never followed, zero keeps it packable.
				codes[pos] = 0
			}
		}
	}
	e.positions = positions

	blk.Codes = sized(blk.Codes, bitpack.WordCount(n, blk.B))
	bitpack.Pack(blk.Codes, codes, blk.B)
}

// patchGroups applies LOOP2 of the patch decompression: for every group it
// walks the linked exception list (gaps read from the unpacked raw codes)
// and overwrites the bogus decoded values with the stored exceptions.
// Iterating the list is a data hazard, not a control hazard — the loop body
// is branch-free; an indexed block has no hazard at all.
func patchGroups[T Integer](blk *Block[T], raw []uint32, dst []T) {
	var buf [GroupSize]uint8
	for g := range blk.Entries {
		gStart := g * GroupSize
		blk.exceptions(g, GroupSize-1, raw[gStart:], &buf, dst[gStart:])
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
