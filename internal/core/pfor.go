package core

// This file implements PFOR (Patched Frame-of-Reference). Codes are
// unsigned offsets from a per-block base value. Unlike standard FOR, the
// base is not necessarily the block minimum: values below the base (or more
// than 2^b-1 above it) are stored as exceptions, which lets the analyzer
// center the codable window on the densest value stretch and handle
// outliers gracefully.

// CompressPFOR compresses src with Patched Frame-of-Reference using the
// given base value and code width b. It uses the double-cursor detection
// loop, which the paper found "the more stable algorithm on all platforms"
// (Section 3.1, Compression). The variants CompressPFORNaive and
// CompressPFORPred produce identical blocks with the other two
// detection-loop styles benchmarked in Figure 5.
func CompressPFOR[T Integer](src []T, base T, b uint) *Block[T] {
	return detach(new(Encoder[T]).pfor(src, base, b, detectPFORDC[T]))
}

// CompressPFORPred compresses with the single-cursor predicated detection
// loop (Figure 5, "PRED").
func CompressPFORPred[T Integer](src []T, base T, b uint) *Block[T] {
	return detach(new(Encoder[T]).pfor(src, base, b, detectPFORPred[T]))
}

// CompressPFORNaive compresses with the branchy if-then-else detection loop
// (Figure 5, "NAIVE"). The output block is identical; only the inner-loop
// style differs.
func CompressPFORNaive[T Integer](src []T, base T, b uint) *Block[T] {
	return detach(new(Encoder[T]).pfor(src, base, b, detectPFORBranchy[T]))
}

// detach copies a block header out of the Encoder that built it, so that
// the block keeps its own sections alive but not the Encoder's scratch.
func detach[T Integer](blk *Block[T]) *Block[T] {
	if blk == nil {
		return nil
	}
	out := *blk
	return &out
}

// detectFunc is an exception-detection loop: it fills e.codes with one
// candidate code per value of src and returns the positions of the values
// that do not fit b bits above base, in ascending order.
type detectFunc[T Integer] func(e *Encoder[T], src []T, base T, b uint) []int32

func (e *Encoder[T]) pfor(src []T, base T, b uint, detect detectFunc[T]) *Block[T] {
	checkWidth[T](b)
	checkLen(len(src))
	blk := e.newBlock(Block[T]{Scheme: SchemePFOR, B: b, N: len(src), Base: base})
	e.finish(blk, detect(e, src, base, b), src)
	return blk
}

// newBlock resets the Encoder's block to the given header, keeps the
// sections' backing arrays for reuse and sizes the code scratch.
func (e *Encoder[T]) newBlock(header Block[T]) *Block[T] {
	blk := &e.blk
	header.Dict, header.Totals, header.Exc = blk.Dict[:0], blk.Totals[:0], blk.Exc[:0]
	header.Entries, header.Codes = blk.Entries, blk.Codes
	*blk = header
	e.codes = sized(e.codes, blk.N)
	e.miss = sized(e.miss, blk.N)
	return blk
}

// detectPFORPred is the paper's LOOP1 with predication: the current
// position is always appended to the miss list and the list cursor is
// incremented with a boolean, turning the control dependency into a data
// dependency.
func detectPFORPred[T Integer](e *Encoder[T], src []T, base T, b uint) []int32 {
	codes, miss := e.codes, e.miss
	mask := typeMask[T]()
	maxc := maxCode(b)
	j := 0
	for i := 0; i < len(src); i++ {
		v := src[i]
		ud := uint64(v-base) & mask
		codes[i] = uint32(ud)
		miss[j] = int32(i)
		j += b2i(v < base || ud > maxc)
	}
	return miss[:j]
}

// detectPFORDC is the double-cursor variant (Figure 5, "DC"): two cursors
// run through the input, one from the start and one from halfway, giving
// the CPU two independent dependency chains. The two miss lists are
// concatenated afterwards (every position in the second list is greater
// than every position in the first, so the result stays sorted).
func detectPFORDC[T Integer](e *Encoder[T], src []T, base T, b uint) []int32 {
	n := len(src)
	m := n / 2
	mask := typeMask[T]()
	maxc := maxCode(b)

	e.missHi = sized(e.missHi, n-m)
	codes, miss, missHi := e.codes, e.miss, e.missHi
	j0, jm := 0, 0
	for i := 0; i < m; i++ {
		v0 := src[i]
		vm := src[i+m]
		ud0 := uint64(v0-base) & mask
		udm := uint64(vm-base) & mask
		codes[i] = uint32(ud0)
		codes[i+m] = uint32(udm)
		miss[j0] = int32(i)
		missHi[jm] = int32(i + m)
		j0 += b2i(v0 < base || ud0 > maxc)
		jm += b2i(vm < base || udm > maxc)
	}
	if n%2 == 1 {
		// Odd tail: one straggler handled by the high cursor.
		i := n - 1
		v := src[i]
		ud := uint64(v-base) & mask
		codes[i] = uint32(ud)
		missHi[jm] = int32(i)
		jm += b2i(v < base || ud > maxc)
	}
	return append(miss[:j0], missHi[:jm]...)
}

// detectPFORBranchy is the NAIVE detection loop with an if-then-else in the
// hot path, kept as the Figure-5 baseline.
func detectPFORBranchy[T Integer](e *Encoder[T], src []T, base T, b uint) []int32 {
	codes, miss := e.codes, e.miss
	mask := typeMask[T]()
	maxc := maxCode(b)
	j := 0
	for i := 0; i < len(src); i++ {
		v := src[i]
		ud := uint64(v-base) & mask
		if v < base || ud > maxc {
			miss[j] = int32(i)
			j++
		} else {
			codes[i] = uint32(ud)
		}
	}
	return miss[:j]
}

// decompressPFOR is the two-loop patch decompression of Section 3.1:
// LOOP1 decodes every slot regardless of whether it is an exception,
// LOOP2 patches the exceptions in.
func decompressPFOR[T Integer](blk *Block[T], raw []uint32, dst []T) {
	base := blk.Base
	// LOOP1: decode regardless.
	for i, c := range raw[:blk.N] {
		dst[i] = base + T(c)
	}
	// LOOP2: patch it up.
	patchGroups(blk, raw, dst)
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
