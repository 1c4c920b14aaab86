package core

// This file implements PFOR-DELTA: PFOR applied to the differences between
// subsequent values. It is the scheme of choice for monotonic or
// near-monotonic sequences — clustered keys, dates, and especially the
// d-gaps of inverted files (Section 5). Decompression patches the delta
// array first and only then computes the running sum; in the paper's words
// (footnote 3) LOOP1 and LOOP2 are swapped, "otherwise the bogus codes of
// the exceptions mess up the sequence of differences".

// CompressPFORDelta compresses src as PFOR over its consecutive
// differences. base is the value preceding src[0] (use 0, or the last value
// of the previous block when chaining blocks); deltaBase is the
// frame-of-reference value for the delta domain (0 for monotonic sequences,
// possibly negative for noisy ones); b is the code width.
func CompressPFORDelta[T Integer](src []T, base, deltaBase T, b uint) *Block[T] {
	return detach(new(Encoder[T]).pforDelta(src, base, deltaBase, b))
}

func (e *Encoder[T]) pforDelta(src []T, base, deltaBase T, b uint) *Block[T] {
	checkWidth[T](b)
	checkLen(len(src))
	blk := e.newBlock(Block[T]{Scheme: SchemePFORDelta, B: b, N: len(src), Base: base, DeltaBase: deltaBase})

	n := len(src)
	e.deltas = sized(e.deltas, n)
	deltas := e.deltas
	prev := base
	for i := 0; i < n; i++ {
		deltas[i] = src[i] - prev // wraps; the running sum wraps back
		prev = src[i]
	}

	// Running totals per group enable fine-grained access: Totals[g] is
	// the reconstructed value just before group g starts.
	blk.Totals = sized(blk.Totals, blk.NumGroups())
	for g := range blk.Totals {
		if g == 0 {
			blk.Totals[g] = base
		} else {
			blk.Totals[g] = src[g*GroupSize-1]
		}
	}

	// Exceptions store the raw delta (paper: "PFOR-DELTA:
	// ENCODE(input[cur])" — the delta-domain value, not the running sum).
	e.finish(blk, detectPFORDC(e, deltas, deltaBase, b), deltas)
	return blk
}

// decompressPFORDelta reverses CompressPFORDelta: decode deltas, patch the
// delta array, then integrate.
func decompressPFORDelta[T Integer](blk *Block[T], raw []uint32, dst []T) {
	db := blk.DeltaBase
	// Decode all delta slots regardless.
	for i, c := range raw[:blk.N] {
		dst[i] = db + T(c)
	}
	// Patch the delta array before integration.
	patchGroups(blk, raw, dst)
	// Running sum.
	acc := blk.Base
	for i := range dst[:blk.N] {
		acc += dst[i]
		dst[i] = acc
	}
}

// decompressPFORDeltaGroup decodes exactly one 128-value group into dst
// (len >= group length), used by fine-grained access. The paper notes that
// fine-grained PFOR-DELTA access "requires decompressing a vector of 128
// values"; the per-group running total makes that self-contained.
func (d *Decoder[T]) decompressPFORDeltaGroup(blk *Block[T], g int, raw []uint32, dst []T) int {
	gStart := g * GroupSize
	gEnd := gStart + GroupSize
	if gEnd > blk.N {
		gEnd = blk.N
	}
	n := gEnd - gStart
	db := blk.DeltaBase
	out := dst[:n]
	for i, c := range raw[:n] {
		out[i] = db + T(c)
	}
	blk.exceptions(g, GroupSize-1, raw, &d.offs, dst) // LOOP2
	acc := blk.Totals[g]
	for i, v := range out {
		acc += v
		out[i] = acc
	}
	return n
}
