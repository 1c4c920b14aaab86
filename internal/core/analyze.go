package core

import (
	"math"
	"slices"
	"unsafe"
)

// This file implements the compression-mode analysis of Section 3.1
// ("Choosing Compression Schemes"): given a sample of a column, find for
// each scheme the parameters that minimize the modeled compressed size
// b + E(b)*8*sizeof(V) bits per value, then pick the cheapest scheme. The
// paper's analysis is O(s log s) in the sample size s, dominated by the
// sort; here the sample is sorted by radix in O(s) and most widths are
// never measured.
//
// One analysis sorts the sample once, for PDICT (which reduces it to a
// run-length histogram) and PFOR (which slides windows over it) alike, and
// sorts the consecutive differences once for PFOR-DELTA — unless a few
// linear passes show that no frame over them can win. Every scheme is
// searched against the cheapest cost found so far (raw storage to begin
// with): a width is skipped when a lower bound on its cost, computed with
// the model's own arithmetic, already exceeds that cost, so what is
// skipped could not have been chosen and the outcome is the one an
// exhaustive search returns (analyze_ref_test.go keeps that search as the
// oracle).

// DefaultSampleSize is the sample the paper suggests for mode analysis
// ("e.g. s=64K values").
const DefaultSampleSize = 64 * 1024

// Entry points cost 0.25 bits/value (0.5 for PFOR-DELTA, which also stores
// running totals).
const (
	entryBits      = 0.25
	entryBitsDelta = 0.5
)

// Choice is the outcome of compression-mode analysis: a scheme with its
// parameters and the modeled cost in bits per value.
type Choice[T Integer] struct {
	Scheme    Scheme
	B         uint
	Base      T   // PFOR: frame base
	DeltaBase T   // PFOR-DELTA: delta-frame base
	Dict      []T // PDICT: dictionary (most frequent sample values, ascending)
	// Bits is the modeled compressed size in bits per value, including
	// projected exceptions (with the compulsory-exception correction of
	// Figure 6).
	Bits float64
	// ExceptionRate is the projected effective exception rate E'.
	ExceptionRate float64
}

// Compress compresses src with the chosen scheme and parameters into a
// block of its own. For SchemeNone it returns nil (store verbatim).
func (c Choice[T]) Compress(src []T) *Block[T] {
	return detach(new(Encoder[T]).Compress(c, src))
}

// CompulsoryExceptionRate returns the effective exception rate E' after
// accounting for compulsory exceptions, per the paper's formula
//
//	E' = MAX(E, (128E-1)/(128E) * 2^-b)
//
// (Figure 6). With b <= 4 and small E the linked list cannot span the
// gaps between natural exceptions, and E' is dominated by the 2^-b term;
// for b > 4 the effect is negligible.
func CompulsoryExceptionRate(e float64, b uint) float64 {
	if e <= 0 {
		return 0
	}
	t := (128*e - 1) / (128 * e) * math.Pow(2, -float64(b))
	return math.Max(e, t)
}

// batch is how many widths one pass over the sorted sample measures: each
// width's cursor is a chain of dependent loads, and this many chains keep
// the processor busy while one alone would wait on its own last step.
const batch = 4

// longestWindows is the paper's PFOR_ANALYZE_BITS for several widths at
// once: for each it returns the length of the longest stretch of the sorted
// sample whose first-to-last difference is representable in that many bits.
//
// The stretch under a cursor never shrinks: a value that does not fit moves
// both ends, one that fits moves only the far end, so the stretch is always
// as long as the longest seen so far. Each step is one comparison whose
// outcome is added, not branched on.
func longestWindows[T Integer](sorted []T, widths [batch]uint) (lengths [batch]int) {
	mask := typeMask[T]()
	m0, m1, m2, m3 := maxCode(widths[0]), maxCode(widths[1]), maxCode(widths[2]), maxCode(widths[3])
	var l0, l1, l2, l3 int
	for _, v := range sorted {
		l0 += b2i(uint64(v-sorted[l0])&mask > m0)
		l1 += b2i(uint64(v-sorted[l1])&mask > m1)
		l2 += b2i(uint64(v-sorted[l2])&mask > m2)
		l3 += b2i(uint64(v-sorted[l3])&mask > m3)
	}
	n := len(sorted)
	return [batch]int{n - l0, n - l1, n - l2, n - l3}
}

// firstWindow returns the start of the first stretch of the given length
// whose first-to-last difference is representable in b bits.
func firstWindow[T Integer](sorted []T, b uint, length int) int {
	mask := typeMask[T]()
	maxc := maxCode(b)
	for i, v := range sorted[length-1:] {
		if uint64(v-sorted[i])&mask <= maxc {
			return i
		}
	}
	panic("core: no stretch of the measured length")
}

// frame finds the (width, base) pair minimizing modeled PFOR size over the
// sorted sample, for a scheme that pays overhead bits per value on top and
// matters only if its total does not exceed limit. Bits is +Inf when no
// width can meet limit.
//
// Widths are measured in increasing order, a batch per pass. A window
// twice as wide holds at most twice the values, so the longest window
// found at one width bounds the exception rate — hence the cost — of the
// widths after it from below; those that cannot undercut the best width so
// far, or meet limit, are never measured.
func frame[T Integer](sorted []T, overhead, limit float64) (b uint, base T, bits, excRate float64) {
	n := len(sorted)
	s := float64(n)
	b, bits = 1, math.Inf(1)
	maxW := min(32, typeBits[T]())
	known, reach := uint(0), n // the longest window at width known holds reach values
	for known < maxW {
		// The next widths still worth measuring.
		var widths [batch]uint
		picked := 0
		for w := known + 1; w <= maxW && picked < batch; w++ {
			within := min(n, reach<<min(w-known, 32))
			if floor := modelBits[T](w, (s-float64(within))/s); floor < bits && floor+overhead <= limit {
				widths[picked] = w
				picked++
			}
		}
		if picked == 0 {
			break
		}
		for i := picked; i < batch; i++ {
			widths[i] = widths[picked-1]
		}
		lengths := longestWindows(sorted, widths)
		for i, w := range widths[:picked] {
			ePrime := CompulsoryExceptionRate((s-float64(lengths[i]))/s, w)
			if cost := modelBits[T](w, ePrime); cost < bits {
				b, base, bits, excRate = w, sorted[firstWindow(sorted, w, lengths[i])], cost, ePrime
			}
		}
		known, reach = widths[picked-1], lengths[picked-1]
		if reach == n {
			break // wider codes can only cost more once everything fits
		}
	}
	return b, base, bits, excRate
}

// analyzePFOR searches the sorted sample for the best PFOR frame.
func analyzePFOR[T Integer](sorted []T, limit float64) Choice[T] {
	c := Choice[T]{Scheme: SchemePFOR, B: 1}
	if len(sorted) > 0 {
		c.B, c.Base, c.Bits, c.ExceptionRate = frame(sorted, entryBits, limit)
	}
	return c
}

// analyzePFORDelta runs the PFOR search on the sorted consecutive
// differences of the sample, yielding the delta-frame base and width. It
// takes over the sorter's buffers.
func (e *Encoder[T]) analyzePFORDelta(sample []T, limit float64) Choice[T] {
	c := Choice[T]{Scheme: SchemePFORDelta, B: 1}
	if len(sample) < 2 {
		return c
	}
	c.Bits = math.Inf(1)
	if modelBits[T](1, 0)+entryBitsDelta > limit {
		return c
	}
	e.deltas = sized(e.deltas, len(sample)-1)
	for i, v := range sample[1:] {
		e.deltas[i] = v - sample[i]
	}
	if !deltaFrameViable(e.deltas, limit) {
		return c
	}
	c.B, c.DeltaBase, c.Bits, c.ExceptionRate = frame(e.sort.sortInto(e.deltas), entryBitsDelta, limit)
	return c
}

// deltaFrameViable reports whether some PFOR-DELTA frame over deltas could
// cost no more than limit, from a few linear passes instead of a sort. It
// errs only towards true.
//
// The widest width worth trying is the largest w with w+overhead <= limit.
// No window that wide or narrower holds more values than the fullest cell
// that could contain it (fullestCell), which bounds the cost of all those
// widths from below. If the widest still meets limit under that bound the
// sort is needed; otherwise only the narrower widths that do are left, and
// the question repeats for the widest of them.
func deltaFrameViable[T Integer](deltas []T, limit float64) bool {
	s := float64(len(deltas))
	cost := func(w uint, reach int) float64 {
		return modelBits[T](w, (s-float64(reach))/s) + entryBitsDelta
	}
	if cost(1, len(deltas)/2) <= limit {
		return true // a vote says nothing about windows holding half the deltas or fewer
	}
	widest := uint(0)
	for w := uint(1); w <= min(32, typeBits[T]()) && cost(w, len(deltas)) <= limit; w++ {
		widest = w
	}
	lo := slices.Min(deltas)
	// A round costs two passes and a sort about ten; three rounds settle
	// every shape tried, and giving up only means sorting after all.
	for round := 0; widest > 0 && round < 3; round++ {
		reach := max(len(deltas)/2, fullestCell(deltas, lo, widest))
		if cost(widest, reach) <= limit {
			return true
		}
		for widest > 0 && cost(widest, reach) > limit {
			widest--
		}
	}
	return widest > 0
}

// fullestCell bounds from above the number of deltas any window of width w
// bits holds, provided it is more than half of them; lo is their minimum.
//
// Cut the value range into cells twice the window's size, once from lo and
// once shifted by half a cell: every window lies inside one cell of one of
// the two grids. A majority vote per grid finds the only cell that can hold
// more than half the deltas, and a second pass counts the two candidates.
func fullestCell[T Integer](deltas []T, lo T, w uint) int {
	mask := typeMask[T]()
	var cellA, cellB uint64
	var votesA, votesB int
	for _, d := range deltas {
		half := (uint64(d-lo) & mask) >> w
		a, b := half>>1, (half+1)>>1
		if votesA == 0 {
			cellA = a
		}
		votesA += 2*b2i(a == cellA) - 1
		if votesB == 0 {
			cellB = b
		}
		votesB += 2*b2i(b == cellB) - 1
	}
	inA, inB := 0, 0
	for _, d := range deltas {
		half := (uint64(d-lo) & mask) >> w
		inA += b2i(half>>1 == cellA)
		inB += b2i((half+1)>>1 == cellB)
	}
	return max(inA, inB)
}

// MaxDictBits caps PDICT dictionaries at 2^16 entries; beyond that the
// dictionary itself stops paying for its storage on block-sized data.
const MaxDictBits = 16

// runs is the run-length histogram of a sorted sample: its distinct values
// in ascending order with the number of sample values below each.
type runs[T Integer] struct {
	vals []T
	cum  []int32 // cum[i] = values below vals[i]; cum[len(vals)] = sample size
}

// build reduces a sorted sample to its histogram.
func (h *runs[T]) build(sorted []T) {
	n := len(sorted)
	h.vals, h.cum = sized(h.vals, n), sized(h.cum, n+1)
	h.cum[0] = 0
	if n == 0 {
		return
	}
	// Every position writes the slot of the run in progress; the slot
	// advances where the value changes, so the loop has no branch to miss.
	vals, cum, k := h.vals, h.cum[1:], 0
	for i, v := range sorted[:n-1] {
		vals[k], cum[k] = v, int32(i+1)
		k += b2i(v != sorted[i+1])
	}
	vals[k], cum[k] = sorted[n-1], int32(n)
	h.vals, h.cum = vals[:k+1], h.cum[:k+2]
}

// count returns how often vals[i] occurs in the sample.
func (h *runs[T]) count(i int32) int32 { return h.cum[i+1] - h.cum[i] }

// analyzePDict ranks the distinct values of the sorted sample by frequency
// and finds the b for which coding the 2^b most frequent values minimizes
// the modeled size. The exception rate for width b is 1 - (coverage of the
// top 2^b values). The ranking is total — falling count, then rising value
// — so the dictionary's membership depends on the sample alone, not on how
// a sort happens to break ties; the members are returned in ascending
// order. Bits is +Inf when no width can meet limit. The returned Dict is
// e's scratch, valid until e's next analysis.
func (e *Encoder[T]) analyzePDict(sorted []T, limit float64) Choice[T] {
	c := Choice[T]{Scheme: SchemePDict, B: 1}
	n := len(sorted)
	if n == 0 {
		return c
	}
	c.Bits = math.Inf(1)
	s := float64(n)
	maxB := min(MaxDictBits, typeBits[T]())
	h := &e.hist
	h.build(sorted)
	distinct := len(h.vals)

	// The 2^b most frequent values cover at most 2^b times the top count;
	// unless that makes some width viable the ranking is not needed.
	top := int32(0)
	for i := range h.vals {
		top = max(top, h.count(int32(i)))
	}
	viable := false
	for b := uint(1); b <= maxB && !viable; b++ {
		k := min(1<<b, distinct)
		cover := min(int64(n), int64(k)*int64(top))
		viable = modelBits[T](b, (s-float64(cover))/s)+dictBits[T](k, s)+entryBits <= limit
		if k == distinct {
			break
		}
	}
	if !viable {
		return c
	}

	// Stable counting sort on falling count over the value-ordered
	// histogram: the total order above, in linear time.
	e.slots = sized(e.slots, int(top)+1)
	clear(e.slots)
	for i := range h.vals {
		e.slots[h.count(int32(i))]++
	}
	at := int32(0)
	for count := top; count >= 1; count-- {
		e.slots[count], at = at, at+e.slots[count]
	}
	e.rank = sized(e.rank, distinct)
	for i := range h.vals {
		slot := &e.slots[h.count(int32(i))]
		e.rank[*slot] = int32(i)
		*slot++
	}

	taken, covered := 0, int32(0)
	for b := uint(1); b <= maxB; b++ {
		k := min(1<<b, distinct)
		for ; taken < k; taken++ {
			covered += h.count(e.rank[taken])
		}
		ePrime := CompulsoryExceptionRate((s-float64(covered))/s, b)
		// Amortize dictionary storage over the sample.
		if bits := modelBits[T](b, ePrime) + dictBits[T](k, s); bits < c.Bits {
			c.B, c.Bits, c.ExceptionRate = b, bits, ePrime
		}
		if k == distinct {
			break
		}
	}
	// The ranking decides who is in the dictionary, not where: the members
	// are emitted in ascending order, so that a value range is one code
	// range and a filtered scan stays on the packed range kernels. Entry i
	// ranks among the first k exactly when it outranks or is the last
	// member, which one sweep over the value-ordered histogram tests.
	k := min(1<<c.B, distinct)
	last := e.rank[k-1]
	cut := h.count(last)
	e.dict = sized(e.dict, k+1) // a spare slot for the write past the last member
	next := 0
	for i, v := range h.vals {
		e.dict[next] = v
		count := h.count(int32(i))
		next += b2i(count > cut || (count == cut && int32(i) <= last))
	}
	c.Dict = e.dict[:k]
	return c
}

// Choose runs all applicable analyses on the sample and returns the
// cheapest scheme, falling back to SchemeNone when nothing beats verbatim
// storage. The returned Dict is e's scratch, valid until e's next
// analysis.
//
// PDICT and PFOR share one sort of the sample; PDICT goes first because a
// sample it suits is one PFOR would spend many widths on. PFOR-DELTA pays
// for a sort of its own and so goes last, against the tightest limit. The
// winner is then picked in the paper's order — PFOR, PFOR-DELTA, PDICT,
// each only if strictly cheaper — so ties fall as they would with every
// scheme searched exhaustively.
func (e *Encoder[T]) Choose(sample []T) Choice[T] {
	best := Choice[T]{Scheme: SchemeNone, Bits: float64(typeBits[T]())}
	sorted := e.sort.sortInto(sample)
	pdict := e.analyzePDict(sorted, best.Bits)
	pfor := analyzePFOR(sorted, min(best.Bits, pdict.Bits+entryBits))
	delta := e.analyzePFORDelta(sample, min(best.Bits, pdict.Bits+entryBits, pfor.Bits+entryBits))
	for _, c := range [...]Choice[T]{pfor, delta, pdict} {
		overhead := entryBits
		if c.Scheme == SchemePFORDelta {
			overhead = entryBitsDelta
		}
		if c.Bits+overhead < best.Bits {
			best = c
			best.Bits += overhead
		}
	}
	return best
}

// AnalyzePFOR finds the (base, b) pair minimizing modeled PFOR size over
// the sample.
func AnalyzePFOR[T Integer](sample []T) Choice[T] {
	e := GetEncoder[T]()
	defer e.Release()
	return analyzePFOR(e.sort.sortInto(sample), math.Inf(1))
}

// AnalyzePFORDelta finds the (delta base, b) pair minimizing modeled
// PFOR-DELTA size over the sample.
func AnalyzePFORDelta[T Integer](sample []T) Choice[T] {
	e := GetEncoder[T]()
	defer e.Release()
	return e.analyzePFORDelta(sample, math.Inf(1))
}

// AnalyzePDict finds the dictionary — the 2^b most frequent sample values
// by falling count, then rising value, listed in ascending order —
// minimizing modeled PDICT size.
func AnalyzePDict[T Integer](sample []T) Choice[T] {
	e := GetEncoder[T]()
	defer e.Release()
	c := e.analyzePDict(e.sort.sortInto(sample), math.Inf(1))
	c.Dict = slices.Clone(c.Dict)
	return c
}

// Choose runs the compression-mode analysis on the sample with pooled
// scratch; see Encoder.Choose.
func Choose[T Integer](sample []T) Choice[T] {
	e := GetEncoder[T]()
	defer e.Release()
	c := e.Choose(sample)
	c.Dict = slices.Clone(c.Dict)
	return c
}

// Sample extracts an analysis sample of at most maxN values from src as a
// set of contiguous runs spread across the input. Runs (rather than strided
// single values) keep consecutive-difference statistics intact, which the
// PFOR-DELTA analysis depends on: a strided sample of a dense sequential
// key would see deltas of `stride` instead of 1 and mis-parameterize the
// codec.
func Sample[T Integer](src []T, maxN int) []T {
	if len(src) <= maxN {
		return src
	}
	return sampleInto(nil, src, maxN)
}

// sampleInto builds the run sample of a src longer than maxN values in
// buf's backing array when it is large enough.
func sampleInto[T Integer](buf, src []T, maxN int) []T {
	runs := min(64, maxN)
	runLen := maxN / runs
	stride := len(src) / runs
	out := sized(buf, runs*runLen)[:0]
	for r := 0; r < runs; r++ {
		lo := r * stride
		out = append(out, src[lo:lo+runLen]...)
	}
	return out
}

// modelBits is the paper's cost model: b bits for every code plus
// 8*sizeof(V) bits for each projected exception.
func modelBits[T Integer](b uint, excRate float64) float64 {
	var v T
	return float64(b) + excRate*8*float64(unsafe.Sizeof(v))
}

// dictBits is a k-entry dictionary's storage amortized over s values.
func dictBits[T Integer](k int, s float64) float64 {
	var v T
	return float64(k) * 8 * float64(unsafe.Sizeof(v)) / s
}
