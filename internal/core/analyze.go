package core

import (
	"math"
	"math/bits"
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
// run-length histogram and that to a histogram of counts) and PFOR (which
// slides windows over it) alike, and sorts the consecutive differences once
// for PFOR-DELTA. Every scheme is searched against the cheapest cost found
// so far (raw storage to begin with): a width is skipped when a lower bound
// on its cost, computed with the model's own arithmetic, already exceeds
// that cost, so what is skipped could not have been chosen and the outcome
// is the one an exhaustive search returns (analyze_ref_test.go keeps that
// search as the oracle). Two bounds do the skipping: a histogram of the
// values over coarse cells caps every window before any is measured (and
// before the differences are sorted at all), and the longest window
// measured at one width caps those of the widths after it.

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
// sorted sample, among widths up to maxW, for a scheme that pays overhead
// bits per value on top and matters only if its total does not exceed
// limit. Bits is +Inf when no width can meet limit.
//
// Widths are measured in increasing order, a batch per pass. A window
// twice as wide holds at most twice the values, so the longest window
// found at one width bounds the exception rate — hence the cost — of the
// widths after it from below; those that cannot undercut the best width so
// far, or meet limit, are never measured.
func frame[T Integer](sorted []T, overhead, limit float64, maxW uint) (b uint, base T, bits, excRate float64) {
	n := len(sorted)
	s := float64(n)
	b, bits = 1, math.Inf(1)
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

// cellBits bounds the resolution of the window bound: values are counted
// into about as many cells as there are values, up to 2^cellBits.
const cellBits = 12

// cells is the histogram behind widest.
type cells [1 << cellBits]uint32

// of returns the cells for counting n values.
func (c *cells) of(n int) []uint32 { return c[:min(len(c), 1<<bits.Len(uint(n)))] }

// cellReach bounds from above how many of vals (lo is their minimum; their
// order does not matter) a window of width w bits holds, by counting them
// into cells of width 2^shift. The window lies in at most
// ((2^w-1 + 2^shift-1) >> shift) + 1 consecutive cells, so no window holds
// more than the fullest run of that many. Cells are counted modulo their
// number, which only merges them and so loosens the bound without breaking
// it; a run that would go round them all bounds nothing.
func cellReach[T Integer](c *cells, vals []T, lo T, shift, w uint) int {
	cs := c.of(len(vals))
	ring := uint64(len(cs) - 1)
	span := (maxCode(w)+1<<shift-1)>>shift + 1
	if span > ring {
		return len(vals)
	}
	mask := typeMask[T]()
	clear(cs)
	for _, v := range vals {
		cs[uint64(v-lo)&mask>>shift&ring]++
	}
	sum := 0
	for _, x := range cs[:span] {
		sum += int(x)
	}
	reach := sum
	for i, x := range cs {
		sum += int(cs[(uint64(i)+span)&ring]) - int(x)
		reach = max(reach, sum)
	}
	return reach
}

// widest returns the widest frame width a PFOR search over vals (lo and hi
// are their minimum and maximum; their order does not matter) still has to
// measure: every wider width, paying overhead bits per value on top, costs
// more than limit. It is 0 when no width can meet limit.
//
// The cell bound at a width holds for every narrower width too, and through
// the model's own arithmetic bounds their costs from below. Each round cuts
// the cells to half the widest width left (or finer, when that spans the
// values' range), drops the widths the bound rules out, and asks again for
// the widest of the rest while that is much narrower.
func widest[T Integer](c *cells, vals []T, lo, hi T, overhead, limit float64) uint {
	s := float64(len(vals))
	floor := func(w uint, reach int) float64 { return modelBits[T](w, (s-float64(reach))/s) + overhead }
	w := min(32, typeBits[T]())
	for w > 0 && floor(w, len(vals)) > limit {
		w--
	}
	cellsBits := bits.Len(uint(len(c.of(len(vals))))) - 1
	rangeShift := uint(max(0, bits.Len64(uint64(hi-lo)&typeMask[T]())-cellsBits))
	for w > 0 {
		reach, was := cellReach(c, vals, lo, min(w-1, rangeShift), w), w
		for w > 0 && floor(w, reach) > limit {
			w--
		}
		// Cells cut to a width fewer than three steps narrower are not
		// fine enough to be worth another pass.
		if w+3 > was {
			break
		}
	}
	return w
}

// analyzePFOR searches the sorted sample for the best PFOR frame.
func (e *Encoder[T]) analyzePFOR(sorted []T, limit float64) Choice[T] {
	c := Choice[T]{Scheme: SchemePFOR, B: 1}
	if len(sorted) == 0 {
		return c
	}
	c.Bits = math.Inf(1)
	if w := widest(&e.cells, sorted, sorted[0], sorted[len(sorted)-1], entryBits, limit); w > 0 {
		c.B, c.Base, c.Bits, c.ExceptionRate = frame(sorted, entryBits, limit, w)
	}
	return c
}

// analyzePFORDelta runs the PFOR search on the sorted consecutive
// differences of the sample, yielding the delta-frame base and width. It
// sorts the differences only if widest leaves a width to measure, and then
// takes over the sorter's buffers.
func (e *Encoder[T]) analyzePFORDelta(sample []T, limit float64) Choice[T] {
	c := Choice[T]{Scheme: SchemePFORDelta, B: 1}
	if len(sample) < 2 {
		return c
	}
	c.Bits = math.Inf(1)
	e.deltas = sized(e.deltas, len(sample)-1)
	lo, hi := sample[1]-sample[0], sample[1]-sample[0]
	for i, v := range sample[1:] {
		d := v - sample[i]
		e.deltas[i] = d
		lo, hi = min(lo, d), max(hi, d)
	}
	if w := widest(&e.cells, e.deltas, lo, hi, entryBitsDelta, limit); w > 0 {
		c.B, c.DeltaBase, c.Bits, c.ExceptionRate = frame(e.sort.sortInto(e.deltas), entryBitsDelta, limit, w)
	}
	return c
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

// analyzePDict finds the b for which coding the 2^b most frequent values
// of the sorted sample minimizes the modeled size. The exception rate for
// width b is 1 - (coverage of the top 2^b values), and the coverage of the
// top k is the sum of the k largest counts, which a histogram of the counts
// yields in one walk from the top count down. Which values those are is
// left to dictionary.
func (e *Encoder[T]) analyzePDict(sorted []T) Choice[T] {
	c := Choice[T]{Scheme: SchemePDict, B: 1}
	n := len(sorted)
	if n == 0 {
		return c
	}
	c.Bits = math.Inf(1)
	s := float64(n)
	h := &e.hist
	h.build(sorted)
	distinct := len(h.vals)
	top := int32(0)
	for i := range h.vals {
		top = max(top, h.count(int32(i)))
	}
	e.counts = sized(e.counts, int(top)+1)
	clear(e.counts)
	for i := range h.vals {
		e.counts[h.count(int32(i))]++
	}
	count, left, taken, covered := top, e.counts[top], int32(0), int32(0)
	for b := uint(1); b <= min(MaxDictBits, typeBits[T]()); b++ {
		k := int32(min(1<<b, distinct))
		for taken < k {
			for left == 0 {
				count--
				left = e.counts[count]
			}
			t := min(left, k-taken)
			taken, left, covered = taken+t, left-t, covered+t*count
		}
		ePrime := CompulsoryExceptionRate((s-float64(covered))/s, b)
		// Amortize dictionary storage over the sample.
		if bits := modelBits[T](b, ePrime) + dictBits[T](int(k), s); bits < c.Bits {
			c.B, c.Bits, c.ExceptionRate = b, bits, ePrime
		}
		if int(k) == distinct {
			break
		}
	}
	return c
}

// dictionary returns the 2^b most frequent values of the sample
// analyzePDict last saw, ranked by falling count, then rising value, so
// that membership depends on the sample alone, not on how a sort happens to
// break ties. It lists them in ascending order, so that a value range is
// one code range and a filtered scan stays on the packed range kernels. The
// result is e's scratch, valid until e's next analysis.
//
// The members are the values counted more than the k-th largest count, cut,
// and the first of those counted exactly cut; one sweep over the
// value-ordered histogram takes them.
func (e *Encoder[T]) dictionary(b uint) []T {
	h := &e.hist
	k := int32(min(1<<b, len(h.vals)))
	cut, above := int32(len(e.counts)-1), int32(0)
	for above+e.counts[cut] < k {
		above += e.counts[cut]
		cut--
	}
	need := k - above                // members counted exactly cut
	e.dict = sized(e.dict, int(k)+1) // a spare slot for the write past the last member
	next := 0
	for i, v := range h.vals {
		e.dict[next] = v
		count := h.count(int32(i))
		tie := b2i(count == cut && need > 0)
		next += b2i(count > cut) + tie
		need -= int32(tie)
	}
	return e.dict[:k]
}

// Choose runs all applicable analyses on the sample and returns the
// cheapest scheme, falling back to SchemeNone when nothing beats verbatim
// storage. The returned Dict is e's scratch, valid until e's next
// analysis.
//
// PDICT and PFOR share one sort of the sample; PDICT goes first because a
// sample it suits is one PFOR would spend many widths on. PFOR-DELTA pays
// for a sort of its own and so goes after PFOR, against the tighter limit —
// unless the sample is in order already: then its differences sort in one
// pass, and PFOR-DELTA goes first to tighten PFOR's limit instead. The
// winner is then picked in the paper's order — PFOR, PFOR-DELTA, PDICT,
// each only if strictly cheaper — so ties fall as they would with every
// scheme searched exhaustively.
func (e *Encoder[T]) Choose(sample []T) Choice[T] {
	best := Choice[T]{Scheme: SchemeNone, Bits: float64(typeBits[T]())}
	sorted := e.sort.sortInto(sample)
	pdict := e.analyzePDict(sorted)
	limit := min(best.Bits, pdict.Bits+entryBits)
	var pfor, delta Choice[T]
	if len(sample) > 0 && &sorted[0] == &sample[0] { // sortInto returns a sample in order as it is
		delta = e.analyzePFORDelta(sample, limit)
		pfor = e.analyzePFOR(sorted, min(limit, delta.Bits+entryBitsDelta))
	} else {
		pfor = e.analyzePFOR(sorted, limit)
		delta = e.analyzePFORDelta(sample, min(limit, pfor.Bits+entryBits))
	}
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
	if best.Scheme == SchemePDict {
		best.Dict = e.dictionary(best.B)
	}
	return best
}

// AnalyzePFOR finds the (base, b) pair minimizing modeled PFOR size over
// the sample.
func AnalyzePFOR[T Integer](sample []T) Choice[T] {
	e := GetEncoder[T]()
	defer e.Release()
	return e.analyzePFOR(e.sort.sortInto(sample), math.Inf(1))
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
	c := e.analyzePDict(e.sort.sortInto(sample))
	if len(sample) > 0 {
		c.Dict = slices.Clone(e.dictionary(c.B))
	}
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
