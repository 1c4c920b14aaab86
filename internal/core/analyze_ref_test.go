package core

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// This file keeps the exhaustive compression-mode analysis — clone and sort
// the sample once per scheme, try every width with a full pass over the
// sorted sample — as the oracle the pruned analysis in analyze.go must
// agree with field for field. It shares the cost model's helpers
// (CompulsoryExceptionRate, modelBits, typeMask, maxCode) and nothing else.

// refWindow is the paper's PFOR_ANALYZE_BITS: the start index and length of
// the longest stretch of the sorted sample whose first-to-last difference
// is representable in b bits.
func refWindow[T Integer](sorted []T, b uint) (start, length int) {
	mask := typeMask[T]()
	maxc := maxCode(b)
	length = 1
	lo := 0
	for hi := 0; hi < len(sorted); hi++ {
		for uint64(sorted[hi]-sorted[lo])&mask > maxc {
			lo++
		}
		if hi-lo+1 > length {
			start, length = lo, hi-lo+1
		}
	}
	return start, length
}

func refAnalyzePFOR[T Integer](sample []T) Choice[T] {
	c := Choice[T]{Scheme: SchemePFOR, B: 1, Bits: math.Inf(1)}
	if len(sample) == 0 {
		c.Bits = 0
		return c
	}
	sorted := slices.Clone(sample)
	slices.Sort(sorted)
	s := float64(len(sorted))
	for b := uint(1); b <= min(32, typeBits[T]()); b++ {
		start, length := refWindow(sorted, b)
		e := (s - float64(length)) / s
		ePrime := CompulsoryExceptionRate(e, b)
		bits := modelBits[T](b, ePrime)
		if bits < c.Bits {
			c.B, c.Base, c.Bits, c.ExceptionRate = b, sorted[start], bits, ePrime
		}
		if length == len(sorted) {
			break
		}
	}
	return c
}

func refAnalyzePFORDelta[T Integer](sample []T) Choice[T] {
	c := Choice[T]{Scheme: SchemePFORDelta, B: 1, Bits: math.Inf(1)}
	if len(sample) < 2 {
		c.Bits = 0
		return c
	}
	deltas := make([]T, len(sample)-1)
	for i := 1; i < len(sample); i++ {
		deltas[i-1] = sample[i] - sample[i-1]
	}
	sub := refAnalyzePFOR(deltas)
	c.B, c.DeltaBase, c.Bits, c.ExceptionRate = sub.B, sub.Base, sub.Bits, sub.ExceptionRate
	return c
}

func refAnalyzePDict[T Integer](sample []T) Choice[T] {
	c := Choice[T]{Scheme: SchemePDict, B: 1, Bits: math.Inf(1)}
	if len(sample) == 0 {
		c.Bits = 0
		return c
	}
	sorted := slices.Clone(sample)
	slices.Sort(sorted)

	type bucket struct {
		value T
		count int
	}
	var hist []bucket
	run := 1
	for i := 1; i <= len(sorted); i++ {
		if i < len(sorted) && sorted[i] == sorted[i-1] {
			run++
			continue
		}
		hist = append(hist, bucket{sorted[i-1], run})
		run = 1
	}
	// The total order of AnalyzePDict: falling count, then rising value.
	slices.SortFunc(hist, func(a, b bucket) int {
		return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.value, b.value))
	})

	covered := make([]int, len(hist)+1)
	for i, h := range hist {
		covered[i+1] = covered[i] + h.count
	}

	s := float64(len(sorted))
	bestB := uint(0)
	for b := uint(1); b <= min(MaxDictBits, typeBits[T]()); b++ {
		k := min(1<<b, len(hist))
		e := (s - float64(covered[k])) / s
		ePrime := CompulsoryExceptionRate(e, b)
		dictBits := float64(k) * 8 * float64(unsafe.Sizeof(sorted[0])) / s
		bits := modelBits[T](b, ePrime) + dictBits
		if bits < c.Bits {
			bestB, c.Bits, c.ExceptionRate = b, bits, ePrime
		}
		if k == len(hist) {
			break
		}
	}
	c.B = bestB
	k := min(1<<bestB, len(hist))
	c.Dict = make([]T, k)
	for i := 0; i < k; i++ {
		c.Dict[i] = hist[i].value
	}
	// The ranking picks the members; they are listed in ascending order.
	slices.Sort(c.Dict)
	return c
}

// ReferenceChoose is Choose by exhaustive search. (It and
// CheckAgainstReference are exported for the tests in core_test, which can
// reach the segment serializer and the synthetic column shapes.)
func ReferenceChoose[T Integer](sample []T) Choice[T] {
	var v T
	best := Choice[T]{Scheme: SchemeNone, Bits: float64(unsafe.Sizeof(v)) * 8}
	for _, c := range []Choice[T]{refAnalyzePFOR(sample), refAnalyzePFORDelta(sample), refAnalyzePDict(sample)} {
		overhead := 0.25
		if c.Scheme == SchemePFORDelta {
			overhead = 0.5
		}
		if c.Bits+overhead < best.Bits {
			best = c
			best.Bits += overhead
		}
	}
	return best
}

// SameChoice compares two analysis outcomes field for field; a nil and an
// empty dictionary are the same dictionary.
func SameChoice[T Integer](a, b Choice[T]) bool {
	return a.Scheme == b.Scheme && a.B == b.B && a.Base == b.Base && a.DeltaBase == b.DeltaBase &&
		a.Bits == b.Bits && a.ExceptionRate == b.ExceptionRate && slices.Equal(a.Dict, b.Dict)
}

// CheckAgainstReference asserts that the whole analysis and each scheme's
// own agree with the oracle on sample, and that the choice round-trips.
func CheckAgainstReference[T Integer](t *testing.T, name string, sample []T) {
	t.Helper()
	got, want := Choose(sample), ReferenceChoose(sample)
	if !SameChoice(got, want) {
		t.Fatalf("%s (%T, %d values): Choose = %+v, reference %+v", name, sample, len(sample), got, want)
	}
	for _, pair := range [][2]Choice[T]{
		{AnalyzePFOR(sample), refAnalyzePFOR(sample)},
		{AnalyzePFORDelta(sample), refAnalyzePFORDelta(sample)},
		{AnalyzePDict(sample), refAnalyzePDict(sample)},
	} {
		if !SameChoice(pair[0], pair[1]) {
			t.Fatalf("%s (%T, %d values): scheme analysis = %+v, reference %+v", name, sample, len(sample), pair[0], pair[1])
		}
	}
	if blk := got.Compress(sample); blk != nil {
		checkRoundTrip(t, blk, sample)
	}
}

func TestLongestWindows(t *testing.T) {
	// Sorted sample with a dense stretch [100..107] and two outliers.
	sorted := []int64{-500, 100, 101, 102, 102, 103, 104, 105, 106, 107, 9000}
	widths := [batch]uint{1, 3, 10, 32}
	lengths := longestWindows(sorted, widths)
	if want := [batch]int{3, 9, 10, len(sorted)}; lengths != want {
		t.Fatalf("longest windows at widths %v: %v, want %v", widths, lengths, want)
	}
	for i, w := range widths {
		rs, rl := refWindow(sorted, w)
		if rl != lengths[i] || rs != firstWindow(sorted, w, lengths[i]) {
			t.Fatalf("b=%d: reference window (%d,%d) disagrees", w, rs, rl)
		}
	}
}
