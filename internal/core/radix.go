package core

import (
	"math/bits"
	"slices"
)

const (
	// radixMinLen is the input length below which sortInto falls back to
	// the comparison sort: under it the digit tables cost more than the
	// comparisons they replace.
	radixMinLen = 96
	// maxDigitBits bounds a radix digit. Wider digits save passes but
	// scatter to more open cache lines than the first-level cache holds;
	// measured on 4096-value blocks, 9 to 11 bits gain nothing over 8.
	maxDigitBits = 8
	// msdBits is the digit of the one most-significant pass that sorts keys
	// spread over their whole range, and msdMaxBucket the fullest bucket it
	// leaves to insertion sort.
	msdBits      = 12
	msdMaxBucket = 64
)

// sorter is the scratch of sortInto: two ping-pong buffers, two digit
// tables (the offsets of the pass under way and the counts of the next),
// and the histograms that pick a path for wide keys.
type sorter[T Integer] struct {
	a, b   []T
	tables [2][1 << maxDigitBits]uint32
	lens   [65]uint32           // every eighth key by bit length
	top    [1 << msdBits]uint32 // keys by their top msdBits bits
}

// sortInto returns the values of src in ascending order of T, in a buffer
// owned by s that stays valid until the next call, or src itself if it is
// in order already; src is left untouched.
//
// Fixed-width integers sort in a handful of linear passes. One pass finds
// the minimum and maximum and notices input that is already sorted (a
// clustered key column). Otherwise values are keyed by their exact unsigned
// distance from the minimum — the order of T for signed and unsigned types
// alike — so the keys are no wider than the spread of the input. Keys of
// up to two digits are sorted least significant digit first (lsd). Wider
// ones take one of three paths:
//   - a dense cluster with a sparse tail, as exceptions make it: when at
//     most an eighth of the keys lie at or above 2^L for an L that takes
//     fewer digits, one pass splits the two, the cluster is sorted on L
//     bits and the tail by comparison;
//   - keys spread over the whole range: when no bucket of their top
//     msdBits bits holds more than msdMaxBucket keys, one scatter on those
//     bits and an insertion sort finish the job;
//   - anything else is sorted least significant digit first.
func (s *sorter[T]) sortInto(src []T) []T {
	n := len(src)
	if n == 0 {
		return src
	}
	lo, hi, prev, ordered := src[0], src[0], src[0], true
	for _, v := range src[1:] {
		ordered = ordered && v >= prev
		prev = v
		lo, hi = min(lo, v), max(hi, v)
	}
	if ordered {
		return src
	}
	s.a = sized(s.a, n)
	if n < radixMinLen {
		copy(s.a, src)
		slices.Sort(s.a)
		return s.a
	}
	mask := typeMask[T]()
	keyBits := bits.Len64(uint64(hi-lo) & mask)
	s.b = sized(s.b, n)
	passes, _ := digitsOf(keyBits)
	if passes <= 2 {
		return s.lsd(src, [2][]T{s.a, s.b}, lo, keyBits, false)
	}
	// Every eighth key picks the path; the path steers only the work, and
	// the order comes out the same whichever one runs.
	clear(s.lens[:])
	sampled := uint32(0)
	for i := 0; i < n; i += 8 {
		s.lens[bits.Len64(uint64(src[i]-lo)&mask)]++
		sampled++
	}
	// The narrowest L that leaves at most an eighth of them at or above
	// 2^L, so that at least one of them, hence of src, lies below.
	clusterBits, tail := keyBits, uint32(0)
	for clusterBits > 0 && tail+s.lens[clusterBits] <= sampled/8 {
		tail += s.lens[clusterBits]
		clusterBits--
	}
	if clusterPasses, digitMask := digitsOf(clusterBits); clusterPasses < passes {
		// The cluster fills s.a from the front, the tail from the back;
		// each value is written to both free ends and kept at one. The
		// pass also counts the cluster's lowest digit.
		offs := s.tables[0][:digitMask+1]
		clear(offs)
		limit, front, back := uint64(1)<<clusterBits, 0, n
		for _, v := range src {
			k := uint64(v-lo) & mask
			in := b2i(k < limit)
			offs[k&digitMask] += uint32(in)
			s.a[front], s.a[back-1] = v, v
			front, back = front+in, back-1+in
		}
		if sorted := s.lsd(s.a[:front], [2][]T{s.b[:front], s.a[:front]}, lo, clusterBits, true); &sorted[0] != &s.a[0] {
			copy(s.a, sorted)
		}
		slices.Sort(s.a[front:])
		return s.a
	}
	topShift := uint(keyBits - msdBits)
	clear(s.top[:])
	for _, v := range src {
		s.top[uint64(v-lo)&mask>>topShift]++
	}
	if slices.Max(s.top[:]) <= msdMaxBucket {
		sum := uint32(0)
		for i, c := range s.top {
			s.top[i], sum = sum, sum+c
		}
		for _, v := range src {
			x := uint64(v-lo) & mask >> topShift
			s.a[s.top[x]] = v
			s.top[x]++
		}
		// Every value is in its bucket already, so none moves further
		// than its bucket is long.
		for i, v := range s.a {
			j := i
			for ; j > 0 && s.a[j-1] > v; j-- {
				s.a[j] = s.a[j-1]
			}
			s.a[j] = v
		}
		return s.a
	}
	return s.lsd(src, [2][]T{s.a, s.b}, lo, keyBits, false)
}

// digitsOf cuts keys of the given width into equal digits of at most
// maxDigitBits, one LSD pass each.
func digitsOf(keyBits int) (passes int, digitMask uint64) {
	passes = (keyBits + maxDigitBits - 1) / maxDigitBits
	if passes == 0 {
		return 0, 0
	}
	return passes, 1<<((keyBits+passes-1)/passes) - 1
}

// lsd sorts from, whose keys above lo are keyBits wide, into bufs[0] and
// bufs[1] in turn and returns the one that ends up holding the result (or
// from, if no pass was needed); from must not be bufs[0]. counted says
// that s.tables[0] holds the counts of the lowest digit already. Each digit
// costs one stable scatter pass, which also counts the next digit; a digit
// shared by all keys is skipped.
func (s *sorter[T]) lsd(from []T, bufs [2][]T, lo T, keyBits int, counted bool) []T {
	n := len(from)
	mask := typeMask[T]()
	passes, digitMask := digitsOf(keyBits)
	digitBits := uint(bits.Len64(digitMask))
	next := 0
	for p := 0; p < passes; p++ { // counted: whether the table of this pass holds its counts
		shift := uint(p) * digitBits
		offs := s.tables[p&1][:digitMask+1]
		if !counted {
			clear(offs)
			for _, v := range from {
				offs[uint64(v-lo)&mask>>shift&digitMask]++
			}
		}
		counted = false
		if offs[uint64(from[0]-lo)&mask>>shift&digitMask] == uint32(n) {
			continue // every key has the same digit here
		}
		sum := uint32(0)
		for i, c := range offs {
			offs[i], sum = sum, sum+c
		}
		to := bufs[next]
		if p+1 < passes {
			ahead := s.tables[(p+1)&1][:digitMask+1]
			clear(ahead)
			for _, v := range from {
				k := uint64(v-lo) & mask
				ahead[k>>(shift+digitBits)&digitMask]++
				x := k >> shift & digitMask
				to[offs[x]] = v
				offs[x]++
			}
			counted = true
		} else {
			for _, v := range from {
				x := uint64(v-lo) & mask >> shift & digitMask
				to[offs[x]] = v
				offs[x]++
			}
		}
		from, next = to, next^1
	}
	return from
}
