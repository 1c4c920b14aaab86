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
)

// sorter is the scratch of sortInto: two ping-pong buffers and two digit
// tables (the offsets of the pass under way and the counts of the next).
type sorter[T Integer] struct {
	a, b   []T
	tables [2][1 << maxDigitBits]uint32
}

// sortInto returns the values of src in ascending order of T, in a buffer
// owned by s that stays valid until the next call; src is left untouched.
//
// Fixed-width integers sort in a handful of linear passes. One pass finds
// the minimum and maximum and notices input that is already sorted (a
// clustered key column), which is copied and returned. Otherwise values
// are keyed by their exact unsigned distance from the minimum — the order
// of T for signed and unsigned types alike — so the keys are no wider than
// the spread of the input, and that width is cut into equal digits of at
// most maxDigitBits. Each digit costs one stable scatter pass, which also
// counts the next digit; a digit shared by all keys is skipped.
func (s *sorter[T]) sortInto(src []T) []T {
	n := len(src)
	s.a = sized(s.a, n)
	if n < radixMinLen {
		copy(s.a, src)
		slices.Sort(s.a)
		return s.a
	}
	lo, hi, prev, ordered := src[0], src[0], src[0], true
	for _, v := range src[1:] {
		ordered = ordered && v >= prev
		prev = v
		lo, hi = min(lo, v), max(hi, v)
	}
	if ordered {
		copy(s.a, src)
		return s.a
	}
	mask := typeMask[T]()
	keyBits := bits.Len64(uint64(hi-lo) & mask)
	passes := (keyBits + maxDigitBits - 1) / maxDigitBits
	digitBits := uint((keyBits + passes - 1) / passes)
	digitMask := uint64(1)<<digitBits - 1

	s.b = sized(s.b, n)
	bufs := [2][]T{s.a, s.b}
	from, next := src, 0
	counted := false // whether the table of the coming pass holds its counts
	for p := 0; p < passes; p++ {
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
