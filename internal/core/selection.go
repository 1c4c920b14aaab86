package core

import (
	"math/bits"
	"slices"
)

// SelectionVector is a per-block selection bitmap: one bit per row, bit i
// set iff row i survives the predicates evaluated so far. It is the
// composition currency of multi-predicate scans — each predicate's
// compare kernels produce or refine one of these, bitmaps from several
// columns are intersected word by word, and only the rows still set are
// ever materialized (the MonetDB/X100 selection-vector idea, held in
// bitmap form so conjunction is a single AND per 32 rows).
//
// The words beyond Len() bits are always zero; every producer in this
// package maintains that invariant, so Count and And need no tail masking.
type SelectionVector struct {
	words []uint32
	n     int
}

// selWords returns the number of mask words covering n rows.
func selWords(n int) int { return (n + 31) / 32 }

// size (re)shapes sv to n rows without defined bit contents, reusing the
// backing array when it is large enough.
func (sv *SelectionVector) size(n int) {
	words := selWords(n)
	if cap(sv.words) < words {
		sv.words = make([]uint32, words)
	}
	sv.words = sv.words[:words]
	sv.n = n
}

// Reset shapes sv to n rows with every bit clear.
func (sv *SelectionVector) Reset(n int) {
	sv.size(n)
	clear(sv.words)
}

// Fill shapes sv to n rows with every bit set (tail bits stay zero).
func (sv *SelectionVector) Fill(n int) {
	sv.size(n)
	for i := range sv.words {
		sv.words[i] = ^uint32(0)
	}
	if tail := n % 32; tail > 0 {
		sv.words[len(sv.words)-1] = 1<<uint(tail) - 1
	}
}

// Len returns the number of rows the vector covers.
func (sv *SelectionVector) Len() int { return sv.n }

// Words exposes the backing mask words — one bit per row, 32 rows per
// word, bits beyond Len() zero. Callers iterate matches with the usual
// m &= m-1 / TrailingZeros32 walk, or AND whole words; they must preserve
// the zero-tail invariant when writing.
func (sv *SelectionVector) Words() []uint32 { return sv.words }

// Count returns the number of set bits (rows selected).
func (sv *SelectionVector) Count() int { return popCount(sv.words) }

// popCount returns the number of set bits in words.
func popCount(words []uint32) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount32(w)
	}
	return c
}

// Any reports whether at least one row is selected.
func (sv *SelectionVector) Any() bool {
	for _, w := range sv.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Test reports whether row i is selected. i must be in [0, Len()).
func (sv *SelectionVector) Test(i int) bool {
	return sv.words[i>>5]>>(uint(i)&31)&1 != 0
}

// Set selects row i. i must be in [0, Len()).
func (sv *SelectionVector) Set(i int) {
	sv.words[i>>5] |= 1 << (uint(i) & 31)
}

// Clear deselects row i. i must be in [0, Len()).
func (sv *SelectionVector) Clear(i int) {
	sv.words[i>>5] &^= 1 << (uint(i) & 31)
}

// And intersects sv with other in place: a branch-free word-wise AND.
// Both vectors must cover the same number of rows.
func (sv *SelectionVector) And(other *SelectionVector) {
	if sv.n != other.n {
		panic("core: AND of selection vectors of different lengths")
	}
	for i, w := range other.words {
		sv.words[i] &= w
	}
}

// Or unions sv with other in place: a branch-free word-wise OR — the
// composition step for disjunctive predicates, where each OR-branch
// builds its own match bitmap and the branches fold together one word
// per 32 rows. Both vectors must cover the same number of rows. Both
// inputs keep their tail bits zero, so the union preserves the
// zero-tail invariant without masking.
func (sv *SelectionVector) Or(other *SelectionVector) {
	if sv.n != other.n {
		panic("core: OR of selection vectors of different lengths")
	}
	for i, w := range other.words {
		sv.words[i] |= w
	}
}

// AppendRows appends base+i for every selected row i to dst, in row
// order — the bitmap-to-row-number decode of the materialization step.
// dst is sized once from Count and filled through indexed stores (per-row
// appends reload and spill the slice header on every row); a full mask
// word emits its 32 consecutive numbers without a bit walk.
func (sv *SelectionVector) AppendRows(dst []int64, base int64) []int64 {
	k, count := len(dst), sv.Count()
	dst = slices.Grow(dst, count)[:k+count]
	for w, m := range sv.words {
		vb := base + int64(w)<<5
		if m == ^uint32(0) {
			run := dst[k : k+32]
			for j := range run {
				run[j] = vb + int64(j)
			}
			k += 32
			continue
		}
		for ; m != 0; m &= m - 1 {
			dst[k] = vb + int64(bits.TrailingZeros32(m))
			k++
		}
	}
	return dst
}
