package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// extremes returns the least and greatest values of T.
func extremes[T Integer]() (lo, hi T) {
	hi = T(typeMask[T]()) // all ones: -1 in a signed type
	if hi < 0 {
		hi = T(typeMask[T]() >> 1)
	}
	return hi + 1, hi // the sum wraps round to the least
}

// sortShapes are inputs meant to send sortInto down each of its paths, as
// int64 to be narrowed: in order, short, two-digit keys, a dense cluster
// with tails of far outliers, keys spread over the whole range, and wide
// keys that fit neither (two clusters far apart).
func sortShapes(rng *rand.Rand, n int) map[string][]int64 {
	gen := func(f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	shapes := map[string][]int64{
		"all-equal":    gen(func(int) int64 { return -7 }),
		"ascending":    gen(func(i int) int64 { return int64(i)*3 - 1000 }),
		"descending":   gen(func(i int) int64 { return int64(-i) * 5 }),
		"full-range":   gen(func(int) int64 { return int64(rng.Uint64()) }),
		"one-and-tail": gen(func(i int) int64 { return 3 + int64(b2i(i%50 == 7))<<40 }),
		// A tail value just past the cluster, at exactly 2^L above the
		// minimum, in rows the path's every-eighth-key count never sees.
		"edge-of-cluster": gen(func(i int) int64 { return []int64{int64(i % 1000), 1 << 10, 1 << 40}[b2i(i%32 == 5)+2*b2i(i%32 == 21)] }),
		"two-clusters":    gen(func(i int) int64 { return int64(i%2)<<40 + rng.Int63n(256) }),
		"two-sided":       gen(func(int) int64 { return rng.Int63n(1<<12) - 1<<11 + rng.Int63n(3)<<44 - 1<<44 }),
	}
	for _, spread := range []uint{1, 8, 9, 17, 31, 47} {
		shapes[fmt.Sprint("spread-", spread)] = gen(func(int) int64 {
			return rng.Int63n(1<<spread) - 1<<(spread-1) // negative minimum
		})
	}
	for _, pct := range []int{1, 2, 10, 20} {
		shapes[fmt.Sprint("tail-", pct)] = gen(func(int) int64 {
			if rng.Intn(100) < pct {
				return 1<<20 + rng.Int63n(1<<40)
			}
			return -500 + rng.Int63n(1<<10)
		})
	}
	return shapes
}

func checkSortInto[T Integer](t *testing.T, s *sorter[T], name string, src []T) {
	t.Helper()
	keep := slices.Clone(src)
	want := slices.Clone(src)
	slices.Sort(want)
	if got := s.sortInto(src); !slices.Equal(got, want) {
		t.Fatalf("%s (%T, %d values): not in order", name, src, len(src))
	}
	if !slices.Equal(src, keep) {
		t.Fatalf("%s (%T, %d values): input modified", name, src, len(src))
	}
}

func sortIntoAs[T Integer](t *testing.T, rng *rand.Rand) {
	var s sorter[T] // one sorter throughout: buffers are reused across sizes
	lo, hi := extremes[T]()
	for _, n := range []int{0, 1, 2, radixMinLen - 1, radixMinLen, radixMinLen + 1, 1000, 4096, 70000} {
		for name, vals := range sortShapes(rng, n) {
			src := make([]T, n)
			for i, v := range vals {
				src[i] = T(v)
			}
			checkSortInto(t, &s, name, src)
		}
		minMax := make([]T, n)
		for i := range minMax {
			minMax[i] = []T{lo, hi, lo + 1, hi - 1, 0}[rng.Intn(5)]
		}
		checkSortInto(t, &s, "min-max", minMax)
	}
}

func TestSortInto(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	sortIntoAs[int8](t, rng)
	sortIntoAs[int16](t, rng)
	sortIntoAs[int32](t, rng)
	sortIntoAs[int64](t, rng)
	sortIntoAs[uint8](t, rng)
	sortIntoAs[uint16](t, rng)
	sortIntoAs[uint32](t, rng)
	sortIntoAs[uint64](t, rng)
}

// fuzzAs reads little-endian values of T off data.
func fuzzAs[T Integer](data []byte) []T {
	size := int(typeBits[T]() / 8)
	out := make([]T, len(data)/size)
	for i := range out {
		var u uint64
		for j := 0; j < size; j++ {
			u |= uint64(data[i*size+j]) << (8 * j)
		}
		out[i] = T(u)
	}
	return out
}

// FuzzSortInto checks sortInto against slices.Sort on values of a
// fuzz-chosen element type.
func FuzzSortInto(f *testing.F) {
	f.Add(uint8(3), []byte{})
	rng := rand.New(rand.NewSource(65))
	for _, shape := range []string{"tail-10", "full-range", "two-clusters", "spread-17"} {
		var data []byte
		for _, v := range sortShapes(rng, 200)[shape] {
			data = binary.LittleEndian.AppendUint64(data, uint64(v))
		}
		f.Add(uint8(3), data)
		f.Add(uint8(7), data)
		f.Add(uint8(2), data)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		switch kind % 8 {
		case 0:
			checkSortInto(t, new(sorter[int8]), "fuzz", fuzzAs[int8](data))
		case 1:
			checkSortInto(t, new(sorter[int16]), "fuzz", fuzzAs[int16](data))
		case 2:
			checkSortInto(t, new(sorter[int32]), "fuzz", fuzzAs[int32](data))
		case 3:
			checkSortInto(t, new(sorter[int64]), "fuzz", fuzzAs[int64](data))
		case 4:
			checkSortInto(t, new(sorter[uint8]), "fuzz", fuzzAs[uint8](data))
		case 5:
			checkSortInto(t, new(sorter[uint16]), "fuzz", fuzzAs[uint16](data))
		case 6:
			checkSortInto(t, new(sorter[uint32]), "fuzz", fuzzAs[uint32](data))
		default:
			checkSortInto(t, new(sorter[uint64]), "fuzz", fuzzAs[uint64](data))
		}
	})
}

// checkCellBound asserts, independently of Choose, that the cell bound is
// sound on vals: at every width and every cell width it is at least the
// longest window refWindow measures over the sorted values; and that widest
// drops only widths whose exact cost, computed as the exhaustive search
// does, exceeds the limit.
func checkCellBound[T Integer](t *testing.T, c *cells, rng *rand.Rand, name string, vals []T) {
	t.Helper()
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	s := float64(len(vals))
	maxW := min(32, typeBits[T]())
	costs := make([]float64, maxW+1)
	for w := uint(1); w <= maxW; w++ {
		_, longest := refWindow(sorted, w)
		for shift := uint(0); shift < typeBits[T](); shift++ {
			if got := cellReach(c, vals, lo, shift, w); got < longest {
				t.Fatalf("%s (%T, %d values): width %d, cells of 2^%d: bound %d below the longest window %d",
					name, vals, len(vals), w, shift, got, longest)
			}
		}
		costs[w] = modelBits[T](w, CompulsoryExceptionRate((s-float64(longest))/s, w)) + entryBits
	}
	for range 8 {
		limit := costs[1+rng.Intn(int(maxW))] + rng.Float64() - 0.5
		got := widest(c, vals, lo, hi, entryBits, limit)
		for w := got + 1; w <= maxW; w++ {
			if costs[w] <= limit {
				t.Fatalf("%s (%T, %d values): widest %d under limit %.3f drops width %d costing %.3f",
					name, vals, len(vals), got, limit, w, costs[w])
			}
		}
	}
}

func cellBoundAs[T Integer](t *testing.T, rng *rand.Rand) {
	var c cells
	for iter := 0; iter < 6; iter++ {
		n := 2 + rng.Intn(600)
		spread := uint(1 + rng.Intn(62))
		vals := make([]T, n)
		for i := range vals {
			switch v := rng.Int63n(1<<spread) - rng.Int63n(1<<spread); {
			case rng.Intn(20) == 0:
				vals[i] = T(rng.Uint64()) // an outlier anywhere
			case iter%2 == 1 && i > 0:
				vals[i] = vals[i-1] + T(v>>(spread/2)) // a noisy running sum
			default:
				vals[i] = T(v)
			}
		}
		checkCellBound(t, &c, rng, "values", vals)
		deltas := make([]T, n-1)
		for i := range deltas {
			deltas[i] = vals[i+1] - vals[i]
		}
		checkCellBound(t, &c, rng, "differences", deltas)
	}
}

func TestCellBoundIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	cellBoundAs[int8](t, rng)
	cellBoundAs[int16](t, rng)
	cellBoundAs[int32](t, rng)
	cellBoundAs[int64](t, rng)
	cellBoundAs[uint8](t, rng)
	cellBoundAs[uint16](t, rng)
	cellBoundAs[uint32](t, rng)
	cellBoundAs[uint64](t, rng)
}
