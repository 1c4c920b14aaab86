package core

import (
	"math/rand"
	"slices"
	"testing"
)

// selectOracleCore filters decompressed values the straightforward way.
func selectOracleCore[T Integer](blk *Block[T], lo, hi T) (rows []int64, vals []T) {
	dst := make([]T, blk.N)
	Decompress(blk, dst)
	for i, v := range dst {
		if v >= lo && v <= hi {
			rows = append(rows, int64(i))
			vals = append(vals, v)
		}
	}
	return rows, vals
}

// checkSelect runs the engine's per-block sequence — DecompressMask, row
// positions from the bitmap, DecompressSelected — against decode-then-filter,
// on blk walked and indexed.
func checkSelect[T Integer](t *testing.T, name string, blk *Block[T], lo, hi T) {
	t.Helper()
	checkSelectOnce(t, name+" walked", blk, lo, hi)
	checkSelectOnce(t, name+" indexed", indexed(t, blk), lo, hi)
}

func checkSelectOnce[T Integer](t *testing.T, name string, blk *Block[T], lo, hi T) {
	t.Helper()
	var d Decoder[T]
	var sv SelectionVector
	wantRows, wantVals := selectOracleCore(blk, lo, hi)
	d.DecompressMask(blk, lo, hi, &sv)
	gotRows := sv.AppendRows(nil, 0)
	gotVals := d.DecompressSelected(blk, &sv, nil)
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("%s [%v,%v]: rows mismatch\n got %v\nwant %v", name, lo, hi, gotRows, wantRows)
	}
	if !slices.Equal(gotVals, wantVals) {
		t.Fatalf("%s [%v,%v]: vals mismatch\n got %v\nwant %v", name, lo, hi, gotVals, wantVals)
	}
}

// rangesFor picks predicate ranges that exercise the interesting shapes:
// empty, inverted, all-covering, single value, windows straddling the
// codable region on both sides.
func rangesFor[T Integer](vals []T) [][2]T {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	n := len(sorted)
	r := [][2]T{
		{sorted[0], sorted[n-1]},             // everything
		{sorted[n/2], sorted[n/2]},           // point
		{sorted[n/4], sorted[3*n/4]},         // middle half
		{sorted[0], sorted[0]},               // min only
		{sorted[n-1], sorted[n-1]},           // max only
		{sorted[n/2] + 1, sorted[n/2]},       // inverted: empty
		{sorted[9*n/10], sorted[n-1]},        // upper tail (outlier land)
		{sorted[0], sorted[n/10]},            // lower tail
		{sorted[n-1] + 1, sorted[n-1] + 10},  // beyond max
		{sorted[0] - 10, sorted[0] - 1},      // below min (may wrap for unsigned)
		{sorted[0] - 1, sorted[n-1] + 1},     // straddling both ends
		{sorted[n/3] - 1, sorted[2*n/3] + 1}, // arbitrary window
	}
	return r
}

// TestMaskGatherOracle drives every scheme, signed and unsigned, across
// exception densities from none to compulsory-heavy.
func TestMaskGatherOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	t.Run("pfor-int64", func(t *testing.T) {
		for _, rate := range []float64{0, 0.02, 0.3} {
			for _, n := range []int{1, 97, 128, 1000, 4099} {
				src := make([]int64, n)
				for i := range src {
					src[i] = 100 + rng.Int63n(1<<10)
					if rng.Float64() < rate {
						src[i] = rng.Int63n(1 << 40)
					}
				}
				blk := CompressPFOR(src, 100, 10)
				for _, r := range rangesFor(src) {
					checkSelect(t, "pfor", blk, r[0], r[1])
				}
			}
		}
	})

	t.Run("pfor-negative-base-int32", func(t *testing.T) {
		src := make([]int32, 2000)
		for i := range src {
			src[i] = -500 + rng.Int31n(1<<8)
			if i%37 == 0 {
				src[i] = -100000 + rng.Int31n(200000)
			}
		}
		blk := CompressPFOR(src, -500, 8)
		for _, r := range rangesFor(src) {
			checkSelect(t, "pfor-neg", blk, r[0], r[1])
		}
	})

	t.Run("pfor-uint8-narrow", func(t *testing.T) {
		src := make([]uint8, 777)
		for i := range src {
			src[i] = 20 + uint8(rng.Intn(16))
			if i%11 == 0 {
				src[i] = uint8(rng.Intn(256))
			}
		}
		blk := CompressPFOR(src, 20, 4)
		for _, r := range rangesFor(src) {
			checkSelect(t, "pfor-u8", blk, r[0], r[1])
		}
	})

	t.Run("pfor-compulsory", func(t *testing.T) {
		// Width 1 forces compulsory exceptions every 2 slots wherever real
		// exceptions are far apart.
		src := make([]int64, 1000)
		for i := range src {
			src[i] = int64(i % 2)
			if i%200 == 0 {
				src[i] = 1 << 30
			}
		}
		blk := CompressPFOR(src, 0, 1)
		for _, r := range rangesFor(src) {
			checkSelect(t, "pfor-compulsory", blk, r[0], r[1])
		}
	})

	t.Run("pfor-delta", func(t *testing.T) {
		for _, rate := range []float64{0, 0.05} {
			src := make([]int64, 3000)
			acc := int64(0)
			for i := range src {
				acc += rng.Int63n(16)
				if rng.Float64() < rate {
					acc += rng.Int63n(1 << 20)
				}
				src[i] = acc
			}
			blk := CompressPFORDelta(src, 0, 0, 4)
			for _, r := range rangesFor(src) {
				checkSelect(t, "pfor-delta", blk, r[0], r[1])
			}
		}
	})

	t.Run("pdict", func(t *testing.T) {
		// A dictionary given out of order: the block stores it ascending,
		// so every value range is one code range.
		dict := []int64{40, 10, 30, 20, 70, 50}
		src := make([]int64, 2500)
		for i := range src {
			src[i] = dict[rng.Intn(len(dict))]
			if rng.Intn(29) == 0 {
				src[i] = 1000 + rng.Int63n(100) // exceptions
			}
		}
		blk := CompressPDict(src, dict, 3)
		for _, r := range rangesFor(src) {
			checkSelect(t, "pdict", blk, r[0], r[1])
		}
		// One code, and a range whose values were not adjacent in the
		// dictionary as given.
		checkSelect(t, "pdict-one-code", blk, int64(70), int64(70))
		checkSelect(t, "pdict-given-apart", blk, int64(10), int64(20))
	})

	t.Run("pdict-uint16", func(t *testing.T) {
		dict := []uint16{5, 6, 7, 8, 1000}
		src := make([]uint16, 1300)
		for i := range src {
			src[i] = dict[rng.Intn(len(dict))]
			if i%53 == 0 {
				src[i] = 60000
			}
		}
		blk := CompressPDict(src, dict, 3)
		for _, r := range rangesFor(src) {
			checkSelect(t, "pdict-u16", blk, r[0], r[1])
		}
	})
}
