package core

import (
	"math/rand"
	"slices"
	"testing"
)

// synthPDict generates values drawn from a dictionary with probability
// 1-excRate and random outliers otherwise.
func synthPDict(rng *rand.Rand, n int, dict []int64, excRate float64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		if rng.Float64() < excRate {
			vals[i] = 1_000_000_000 + rng.Int63n(1<<40)
		} else {
			vals[i] = dict[rng.Intn(len(dict))]
		}
	}
	return vals
}

func makeDict(n int) []int64 {
	dict := make([]int64, n)
	for i := range dict {
		dict[i] = int64(i * 131071)
	}
	return dict
}

func TestPDictRoundTripBasic(t *testing.T) {
	dict := []int64{10, 20, 30, 40}
	src := []int64{10, 40, 20, 20, 77, 30, 10, -3}
	blk := CompressPDict(src, dict, 2)
	if blk.ExceptionCount() != 2 {
		t.Fatalf("want 2 exceptions (77, -3), got %d", blk.ExceptionCount())
	}
	checkRoundTrip(t, blk, src)
}

func TestPDictRoundTripRates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, rate := range []float64{0, 0.05, 0.3, 0.7, 1.0} {
		for _, b := range []uint{1, 4, 8, 12} {
			dict := makeDict(1 << b)
			for _, n := range []int{0, 1, 128, 129, 5000} {
				src := synthPDict(rng, n, dict, rate)
				blk := CompressPDict(src, dict, b)
				checkRoundTrip(t, blk, src)
			}
		}
	}
}

func TestPDictSmallDictLargeWidth(t *testing.T) {
	// Dictionary smaller than the code space: padded entries must never be
	// exposed.
	dict := []int64{5}
	src := []int64{5, 5, 99, 5}
	blk := CompressPDict(src, dict, 8)
	checkRoundTrip(t, blk, src)
	if blk.DictLen != 1 {
		t.Fatalf("DictLen = %d, want 1", blk.DictLen)
	}
	if len(blk.Dict) != 256 {
		t.Fatalf("padded dict length %d, want 256", len(blk.Dict))
	}
}

func TestPDictOversizedDictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: dict larger than code space")
		}
	}()
	CompressPDict([]int64{1}, makeDict(5), 2)
}

func TestPDictDuplicateDictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: duplicate dictionary value")
		}
	}()
	CompressPDict([]int64{1}, []int64{7, 7}, 2)
}

func TestDictLookup(t *testing.T) {
	dict := makeDict(1000)
	var lk dictLookup[int64]
	lk.build(dict)
	for code, v := range dict {
		got, ok := lk.find(v)
		if !ok || got != uint32(code) {
			t.Fatalf("find(%d) = (%d,%v), want (%d,true)", v, got, ok, code)
		}
	}
	if _, ok := lk.find(-1); ok {
		t.Fatal("find(-1) should miss")
	}
	if _, ok := lk.find(131070); ok {
		t.Fatal("find(131070) should miss")
	}
}

func TestDictLookupNarrowTypes(t *testing.T) {
	dict := []int8{-128, -1, 0, 1, 127}
	var lk dictLookup[int8]
	lk.build(dict)
	for code, v := range dict {
		got, ok := lk.find(v)
		if !ok || got != uint32(code) {
			t.Fatalf("find(%d) = (%d,%v), want (%d,true)", v, got, ok, code)
		}
	}
	if _, ok := lk.find(5); ok {
		t.Fatal("find(5) should miss")
	}
}

func TestPDictSkewedFrequencies(t *testing.T) {
	// The PDICT value proposition: skewed frequencies mean a small
	// dictionary covers most values. 4 hot values + a long tail.
	rng := rand.New(rand.NewSource(23))
	hot := []int64{111, 222, 333, 444}
	src := make([]int64, 50_000)
	for i := range src {
		if rng.Float64() < 0.95 {
			src[i] = hot[rng.Intn(4)]
		} else {
			src[i] = rng.Int63()
		}
	}
	blk := CompressPDict(src, hot, 2)
	checkRoundTrip(t, blk, src)
	if r := blk.Ratio(); r < 3 {
		t.Fatalf("skewed PDICT ratio %.2f, want > 3 (2-bit codes on 64-bit values, 5%% exceptions)", r)
	}
}

func TestPDictStringsViaCodes(t *testing.T) {
	// Enumerated storage: the engine stores strings as integer codes; the
	// gender example of Section 2.1.
	type gender = uint8
	src := []gender{0, 1, 1, 0, 1, 0, 0, 1, 1, 1}
	blk := CompressPDict(src, []gender{0, 1}, 1)
	checkRoundTrip(t, blk, src)
	if blk.ExceptionCount() != 0 {
		t.Fatalf("binary column should have no exceptions, got %d", blk.ExceptionCount())
	}
}

// TestPDictCodeRangeBySearch: the two binary searches find the code range
// a linear scan of the dictionary finds, bounds at the ends of the type
// included; a dictionary given in any order is stored ascending and the
// caller's slice is left alone; and the analyzer's dictionaries are
// ascending already.
func TestPDictCodeRangeBySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	given := []int8{50, -3, 127, 0, -128, 7, 1, -100}
	dict := slices.Clone(given)
	src := make([]int8, 700)
	for i := range src {
		src[i] = dict[rng.Intn(len(dict))]
	}
	blk := CompressPDict(src, dict, 3)
	checkRoundTrip(t, blk, src)
	if !slices.Equal(dict, given) {
		t.Fatalf("CompressPDict reordered the caller's dictionary: %v", dict)
	}
	stored := blk.Dict[:blk.DictLen]
	if !slices.IsSorted(stored) {
		t.Fatalf("block dictionary %v is not ascending", stored)
	}
	for lo := -128; lo <= 127; lo++ {
		for hi := lo; hi <= 127; hi++ {
			first, last := -1, -1
			for c, v := range stored {
				if int(v) >= lo && int(v) <= hi {
					if first < 0 {
						first = c
					}
					last = c
				}
			}
			clo, span, ok := pdictCodeRange(stored, int8(lo), int8(hi))
			if ok != (first >= 0) || ok && (int(clo) != first || int(clo+span) != last) {
				t.Fatalf("[%d,%d]: search (%d,%d,%v), scan [%d,%d]", lo, hi, clo, span, ok, first, last)
			}
		}
	}

	skewed := synthPDict(rng, 5000, []int64{900, 17, 512, 64, 3, 333}, 0.02)
	c := AnalyzePDict(skewed)
	if len(c.Dict) < 2 || !slices.IsSorted(c.Dict) {
		t.Fatalf("AnalyzePDict returned dictionary %v, want ascending", c.Dict)
	}
	if got := c.Compress(skewed); !slices.Equal(got.Dict[:got.DictLen], c.Dict) {
		t.Fatal("a block compressed against the analyzer's dictionary does not hold it as chosen")
	}
}
