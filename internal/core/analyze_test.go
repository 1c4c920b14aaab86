package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestCompulsoryExceptionRate(t *testing.T) {
	// Figure 6: with b=1 the effective rate explodes toward ~0.5, with
	// b>4 the effect is negligible.
	if got := CompulsoryExceptionRate(0, 1); got != 0 {
		t.Fatalf("E=0 must stay 0, got %f", got)
	}
	if got := CompulsoryExceptionRate(0.1, 1); got < 0.4 {
		t.Fatalf("b=1 E=0.1: E' = %f, want > 0.4 (Figure 6 shows ~0.46)", got)
	}
	if got := CompulsoryExceptionRate(0.1, 2); got < 0.2 || got > 0.25 {
		t.Fatalf("b=2 E=0.1: E' = %f, want ~0.22 (Figure 6)", got)
	}
	for _, b := range []uint{5, 8, 16} {
		if got := CompulsoryExceptionRate(0.1, b); math.Abs(got-0.1) > 0.04 {
			t.Fatalf("b=%d: compulsory effect should be negligible, E'=%f", b, got)
		}
	}
	// E' is never below E.
	for _, e := range []float64{0.001, 0.01, 0.1, 0.3} {
		for b := uint(1); b <= 24; b++ {
			if got := CompulsoryExceptionRate(e, b); got < e {
				t.Fatalf("E'(%f,%d) = %f < E", e, b, got)
			}
		}
	}
}

func TestAnalyzePFORPicksTightWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	// Values uniform in [1000, 1000+2^9) with 1% outliers: the analyzer
	// should pick b=9 (or 10 with the compulsory correction) and base 1000.
	src := make([]int64, 20_000)
	for i := range src {
		if rng.Float64() < 0.01 {
			src[i] = rng.Int63()
		} else {
			src[i] = 1000 + rng.Int63n(1<<9)
		}
	}
	c := AnalyzePFOR(src)
	if c.B < 8 || c.B > 11 {
		t.Fatalf("chose b=%d, want ~9", c.B)
	}
	blk := c.Compress(src)
	checkRoundTrip(t, blk, src)
	measured := blk.ExceptionRate()
	if math.Abs(measured-c.ExceptionRate) > 0.05 {
		t.Fatalf("projected E'=%.3f but measured %.3f", c.ExceptionRate, measured)
	}
}

func TestAnalyzePFORDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	src := synthMonotonic(rng, 20_000, 7, 0.02)
	c := AnalyzePFORDelta(src)
	if c.B < 6 || c.B > 9 {
		t.Fatalf("chose b=%d for 7-bit gaps, want ~7", c.B)
	}
	blk := c.Compress(src)
	checkRoundTrip(t, blk, src)
}

func TestAnalyzePDict(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// 8 hot values cover 97% of the data.
	hot := makeDict(8)
	src := make([]int64, 30_000)
	for i := range src {
		if rng.Float64() < 0.97 {
			src[i] = hot[rng.Intn(len(hot))]
		} else {
			src[i] = rng.Int63()
		}
	}
	c := AnalyzePDict(src)
	if c.B < 3 || c.B > 5 {
		t.Fatalf("chose b=%d, want ~3", c.B)
	}
	blk := c.Compress(src)
	checkRoundTrip(t, blk, src)
}

func TestChoosePrefersDeltaForMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	src := synthMonotonic(rng, 20_000, 4, 0.01)
	c := Choose(src)
	if c.Scheme != SchemePFORDelta {
		t.Fatalf("monotonic small-gap data chose %v, want PFOR-DELTA", c.Scheme)
	}
	blk := c.Compress(src)
	checkRoundTrip(t, blk, src)
}

func TestChoosePrefersPDictForSkewedEnums(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	// Four widely-spread enum values (so PFOR can't frame them tightly).
	enums := []int64{0, 1 << 30, 1 << 45, 1 << 60}
	src := make([]int64, 20_000)
	for i := range src {
		src[i] = enums[rng.Intn(4)]
	}
	c := Choose(src)
	if c.Scheme != SchemePDict {
		t.Fatalf("enum data chose %v, want PDICT", c.Scheme)
	}
	blk := c.Compress(src)
	checkRoundTrip(t, blk, src)
	if blk.Ratio() < 15 {
		t.Fatalf("4-value enum over int64 should compress > 15x, got %.1f", blk.Ratio())
	}
}

func TestChoosePrefersPFORForClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	// Random order (not monotonic), tight value range around a base:
	// classic PFOR territory (e.g. dates in a warehouse).
	src := make([]int64, 20_000)
	for i := range src {
		src[i] = 730_000 + rng.Int63n(1<<11) // ~date ints
	}
	c := Choose(src)
	if c.Scheme != SchemePFOR && c.Scheme != SchemePDict {
		t.Fatalf("clustered data chose %v, want a non-delta scheme", c.Scheme)
	}
	if c.Scheme == SchemePFOR && (c.B < 10 || c.B > 12) {
		t.Fatalf("PFOR width %d, want ~11", c.B)
	}
}

func TestChooseFallsBackToNone(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	// Full-entropy 64-bit values: nothing compresses; expect SchemeNone.
	src := make([]uint64, 20_000)
	for i := range src {
		src[i] = rng.Uint64()
	}
	c := Choose(src)
	if c.Scheme != SchemeNone {
		t.Fatalf("incompressible data chose %v (%.1f bits), want NONE", c.Scheme, c.Bits)
	}
	if c.Compress(src) != nil {
		t.Fatal("SchemeNone must not produce a block")
	}
}

func TestChooseModeledBitsMatchReality(t *testing.T) {
	// The analyzer's bits/value estimate should predict the actual
	// compressed size within a reasonable margin.
	rng := rand.New(rand.NewSource(58))
	src := make([]int64, 65_536)
	for i := range src {
		if rng.Float64() < 0.03 {
			src[i] = rng.Int63()
		} else {
			src[i] = rng.Int63n(1 << 13)
		}
	}
	c := Choose(src)
	blk := c.Compress(src)
	if blk == nil {
		t.Fatal("expected a compressible choice")
	}
	checkRoundTrip(t, blk, src)
	actualBits := float64(blk.CompressedBytes()) * 8 / float64(len(src))
	if math.Abs(actualBits-c.Bits) > 0.15*c.Bits+1 {
		t.Fatalf("modeled %.2f bits/value, actual %.2f", c.Bits, actualBits)
	}
}

func TestSample(t *testing.T) {
	src := make([]int64, 100_000)
	for i := range src {
		src[i] = int64(i)
	}
	s := Sample(src, 4096)
	if len(s) > 4096 || len(s) < 2048 {
		t.Fatalf("sample size %d, want within (2048, 4096]", len(s))
	}
	// Order preserved (monotone stays monotone).
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatal("sample must preserve order")
		}
	}
	// Run-based sampling keeps local deltas: the dominant sampled delta of
	// a sequential key must be 1, not the run stride.
	ones := 0
	for i := 1; i < len(s); i++ {
		if s[i]-s[i-1] == 1 {
			ones++
		}
	}
	if float64(ones) < 0.9*float64(len(s)) {
		t.Fatalf("only %d/%d sampled deltas are 1; runs are broken", ones, len(s))
	}
	if got := Sample(src, len(src)+5); len(got) != len(src) {
		t.Fatal("small inputs pass through")
	}
}

func TestAnalyzeEmptyAndTiny(t *testing.T) {
	for _, src := range [][]int64{{}, {42}} {
		for _, c := range []Choice[int64]{AnalyzePFOR(src), AnalyzePFORDelta(src), AnalyzePDict(src)} {
			if math.IsInf(c.Bits, 1) {
				t.Fatalf("len=%d: analysis returned +Inf bits", len(src))
			}
		}
		c := Choose(src)
		if blk := c.Compress(src); blk != nil {
			checkRoundTrip(t, blk, src)
		}
	}
}
