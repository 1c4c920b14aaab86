package core_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/experiments"
	"repro/internal/core"
	"repro/internal/segment"
)

// This file checks the compression-mode analysis against the exhaustive
// oracle of analyze_ref_test.go, from outside the package so that it can
// use the synthetic column shapes and the segment serializer.

// benchShapes draws n rows of the benchmark table's five column shapes.
func benchShapes(seed int64, n int) map[string][]int64 {
	return experiments.SynthBenchColumns(rand.New(rand.NewSource(seed)), n)
}

// convert narrows int64 test data to T, wrapping as a store to a narrower
// column would.
func convert[T core.Integer](src []int64) []T {
	out := make([]T, len(src))
	for i, v := range src {
		out[i] = T(v)
	}
	return out
}

// differentialCases are the inputs every element type is checked on, as
// int64 to be narrowed.
func differentialCases() map[string][]int64 {
	seq := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	cases := map[string][]int64{
		"empty":       {},
		"one":         {42},
		"two":         {7, -7},
		"two-equal":   {5, 5},
		"all-equal":   seq(1000, func(int) int64 { return -3 }),
		"two-valued":  seq(1000, func(i int) int64 { return int64(i%2) * (1 << 40) }),
		"increasing":  seq(1000, func(i int) int64 { return int64(i) }),
		"decreasing":  seq(1000, func(i int) int64 { return int64(-i) * 3 }),
		"min-max":     seq(1000, func(i int) int64 { return []int64{math.MinInt64, math.MaxInt64, -1, 0}[i%4] }),
		"wraparound":  seq(1000, func(i int) int64 { return math.MaxInt64 - 500 + int64(i) }), // narrows across the sign boundary
		"distinct":    seq(5000, func(i int) int64 { return int64(uint64(i) * 0x9E3779B97F4A7C15) }),
		"tied-counts": seq(999, func(i int) int64 { return int64(i%37) * 1_000_003 }), // PDICT's cut lands among equal counts
		"short":       seq(90, func(i int) int64 { return int64(90-i) * 1000 }),       // below the radix sort's minimum
	}
	for name, vals := range benchShapes(61, 4096) {
		cases["shape-"+name] = vals
	}
	return cases
}

func checkCasesAs[T core.Integer](t *testing.T, cases map[string][]int64) {
	for name, vals := range cases {
		core.CheckAgainstReference(t, name, convert[T](vals))
	}
}

func TestChooseMatchesReference(t *testing.T) {
	cases := differentialCases()
	checkCasesAs[int8](t, cases)
	checkCasesAs[int16](t, cases)
	checkCasesAs[int32](t, cases)
	checkCasesAs[int64](t, cases)
	checkCasesAs[uint8](t, cases)
	checkCasesAs[uint16](t, cases)
	checkCasesAs[uint32](t, cases)
	checkCasesAs[uint64](t, cases)

	// Beyond the sample size the analysis sees 64 runs of the input, whose
	// seams put large jumps among the deltas.
	var e core.Encoder[int64]
	for name, vals := range benchShapes(62, 3*core.DefaultSampleSize+17) {
		sample := core.Sample(vals, core.DefaultSampleSize)
		if len(sample) != core.DefaultSampleSize {
			t.Fatalf("sample of %d values holds %d", len(vals), len(sample))
		}
		core.CheckAgainstReference(t, "sampled-"+name, sample)
		if got, want := e.Analyze(vals), core.ReferenceChoose(sample); !core.SameChoice(got, want) {
			t.Fatalf("sampled-%s: Encoder.Analyze = %+v, reference %+v", name, got, want)
		}
	}
}

// TestChooseMatchesReferenceRandom draws inputs whose spread, repetition
// and order vary, so that every pruning rule is exercised on both sides of
// its threshold.
func TestChooseMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(3000)
		spread := uint(1 + rng.Intn(62))
		pool := make([]int64, 1+rng.Intn(n))
		for i := range pool {
			pool[i] = rng.Int63n(1<<spread) - rng.Int63n(1<<spread)
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = pool[rng.Intn(len(pool))]
			if rng.Intn(50) == 0 {
				vals[i] = int64(rng.Uint64())
			}
		}
		switch rng.Intn(3) {
		case 0:
			slices.Sort(vals)
		case 1:
			for i := 1; i < n; i++ { // a noisy running sum
				vals[i] = vals[i-1] + vals[i]>>(spread/2)
			}
		}
		switch rng.Intn(4) {
		case 0:
			core.CheckAgainstReference(t, "random", convert[int8](vals))
		case 1:
			core.CheckAgainstReference(t, "random", convert[uint16](vals))
		case 2:
			core.CheckAgainstReference(t, "random", convert[int32](vals))
		default:
			core.CheckAgainstReference(t, "random", vals)
		}
	}
}

// fuzzValues reads little-endian values of T off data.
func fuzzValues[T core.Integer](data []byte) []T {
	var v T
	size := int(unsafe.Sizeof(v))
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

// fuzzChooseAs checks the analysis of data read as values of T against the
// oracle, and that the chosen block survives serialization.
func fuzzChooseAs[T core.Integer](t *testing.T, data []byte) {
	vals := fuzzValues[T](data)
	core.CheckAgainstReference(t, "fuzz", vals)
	blk := core.Choose(vals).Compress(vals)
	if blk == nil {
		return
	}
	back, err := segment.Unmarshal[T](segment.Marshal(blk))
	if err != nil {
		t.Fatalf("unmarshal of a fresh %v block: %v", blk.Scheme, err)
	}
	if got := core.Decompress(back, make([]T, back.N)); !slices.Equal(got, vals) {
		t.Fatalf("%v b=%d block of %d values does not round-trip through the segment layout", blk.Scheme, blk.B, len(vals))
	}
}

// FuzzChoose checks the pruned analysis against the exhaustive one on
// values of a fuzz-chosen element type, and that Choice.Compress ->
// segment.Marshal -> decode returns the input.
func FuzzChoose(f *testing.F) {
	f.Add(uint8(3), []byte{})
	f.Add(uint8(0), []byte{1, 2, 3, 250, 251, 252})
	seed := make([]byte, 0, 8*300)
	for i := 0; i < 300; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i%17)*7919)
	}
	f.Add(uint8(3), seed)
	f.Add(uint8(6), seed)
	// One seed per path of the sort and the search, 300 int64 values each:
	// a cluster with a sparse far tail, keys spread over the whole range,
	// two far clusters (the plain radix sort), and a sample in order
	// (PFOR-DELTA searched first).
	for _, f64 := range []func(i int) uint64{
		func(i int) uint64 { return uint64(i*7919%1000) + uint64(i%25/24)<<40 },
		func(i int) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 },
		func(i int) uint64 { return uint64(i%2)<<40 + uint64(i*31%256) },
		func(i int) uint64 { return uint64(i*5 + i%3) },
	} {
		seed := make([]byte, 0, 8*300)
		for i := 0; i < 300; i++ {
			seed = binary.LittleEndian.AppendUint64(seed, f64(i))
		}
		f.Add(uint8(3), seed)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		switch kind % 8 {
		case 0:
			fuzzChooseAs[int8](t, data)
		case 1:
			fuzzChooseAs[int16](t, data)
		case 2:
			fuzzChooseAs[int32](t, data)
		case 3:
			fuzzChooseAs[int64](t, data)
		case 4:
			fuzzChooseAs[uint8](t, data)
		case 5:
			fuzzChooseAs[uint16](t, data)
		case 6:
			fuzzChooseAs[uint32](t, data)
		default:
			fuzzChooseAs[uint64](t, data)
		}
	})
}

var sinkChoice core.Choice[int64]

// BenchmarkChoose times the analysis of one 4096-value block of each shape
// of the benchmark table.
func BenchmarkChoose(b *testing.B) {
	shapes := benchShapes(1, 4096)
	for _, name := range experiments.BenchColumns {
		vals := shapes[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(vals)) * 8)
			b.ReportAllocs()
			for b.Loop() {
				sinkChoice = core.Choose(core.Sample(vals, core.DefaultSampleSize))
			}
		})
	}
}
