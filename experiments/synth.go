// Package experiments implements the measurement harnesses that regenerate
// every table and figure of the paper's evaluation (Figures 2, 4, 5, 6, 7;
// Tables 1, 2, 3, 4; the Section 5 equilibrium computation). The cmd/
// binaries parse flags and call into this package; bench_test.go reuses the
// same kernels under testing.B.
package experiments

import (
	"math/rand"
	"time"

	"repro/internal/core"
)

// SynthPFOR generates n 64-bit values of which approximately rate are
// outliers for a b-bit frame at base 0 — the synthetic microbenchmark data
// of Section 3 ("all compress 64-bit data items into 8 bits codes").
func SynthPFOR(rng *rand.Rand, n int, b uint, rate float64) []int64 {
	vals := make([]int64, n)
	window := int64(1) << b
	for i := range vals {
		if rng.Float64() < rate {
			vals[i] = window + rng.Int63n(1<<40)
		} else {
			vals[i] = rng.Int63n(window - 1)
		}
	}
	return vals
}

// SynthDict generates values from a 2^b dictionary with outliers at the
// given rate.
func SynthDict(rng *rand.Rand, n int, b uint, rate float64) (vals, dict []int64) {
	dict = make([]int64, 1<<b)
	for i := range dict {
		dict[i] = int64(i) * 7919
	}
	vals = make([]int64, n)
	for i := range vals {
		if rng.Float64() < rate {
			vals[i] = 1<<50 + rng.Int63n(1<<40)
		} else {
			vals[i] = dict[rng.Intn(len(dict))]
		}
	}
	return vals, dict
}

// SynthSorted generates n nondecreasing 64-bit values whose steps are
// uniform in [0, 2*step] — the sorted or clustered column shape (dates,
// auto-increment keys, d-gaps) where PFOR-DELTA compresses best and
// block-level min/max zone maps prune selective scans hardest.
func SynthSorted(rng *rand.Rand, n int, step int64) []int64 {
	vals := make([]int64, n)
	var cur int64
	for i := range vals {
		cur += rng.Int63n(2*step + 1)
		vals[i] = cur
	}
	return vals
}

// BenchColumns names the five columns of the layered benchmark's table
// (bench/gen.go) in schema order: k sorted with steps up to 6 (zone-map
// prunable, PFOR-DELTA), a 10-bit PFOR with 2 % exceptions, b 16-bit PFOR
// with 10 % (patch-heavy), d a 64-entry dictionary with 1 % outliers
// (PDICT), u uniform 62-bit (incompressible, stored raw).
var BenchColumns = []string{"k", "a", "b", "d", "u"}

// SynthBenchColumns draws n rows of the BenchColumns shapes, by name, the
// way the benchmark does — the inputs the write path's tests and
// go-test benchmarks pin sizes and timings on.
func SynthBenchColumns(rng *rand.Rand, n int) map[string][]int64 {
	cols := map[string][]int64{
		"k": SynthSorted(rng, n, 3),
		"a": SynthPFOR(rng, n, 10, 0.02),
		"b": SynthPFOR(rng, n, 16, 0.10),
	}
	cols["d"], _ = SynthDict(rng, n, 6, 0.01)
	u := make([]int64, n)
	for i := range u {
		u[i] = rng.Int63n(1 << 62)
	}
	cols["u"] = u
	return cols
}

// TimeIt runs f repeatedly until it has consumed at least minDuration and
// returns the mean seconds per call. It keeps harness binaries honest
// without dragging in the testing package.
func TimeIt(minDuration time.Duration, f func()) float64 {
	f() // warm up
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed >= minDuration {
			return elapsed.Seconds() / float64(iters)
		}
		if elapsed <= 0 {
			iters *= 16
			continue
		}
		// Scale iteration count to overshoot the budget slightly.
		iters = int(float64(iters)*float64(minDuration)/float64(elapsed)) + 1
	}
}

// MBps converts (bytes processed, seconds) to MB/s.
func MBps(bytes int, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(bytes) / secs / 1e6
}

// DecompressOnce is a helper binding a decoder and reusable buffer.
type DecompressOnce struct {
	dec core.Decoder[int64]
	out []int64
}

// Run decompresses blk into the internal buffer.
func (d *DecompressOnce) Run(blk *core.Block[int64]) {
	if cap(d.out) < blk.N {
		d.out = make([]int64, blk.N)
	}
	d.dec.Decompress(blk, d.out[:blk.N])
}
