package zkserve

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/zktable"
	"repro/zukowski"
)

// TableSpec describes a synthetic table for GenerateTable: Cols int64
// columns of Rows values each. Column c0 is sorted-with-noise (clustered
// values, so zone maps prune range predicates on it); the rest are the
// PFOR-friendly skewed distribution the paper benchmarks. Codec names a
// registered codec for every column; empty picks per-block automatically.
// Segments > 1 generates a sharded zktable directory instead of flat
// per-column files: Segments manifest-committed segments of Rows rows
// each, the layout the crash-recovery and sharded-serve paths exercise.
type TableSpec struct {
	Name        string
	Rows        int // rows per segment when Segments > 1
	Cols        int
	BlockValues int
	Seed        int64
	Codec       string
	Segments    int
}

// GenerateTable writes spec under dir as a table directory OpenDir can
// load: dir/<Name>/c0.zkc ... c<Cols-1>.zkc, or a zktable directory when
// Segments > 1. It exists for cmd/zkserved -gen, the integration tests
// and the CI serve job, which need a deterministic corpus without
// shipping one.
func GenerateTable(dir string, spec TableSpec) error {
	if spec.Name == "" || spec.Rows <= 0 || spec.Cols <= 0 {
		return fmt.Errorf("%w: table spec needs a name, rows and columns", ErrBadRequest)
	}
	if spec.BlockValues <= 0 {
		spec.BlockValues = 4096
	}
	if spec.Segments > 1 {
		return generateSharded(dir, spec)
	}
	var codec zukowski.Codec[int64]
	if spec.Codec != "" {
		c, err := zukowski.Lookup[int64](spec.Codec)
		if err != nil {
			return err
		}
		codec = c
	}
	tdir := filepath.Join(dir, spec.Name)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	for c := 0; c < spec.Cols; c++ {
		vals := synthColumn(rng, c, spec.Rows)
		// Atomic writes keep a crashed or killed generator from leaving a
		// torn container that the next OpenDir refuses to serve.
		path := filepath.Join(tdir, fmt.Sprintf("c%d.zkc", c))
		if err := zukowski.WriteColumnAtomic(path, codec, spec.BlockValues, vals); err != nil {
			return err
		}
	}
	return nil
}

// generateSharded builds the zktable variant: the same per-column
// distributions, committed as Segments generations of Rows rows each.
func generateSharded(dir string, spec TableSpec) error {
	cols := make([]string, spec.Cols)
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
	}
	tdir := filepath.Join(dir, spec.Name)
	tb, err := zktable.Create[int64](tdir, cols, spec.BlockValues, zktable.Options{Codec: spec.Codec})
	if err != nil {
		return err
	}
	defer tb.Close()
	rng := rand.New(rand.NewSource(spec.Seed))
	for s := 0; s < spec.Segments; s++ {
		seg := make([][]int64, spec.Cols)
		for c := range seg {
			seg[c] = synthColumn(rng, c, spec.Rows)
		}
		if _, err := tb.Append(seg); err != nil {
			return err
		}
	}
	return nil
}

// synthColumn draws n values of generated column c: c0 nondecreasing with
// steps uniform in [0, 6], every other column below 2^10 but for 2 %
// outliers up to 2^40 above it. The draws are, call for call, those of the
// paper harness's SynthSorted(rng, n, 3) and SynthPFOR(rng, n, 10, 0.02),
// so a seed yields the bytes it always has.
func synthColumn(rng *rand.Rand, c, n int) []int64 {
	vals := make([]int64, n)
	if c == 0 {
		var cur int64
		for i := range vals {
			cur += rng.Int63n(7)
			vals[i] = cur
		}
		return vals
	}
	const window = 1 << 10
	for i := range vals {
		if rng.Float64() < 0.02 {
			vals[i] = window + rng.Int63n(1<<40)
		} else {
			vals[i] = rng.Int63n(window - 1)
		}
	}
	return vals
}
