package zkserve

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"repro/zktable"
)

// TableSpec describes a synthetic table for GenerateTable: Cols int64
// columns of Rows values per segment. Column c0 is sorted-with-noise
// (clustered values, so zone maps prune range predicates on it); the rest
// are the PFOR-friendly skewed distribution the paper benchmarks. Codec
// names a registered codec for every column; empty picks per-block
// automatically. Segments manifest-committed segments are written, one
// when Segments <= 1.
type TableSpec struct {
	Name        string
	Rows        int // rows per segment
	Cols        int
	BlockValues int
	Seed        int64
	Codec       string
	Segments    int
}

// GenerateTable writes spec under dir as a zktable directory OpenDir can
// load: dir/<Name>/ with columns c0 ... c<Cols-1>, committed one segment
// per Append. A directory that already holds a table is refused with an
// error wrapping zktable.ErrTableExists and left as it was. It exists for
// cmd/zkserved -gen, the integration tests and the CI serve job, which
// need a deterministic corpus without shipping one.
func GenerateTable(dir string, spec TableSpec) error {
	if spec.Name == "" || spec.Rows <= 0 || spec.Cols <= 0 {
		return fmt.Errorf("%w: table spec needs a name, rows and columns", ErrBadRequest)
	}
	if spec.BlockValues <= 0 {
		spec.BlockValues = 4096
	}
	cols := make([]string, spec.Cols)
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
	}
	tb, err := zktable.Create[int64](filepath.Join(dir, spec.Name), cols, spec.BlockValues, zktable.Options{Codec: spec.Codec})
	if err != nil {
		return err
	}
	defer tb.Close()
	rng := rand.New(rand.NewSource(spec.Seed))
	for s := 0; s < max(spec.Segments, 1); s++ {
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
// so a seed yields the values it always has.
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
