package zukowski_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/zukowski"
)

// The filtered scans of one column are one-column Queries: a Range on
// column 0 of NewColumnSet(cr), run by Run (sequential or with Workers) and
// RunAggregate. The tests here hold them to the decode-then-filter oracle.

// buildColumn writes vals through codec into a fresh in-memory container.
func buildSelectColumn[T zukowski.Integer](t testing.TB, codec zukowski.Codec[T], blockValues int, vals []T) *zukowski.ColumnReader[T] {
	t.Helper()
	cr, err := zukowski.OpenColumn[T](selectColumnBytes(t, codec, blockValues, vals))
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// selectColumnBytes is the container buildSelectColumn opens.
func selectColumnBytes[T zukowski.Integer](t testing.TB, codec zukowski.Codec[T], blockValues int, vals []T) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter(&buf, codec, blockValues)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(vals); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// selectOracle is the decode-then-filter reference a one-column range
// Query must match byte for byte.
func selectOracle[T zukowski.Integer](t testing.TB, cr *zukowski.ColumnReader[T], lo, hi T) (rows []int64, vals []T) {
	t.Helper()
	all, err := cr.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range all {
		if v >= lo && v <= hi {
			rows = append(rows, int64(i))
			vals = append(vals, v)
		}
	}
	return rows, vals
}

// oneColumn is the one-column set every filtered, aggregating, degraded or
// parallel scan of cr runs on.
func oneColumn[T zukowski.Integer](t testing.TB, cr *zukowski.ColumnReader[T]) *zukowski.ColumnSet[T] {
	t.Helper()
	cs, err := zukowski.NewColumnSet(cr)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// rangeQuery selects the rows of column 0 whose value lies in [lo, hi].
func rangeQuery[T zukowski.Integer](lo, hi T) zukowski.Query[T] {
	return zukowski.Query[T]{Expr: zukowski.Range(0, lo, hi)}
}

// collectRun runs q over a one-column set and gathers the delivered rows
// and values in delivery order; the scan's error is returned. fn may run
// on a worker goroutine, so a malformed delivery is reported with Errorf.
func collectRun[T zukowski.Integer](t testing.TB, cs *zukowski.ColumnSet[T], q zukowski.Query[T]) (rows []int64, vals []T, err error) {
	t.Helper()
	err = cs.Run(context.Background(), q, func(_ int, r []int64, c [][]T) bool {
		if len(r) != len(c[0]) || len(r) == 0 {
			t.Errorf("Run delivered %d rows and %d values", len(r), len(c[0]))
			return false
		}
		rows = append(rows, r...)
		vals = append(vals, c[0]...)
		return true
	})
	return rows, vals, err
}

// aggregateOf folds vals the way RunAggregate must.
func aggregateOf[T zukowski.Integer](vals []T) zukowski.Aggregate[T] {
	var agg zukowski.Aggregate[T]
	for _, v := range vals {
		agg.Merge(zukowski.Aggregate[T]{Count: 1, Sum: int64(v), Min: v, Max: v})
	}
	return agg
}

func checkColumnSelect[T zukowski.Integer](t *testing.T, cr *zukowski.ColumnReader[T], lo, hi T) {
	t.Helper()
	wantRows, wantVals := selectOracle(t, cr, lo, hi)
	cs := oneColumn(t, cr)
	gotRows, gotVals, err := collectRun(t, cs, rangeQuery(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("[%v,%v]: rows mismatch: got %d rows, want %d (first diff at %d)",
			lo, hi, len(gotRows), len(wantRows), firstDiff(gotRows, wantRows))
	}
	if !slices.Equal(gotVals, wantVals) {
		t.Fatalf("[%v,%v]: values mismatch", lo, hi)
	}

	agg, err := cs.RunAggregate(context.Background(), rangeQuery(lo, hi), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := aggregateOf(wantVals); agg != want {
		t.Fatalf("[%v,%v]: RunAggregate = %+v, want %+v", lo, hi, agg, want)
	}
}

func firstDiff[E comparable](a, b []E) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// columnRanges picks predicate windows across the distribution, plus the
// degenerate shapes.
func columnRanges[T zukowski.Integer](vals []T) [][2]T {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	n := len(sorted)
	return [][2]T{
		{sorted[0], sorted[n-1]},
		{sorted[n/2], sorted[n/2]},
		{sorted[n/4], sorted[3*n/4]},
		{sorted[45*n/100], sorted[55*n/100]},
		{sorted[n-1] + 1, sorted[n-1] + 2}, // beyond max: zone maps prune all
		{sorted[n/2] + 1, sorted[n/2]},     // inverted
		{sorted[0], sorted[n/100]},
		{sorted[20*n/100], sorted[80*n/100]}, // 60 %: groups cross into the dense gather
	}
}

// TestScanSelectOracleAllCodecs proves the acceptance contract: a
// one-column range Query returns byte-for-byte identical (row, value) sets
// as decode-then-filter, and RunAggregate their fold, for every registered
// codec.
func TestScanSelectOracleAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vals := make([]int64, 40_000)
	for i := range vals {
		vals[i] = int64(rng.Intn(50))
		if rng.Intn(25) == 0 {
			vals[i] = 100 + int64(rng.Intn(27))
		}
	}
	for _, name := range zukowski.Codecs() {
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cr := buildSelectColumn(t, codec, 4096, vals)
			for _, r := range columnRanges(vals) {
				checkColumnSelect(t, cr, r[0], r[1])
			}
		})
	}
}

// TestScanSelectSchemes drives the compressed-domain paths directly:
// forced PFOR (with exception densities from none to heavy), PFOR-DELTA on
// sorted data, PDICT with a shuffled dictionary (non-contiguous code
// remaps), across signed and unsigned element types.
func TestScanSelectSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))

	t.Run("pfor-exceptions", func(t *testing.T) {
		for _, rate := range []float64{0, 0.02, 0.25} {
			vals := make([]int32, 30_000)
			for i := range vals {
				vals[i] = -200 + rng.Int31n(1<<9)
				if rng.Float64() < rate {
					vals[i] = rng.Int31() - rng.Int31()
				}
			}
			cr := buildSelectColumn(t, zukowski.PFOR[int32]{}, 3000, vals)
			for _, r := range columnRanges(vals) {
				checkColumnSelect(t, cr, r[0], r[1])
			}
		}
	})

	t.Run("pfor-delta-sorted", func(t *testing.T) {
		vals := make([]uint64, 30_000)
		acc := uint64(0)
		for i := range vals {
			acc += uint64(rng.Intn(7))
			vals[i] = acc
		}
		cr := buildSelectColumn(t, zukowski.PFORDelta[uint64]{}, 3000, vals)
		for _, r := range columnRanges(vals) {
			checkColumnSelect(t, cr, r[0], r[1])
		}
	})

	t.Run("pdict-skewed", func(t *testing.T) {
		dict := []uint16{900, 3, 77, 12, 500, 45, 8, 301}
		vals := make([]uint16, 25_000)
		for i := range vals {
			vals[i] = dict[rng.Intn(len(dict))]
			if rng.Intn(40) == 0 {
				vals[i] = 60_000 + uint16(rng.Intn(1000))
			}
		}
		cr := buildSelectColumn(t, zukowski.PDict[uint16]{}, 2500, vals)
		for _, r := range columnRanges(vals) {
			checkColumnSelect(t, cr, r[0], r[1])
		}
	})

	t.Run("uint8-full-domain", func(t *testing.T) {
		vals := make([]uint8, 20_000)
		for i := range vals {
			vals[i] = uint8(rng.Intn(256))
		}
		cr := buildSelectColumn(t, zukowski.Auto[uint8]{}, 1000, vals)
		for _, r := range columnRanges(vals) {
			checkColumnSelect(t, cr, r[0], r[1])
		}
	})
}

// TestScanSelectEarlyStop verifies fn returning false stops a one-column
// Run after the current batch, exactly like Scan.
func TestScanSelectEarlyStop(t *testing.T) {
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	cr := buildSelectColumn(t, zukowski.PFORDelta[int64]{}, 1000, vals)
	calls := 0
	err := oneColumn(t, cr).Run(context.Background(), rangeQuery[int64](0, 9999), func(int, []int64, [][]int64) bool {
		calls++
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times after early stop, want 3", calls)
	}
}

// TestParallelScanSelectEquivalence checks a one-column range Query with
// Workers against the sequential oracle, in the same sequence, plus
// early-stop and zero-match ranges.
func TestParallelScanSelectEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vals := make([]int64, 50_000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 12)
		if rng.Intn(40) == 0 {
			vals[i] = rng.Int63n(1 << 30)
		}
	}
	cr := buildSelectColumn[int64](t, zukowski.PFOR[int64]{}, 4000, vals)
	cs := oneColumn(t, cr)
	for _, r := range columnRanges(vals) {
		lo, hi := r[0], r[1]
		wantRows, wantVals := selectOracle(t, cr, lo, hi)

		// Below 2 workers the scan is the sequential loop.
		for _, workers := range []int{1, 2, 4, 8} {
			q := rangeQuery(lo, hi)
			q.Workers = workers
			rows, got, err := collectRun(t, cs, q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rows, wantRows) || !slices.Equal(got, wantVals) {
				t.Fatalf("[%v,%v] workers=%d: mismatch vs sequential", lo, hi, workers)
			}
		}
	}

	// Early stop: at most one more delivery after false.
	deliveries := 0
	q := rangeQuery[int64](0, 1<<30)
	q.Workers = 4
	err := cs.Run(context.Background(), q, func(int, []int64, [][]int64) bool {
		deliveries++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if deliveries != 1 {
		t.Fatalf("%d deliveries after immediate stop, want 1", deliveries)
	}
}

// TestScanSelectCorruptBlock flips one payload bit and expects the typed
// checksum error from every one-column Query form: sequential, aggregate,
// parallel and ordered parallel.
func TestScanSelectCorruptBlock(t *testing.T) {
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&buf, zukowski.PFOR[int64]{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(vals); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	data[len(data)/3] ^= 0x40 // somewhere inside a middle block's payload

	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err) // directory is intact; the damage is in a payload
	}
	cs := oneColumn(t, cr)
	ctx := context.Background()
	q := rangeQuery[int64](0, 999)
	if _, _, err := collectRun(t, cs, q); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("Run on corrupt block: %v, want ErrChecksumMismatch", err)
	}
	if _, err := cs.RunAggregate(ctx, q, 0); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("RunAggregate on corrupt block: %v, want ErrChecksumMismatch", err)
	}
	q.Workers = 4
	if _, _, err := collectRun(t, cs, q); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("Run with 4 workers on corrupt block: %v, want ErrChecksumMismatch", err)
	}
}

// TestScanSelectSteadyStateAllocs pins the 0 allocs/op contract of warmed
// sequential one-column Run and RunAggregate passes.
func TestScanSelectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is asserted in the non-race run")
	}
	rng := rand.New(rand.NewSource(24))
	vals := make([]int64, 64_000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 10)
		if rng.Intn(50) == 0 {
			vals[i] = rng.Int63n(1 << 30)
		}
	}
	for _, name := range []string{"pfor", "pfor-delta", "pdict", "none"} {
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		data := selectColumnBytes(t, codec, 8000, vals)
		mem, err := zukowski.OpenColumn[int64](data)
		if err != nil {
			t.Fatal(err)
		}
		// The same container through an io.ReaderAt without a cache: every
		// frame is read again on every pass, in runs, into buffers the scan
		// takes from a pool and returns.
		file, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, src := range []struct {
			kind string
			cs   *zukowski.ColumnSet[int64]
		}{{"OpenColumn", oneColumn(t, mem)}, {"OpenColumnReaderAt", oneColumn(t, file)}} {
			cs := src.cs
			// A narrow range (sparse groups), one most rows satisfy (dense
			// groups) and one every row does (full blocks).
			for _, r := range [][2]int64{{10, 200}, {100, 1 << 30}, {0, 1 << 30}} {
				q := rangeQuery(r[0], r[1])
				scan := func() {
					if err := cs.Run(ctx, q, func(int, []int64, [][]int64) bool { return true }); err != nil {
						t.Fatal(err)
					}
					if _, err := cs.RunAggregate(ctx, q, 0); err != nil {
						t.Fatal(err)
					}
				}
				scan() // warm the pooled state, the run buffers and block verification latches
				if avg := testing.AllocsPerRun(20, scan); avg != 0 {
					t.Errorf("%s %s [%d,%d]: %v allocs/op on warmed Run+RunAggregate, want 0", src.kind, name, r[0], r[1], avg)
				}
			}
		}
	}
}

// BenchmarkColumnFilter times a range over one unprunable PFOR column three
// ways: a one-column Run (the bitmap in the code domain, only survivors
// materialized), Scan plus a filter loop (the decode-then-filter plan Run
// replaces) and RunAggregate. CI's floors step divides the second by the
// first at 10 %.
func BenchmarkColumnFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 10)
		if rng.Intn(50) == 0 {
			vals[i] = rng.Int63n(1 << 30)
		}
	}
	cr := buildSelectColumn(b, zukowski.PFOR[int64]{}, zukowski.DefaultBlockValues, vals)
	cs := oneColumn(b, cr)
	ctx := context.Background()
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	raw := int64(len(vals) * 8)
	// 10 % stays below the dense-gather threshold in most groups, 60 % is
	// above it in all of them.
	for _, w := range []struct {
		name   string
		lo, hi int64
	}{
		{"10pct", sorted[45*len(sorted)/100], sorted[55*len(sorted)/100]},
		{"60pct", sorted[20*len(sorted)/100], sorted[80*len(sorted)/100]},
	} {
		lo, hi := w.lo, w.hi
		q := rangeQuery(lo, hi)
		b.Run("Run-"+w.name, func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			// One callback for every pass: fn escapes into Run's parallel
			// branch, so a closure built per call would be one allocation.
			var n int
			count := func(_ int, rows []int64, _ [][]int64) bool { n += len(rows); return true }
			for i := 0; i < b.N; i++ {
				if err := cs.Run(ctx, q, count); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Scan-filter-"+w.name, func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			rows := make([]int64, 0, len(vals))
			out := make([]int64, 0, len(vals))
			for i := 0; i < b.N; i++ {
				base := 0
				if err := cr.Scan(func(v []int64) bool {
					rows, out = rows[:0], out[:0]
					for j, x := range v {
						if x >= lo && x <= hi {
							rows = append(rows, int64(base+j))
							out = append(out, x)
						}
					}
					base += len(v)
					return true
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("RunAggregate-"+w.name, func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cs.RunAggregate(ctx, q, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
