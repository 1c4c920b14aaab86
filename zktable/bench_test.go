package zktable_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/experiments"
	"repro/zktable"
)

// BenchmarkAppend times the write path: one Append of 131,072 rows of the
// benchmark table's five column shapes (experiments.SynthBenchColumns) at
// 4,096-value blocks into a fresh table, made and removed off the clock.
// ns/value is per value of every column.
func BenchmarkAppend(b *testing.B) {
	const bv, rows = 4096, 32 * 4096
	shapes := experiments.SynthBenchColumns(rand.New(rand.NewSource(1)), rows)
	cols := make([][]int64, len(experiments.BenchColumns))
	for i, name := range experiments.BenchColumns {
		cols[i] = shapes[name]
	}
	base := b.TempDir()
	b.SetBytes(int64(rows * len(cols) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(base, fmt.Sprint(i))
		tb, err := zktable.Create[int64](dir, experiments.BenchColumns, bv, zktable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, err = tb.Append(cols)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		tb.Close()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*len(cols)), "ns/value")
}

// BenchmarkCompact times Table.Compact alone over four committed segments
// of three columns at 4,096-value blocks: "aligned" segments hold whole
// blocks, as a bulk load or an earlier compaction leaves them, so every
// frame is copied; "ragged" ones end seven rows short of a block, so every
// block after the first segment's last straddles a seam and is encoded
// anew. MB/s are user bytes (8 per value) compacted.
func BenchmarkCompact(b *testing.B) {
	const bv, segs = 4096, 4
	for _, bc := range []struct {
		name string
		rows int
	}{
		{"aligned", 32 * bv},
		{"ragged", 32*bv - 7},
	} {
		b.Run(bc.name, func(b *testing.B) {
			base := filepath.Join(b.TempDir(), "base")
			tb, err := zktable.Create[int64](base, testSchema, bv, zktable.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for s := 0; s < segs; s++ {
				if _, err := tb.Append(synthCols(int64(60+s), bc.rows)); err != nil {
					b.Fatal(err)
				}
			}
			tb.Close()
			b.SetBytes(int64(segs * bc.rows * len(testSchema) * 8))
			// Compact consumes its input: every iteration gets its own copy
			// of the table, made and discarded off the clock.
			dir := filepath.Join(b.TempDir(), "tbl")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copyDir(b, base, dir)
				tb, _, err := zktable.Open[int64](dir, zktable.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				_, err = tb.Compact()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				tb.Close()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
