package zukowski_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/zukowski"
)

// rampValues builds a mostly-increasing column with periodic outliers: the
// patched schemes compress it well, the zone maps prune range scans on it,
// and the total is deliberately not a multiple of any block size so the
// last partial block is always exercised.
func rampValues(n int) []int64 {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)*4 + rng.Int63n(16)
		if i%911 == 0 {
			vals[i] += 1 << 33 // exception
		}
	}
	return vals
}

// openBoth returns the same container through both sources: the in-memory
// byte path and the lazily fetched ReaderAt path.
func openBoth[T zukowski.Integer](t *testing.T, data []byte) map[string]*zukowski.ColumnReader[T] {
	t.Helper()
	fromBytes, err := zukowski.OpenColumn[T](data)
	if err != nil {
		t.Fatal(err)
	}
	fromReaderAt, err := zukowski.OpenColumnReaderAt[T](bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*zukowski.ColumnReader[T]{"bytes": fromBytes, "readerAt": fromReaderAt}
}

// collectSeq runs a sequential Scan and returns the concatenated values.
func collectSeq[T zukowski.Integer](t *testing.T, cr *zukowski.ColumnReader[T]) []T {
	t.Helper()
	var got []T
	if err := cr.Scan(func(vals []T) bool {
		got = append(got, vals...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestParallelScanMatchesScan: a whole-column Query (the zero Expr) run
// with Workers delivers exactly what the sequential Scan decodes, in the
// same sequence.
func TestParallelScanMatchesScan(t *testing.T) {
	src := rampValues(50_000)
	data := buildColumn[int64](t, zukowski.Auto[int64]{}, 4096, src)
	for name, cr := range openBoth[int64](t, data) {
		t.Run(name, func(t *testing.T) {
			want := collectSeq(t, cr)
			cs := oneColumn(t, cr)
			ctx := context.Background()

			for _, workers := range []int{0, 1, 3, 4, 100} {
				var ordered []int64
				lastBlock := -1
				q := zukowski.Query[int64]{Workers: workers}
				err := cs.Run(ctx, q, func(b int, _ []int64, cols [][]int64) bool {
					if b <= lastBlock {
						t.Errorf("workers=%d: block %d delivered after %d", workers, b, lastBlock)
					}
					lastBlock = b
					ordered = append(ordered, cols[0]...)
					return true
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !equalSlices(ordered, want) {
					t.Fatalf("workers=%d: Run diverges from Scan", workers)
				}
			}
		})
	}
}

// TestParallelScanWhereMatchesSequential: a zone-pruned range Query over one
// column selects exactly the full-scan oracle's values, and with Workers
// the same rows in the same sequence.
func TestParallelScanWhereMatchesSequential(t *testing.T) {
	src := rampValues(60_000)
	data := buildColumn[int64](t, zukowski.Auto[int64]{}, 4096, src)
	lo, hi := src[len(src)/3], src[len(src)/2]

	// Full-scan oracle: the exact multiset of in-range values.
	var oracle []int64
	for _, v := range src {
		if v >= lo && v <= hi {
			oracle = append(oracle, v)
		}
	}

	for name, cr := range openBoth[int64](t, data) {
		t.Run(name, func(t *testing.T) {
			cs := oneColumn(t, cr)
			q := rangeQuery(lo, hi)
			seqRows, seq, err := collectRun(t, cs, q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalSlices(seq, oracle) {
				t.Fatalf("sequential range Query: %d values, oracle has %d", len(seq), len(oracle))
			}

			q.Workers = 4
			parRows, par, err := collectRun(t, cs, q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalSlices(par, seq) || !equalSlices(parRows, seqRows) {
				t.Fatal("range Query with 4 workers diverges from the sequential one")
			}
		})
	}
}

// TestParallelScanEarlyStop: fn returning false ends a Run after exactly one
// delivery, sequential or parallel.
func TestParallelScanEarlyStop(t *testing.T) {
	src := rampValues(50_000)
	data := buildColumn[int64](t, zukowski.Auto[int64]{}, 4096, src)
	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	cs := oneColumn(t, cr)
	for _, workers := range []int{1, 4} {
		calls := 0
		q := zukowski.Query[int64]{Workers: workers}
		err := cs.Run(context.Background(), q, func(int, []int64, [][]int64) bool {
			calls++
			return false
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls != 1 {
			t.Fatalf("workers=%d: fn called %d times after returning false", workers, calls)
		}
	}
}

// TestParallelScanError: a corrupt block fails a parallel Run with the typed
// error, after delivering in order every block before it.
func TestParallelScanError(t *testing.T) {
	src := rampValues(50_000)
	data := buildColumn[int64](t, zukowski.Auto[int64]{}, 4096, src)
	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of a middle block; ZKC2 checksums turn that
	// into ErrChecksumMismatch at scan time.
	const bad = 5
	info, err := cr.BlockInfo(bad)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), data...)
	corrupted[info.Offset+int64(info.Length)/2] ^= 0x40
	cc, err := zukowski.OpenColumn[int64](corrupted)
	if err != nil {
		t.Fatal(err)
	}

	// Blocks before the corrupt one arrive, then the error — exactly where
	// the sequential scan would fail.
	cs := oneColumn(t, cc)
	ctx := context.Background()
	var delivered []int
	q := zukowski.Query[int64]{Workers: 4}
	err = cs.Run(ctx, q, func(b int, _ []int64, _ [][]int64) bool {
		delivered = append(delivered, b)
		return true
	})
	if !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("scan over corrupt block: err = %v", err)
	}
	for i, b := range delivered {
		if b != i || b >= bad {
			t.Fatalf("scan delivered block %d at position %d around corrupt block %d", b, i, bad)
		}
	}
}

// TestConcurrentColumnReader hammers one shared reader with a mix of Get,
// Scan, one-column range Queries (sequential and with Workers), ReadAll and
// Verify goroutines on both source kinds. Run under -race (CI does, at -cpu=1,4); the assertions
// double as a correctness check that concurrent use returns the same
// values as the source slice.
func TestConcurrentColumnReader(t *testing.T) {
	src := rampValues(40_000)
	data := buildColumn[int64](t, zukowski.Auto[int64]{}, 2048, src)
	lo, hi := src[len(src)/4], src[3*len(src)/4]
	for name, cr := range openBoth[int64](t, data) {
		t.Run(name, func(t *testing.T) {
			cs := oneColumn(t, cr)
			var wg sync.WaitGroup
			fail := make(chan error, 64)
			report := func(format string, args ...any) {
				select {
				case fail <- fmt.Errorf(format, args...):
				default:
				}
			}

			// Point lookups, each checked against the source.
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for k := 0; k < 2_000; k++ {
						i := rng.Intn(len(src))
						v, err := cr.Get(i)
						if err != nil {
							report("Get(%d): %v", i, err)
							return
						}
						if v != src[i] {
							report("Get(%d) = %d, want %d", i, v, src[i])
							return
						}
					}
				}(int64(g))
			}

			// Sequential scans.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					row := 0
					err := cr.Scan(func(vals []int64) bool {
						for _, v := range vals {
							if v != src[row] {
								report("Scan row %d = %d, want %d", row, v, src[row])
								return false
							}
							row++
						}
						return true
					})
					if err != nil {
						report("Scan: %v", err)
					}
				}()
			}

			// Range Queries, each row checked against the source.
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := cs.Run(context.Background(), rangeQuery(lo, hi), func(_ int, rows []int64, cols [][]int64) bool {
					for i, r := range rows {
						if v := cols[0][i]; v != src[r] || v < lo || v > hi {
							report("range Query row %d = %d, source %d, range [%d,%d]", r, v, src[r], lo, hi)
							return false
						}
					}
					return true
				})
				if err != nil {
					report("range Query: %v", err)
				}
			}()

			// Parallel scans sharing the same slots and state pools.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var sum int64
					err := cs.Run(context.Background(), zukowski.Query[int64]{Workers: 3}, func(_ int, _ []int64, cols [][]int64) bool {
						for _, v := range cols[0] {
							sum += v
						}
						return true
					})
					if err != nil {
						report("parallel Run: %v", err)
					}
				}()
			}

			// Bulk reads and integrity checks.
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := cr.ReadAll(nil)
				if err != nil {
					report("ReadAll: %v", err)
					return
				}
				if !equalSlices(out, src) {
					report("ReadAll diverges from source")
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := cr.Verify(); err != nil {
					report("Verify: %v", err)
				}
			}()

			wg.Wait()
			close(fail)
			if err := <-fail; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScanSteadyStateAllocs proves the read paths allocation-free once
// warm, over an in-memory column and over the same bytes file-backed
// without a cache: one pooled decode state serves frame fetch, frame
// parse, bit-unpack scratch and the delivered vector, and a file-backed
// read fetches into a pooled run buffer.
func TestScanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; exactness only holds in normal builds")
	}
	src := rampValues(100_000)
	data := buildColumn[int64](t, zukowski.Auto[int64]{}, 4096, src)
	for _, source := range []string{"memory", "file"} {
		t.Run(source, func(t *testing.T) {
			var cr *zukowski.ColumnReader[int64]
			var err error
			if source == "memory" {
				cr, err = zukowski.OpenColumn[int64](data)
			} else {
				cr, err = zukowski.OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)))
			}
			if err != nil {
				t.Fatal(err)
			}
			steadyStateAllocs(t, cr, src)
		})
	}
}

// steadyStateAllocs holds cr's warmed Scan, ReadBlock, Get and one-worker
// Run to zero allocations.
func steadyStateAllocs(t *testing.T, cr *zukowski.ColumnReader[int64], src []int64) {
	var sink int64
	scan := func() {
		if err := cr.Scan(func(vals []int64) bool {
			sink += vals[0]
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	scan() // warm the state pool and the verified-checksum latches
	if avg := testing.AllocsPerRun(20, scan); avg != 0 {
		t.Fatalf("sequential Scan allocates %.1f times per pass in steady state, want 0", avg)
	}
	var vals []int64
	next := 0
	readBlock := func() {
		var err error
		if vals, err = cr.ReadBlock(next%cr.NumBlocks(), vals[:0]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	readBlock()
	if avg := testing.AllocsPerRun(50, readBlock); avg != 0 {
		t.Fatalf("ReadBlock allocates %.1f times per call in steady state, want 0", avg)
	}
	get := func() {
		i := next * 4099 % len(src)
		if v, err := cr.Get(i); err != nil || v != src[i] {
			t.Fatalf("Get(%d) = %d, %v; want %d", i, v, err, src[i])
		}
		next++
	}
	if avg := testing.AllocsPerRun(50, get); avg != 0 {
		t.Fatalf("Get allocates %.1f times per call in steady state, want 0", avg)
	}

	// The same column as a one-column set under a window on its sorted
	// values: the blocks inside are selected whole without being evaluated
	// (a fill and one block decode), the two at the ends are evaluated and
	// gathered densely. One worker is the sequential loop; more allocate
	// their pool and are not held to zero.
	cs, err := zukowski.NewColumnSet(cr)
	if err != nil {
		t.Fatal(err)
	}
	q := zukowski.Query[int64]{Preds: []zukowski.Pred[int64]{{Col: 0, Lo: src[5_000], Hi: src[70_000]}}, Workers: 1}
	first := func(_ int, _ []int64, cols [][]int64) bool {
		sink += cols[0][0]
		return true
	}
	run := func() {
		if err := cs.Run(t.Context(), q, first); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("one-worker Run under a covering window allocates %.1f times per pass, want 0", avg)
	}
	_ = sink
}

func equalSlices[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- benchmarks -----------------------------------------------------------

// benchReader builds an in-memory uint32 column of numBlocks compressed
// blocks and returns a shared reader plus the raw (uncompressed) byte
// count, the numerator of every scan-bandwidth claim.
func benchReader(b *testing.B, numBlocks, blockValues int) (*zukowski.ColumnReader[uint32], int64) {
	b.Helper()
	data, n := benchColumn(b, numBlocks, blockValues)
	cr, err := zukowski.OpenColumn[uint32](data)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the per-block checksum latches so every measured pass exercises
	// pure decode, matching the steady state of a resident column.
	if _, err := cr.ReadAll(nil); err != nil {
		b.Fatal(err)
	}
	return cr, int64(n * 4)
}

// benchColumn writes benchReader's column — numBlocks PFOR blocks of
// blockValues uint32 values, one in 1,013 an exception — and returns the
// container and its value count.
func benchColumn(b *testing.B, numBlocks, blockValues int) ([]byte, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	n := numBlocks * blockValues
	src := make([]uint32, n)
	for i := range src {
		src[i] = uint32(i/64) + uint32(rng.Intn(32))
		if i%1013 == 0 {
			src[i] += 1 << 27
		}
	}
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter[uint32](&buf, zukowski.PFOR[uint32]{}, blockValues)
	if err != nil {
		b.Fatal(err)
	}
	if err := cw.Write(src); err != nil {
		b.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), n
}

// BenchmarkScan is the sequential baseline; with -benchmem it demonstrates
// the 0 allocs/op steady state of the pooled decode path.
func BenchmarkScan(b *testing.B) {
	cr, rawBytes := benchReader(b, 64, 16384)
	b.SetBytes(rawBytes)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		if err := cr.Scan(func(vals []uint32) bool {
			sink += vals[0]
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}

// BenchmarkParallelScan runs a whole-column Query over the same 64-block
// uint32 column with a worker pool; the MB/s column divided by
// BenchmarkScan's is the scaling headline (near-linear until the core
// count or memory bandwidth caps it).
func BenchmarkParallelScan(b *testing.B) {
	cr, rawBytes := benchReader(b, 64, 16384)
	cs := oneColumn(b, cr)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(rawBytes)
			b.ReportAllocs()
			var sink uint32
			q := zukowski.Query[uint32]{Workers: workers}
			for i := 0; i < b.N; i++ {
				if err := cs.Run(ctx, q, func(_ int, _ []int64, cols [][]uint32) bool {
					sink += cols[0][0]
					return true
				}); err != nil {
					b.Fatal(err)
				}
			}
			_ = sink
		})
	}
}

// BenchmarkReaderGet times ColumnReader.Get at random rows of
// benchReader's column, through each source: in memory (the parsed form
// kept in the block's slot), file-backed with a BlockLRU that holds the
// column (the form kept beside the cached frame), and file-backed without
// a cache, where every call fetches, verifies and parses its block.
func BenchmarkReaderGet(b *testing.B) {
	data, n := benchColumn(b, 64, 16384)
	rng := rand.New(rand.NewSource(43))
	rows := make([]int, 4096)
	for i := range rows {
		rows[i] = rng.Intn(n)
	}
	open := map[string]func() (*zukowski.ColumnReader[uint32], error){
		"memory": func() (*zukowski.ColumnReader[uint32], error) { return zukowski.OpenColumn[uint32](data) },
		"cached": func() (*zukowski.ColumnReader[uint32], error) {
			return zukowski.OpenColumnReaderAt[uint32](bytes.NewReader(data), int64(len(data)),
				zukowski.WithBlockCache(zukowski.NewBlockLRU(1<<30)))
		},
		"uncached": func() (*zukowski.ColumnReader[uint32], error) {
			return zukowski.OpenColumnReaderAt[uint32](bytes.NewReader(data), int64(len(data)))
		},
	}
	for _, source := range []string{"memory", "cached", "uncached"} {
		b.Run(source, func(b *testing.B) {
			cr, err := open[source]()
			if err != nil {
				b.Fatal(err)
			}
			for _, i := range rows { // warm: every block touched at least once
				if _, err := cr.Get(i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint32
			for i := 0; i < b.N; i++ {
				v, err := cr.Get(rows[i%len(rows)])
				if err != nil {
					b.Fatal(err)
				}
				sink += v
			}
			_ = sink
		})
	}
}
