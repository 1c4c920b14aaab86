package zktable_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/zktable"
	"repro/zukowski"
)

const testBV = 512

var testSchema = []string{"k", "v", "d"}

// synthCols builds one segment's worth of data: a near-sorted key column
// and two payload columns, deterministic in seed.
func synthCols(seed int64, rows int) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	c0 := make([]int64, rows)
	c1 := make([]int64, rows)
	c2 := make([]int64, rows)
	acc := int64(0)
	for i := 0; i < rows; i++ {
		acc += rng.Int63n(3)
		c0[i] = acc
		c1[i] = rng.Int63n(1000)
		c2[i] = rng.Int63n(64) - 32
	}
	return [][]int64{c0, c1, c2}
}

// appendAll concatenates per-segment column data into whole-table columns.
func appendAll(segs ...[][]int64) [][]int64 {
	out := make([][]int64, len(testSchema))
	for _, seg := range segs {
		for ci := range seg {
			out[ci] = append(out[ci], seg[ci]...)
		}
	}
	return out
}

func mustCreate(t *testing.T, dir string, opts zktable.Options) *zktable.Table[int64] {
	t.Helper()
	tb, err := zktable.Create[int64](dir, testSchema, testBV, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return tb
}

func mustAppend(t *testing.T, tb *zktable.Table[int64], cols [][]int64) uint64 {
	t.Helper()
	gen, err := tb.Append(cols)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return gen
}

// scanOracle filters whole-table columns directly — the reference the
// scans must match.
func scanOracle(cols [][]int64, preds []zukowski.Pred[int64]) (rows []int64, want [][]int64) {
	want = make([][]int64, len(cols))
	for i := int64(0); i < int64(len(cols[0])); i++ {
		ok := true
		for _, p := range preds {
			v := cols[p.Col][i]
			if v < p.Lo || v > p.Hi {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, i)
			for ci := range cols {
				want[ci] = append(want[ci], cols[ci][i])
			}
		}
	}
	return rows, want
}

// bg is the context of every scan that is not testing cancellation.
var bg = context.Background()

// where is the conjunction-only query.
func where(preds ...zukowski.Pred[int64]) zukowski.Query[int64] {
	return zukowski.Query[int64]{Preds: preds}
}

func countRows(t *testing.T, tb *zktable.Table[int64]) int64 {
	t.Helper()
	var n int64
	err := tb.Run(bg, where(), func(_ int, rows []int64, _ [][]int64) bool {
		n += int64(len(rows))
		return true
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return n
}

func TestCreateAppendScanRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	if got := tb.Generation(); got != 1 {
		t.Fatalf("fresh table generation = %d, want 1", got)
	}

	segA, segB, segC := synthCols(1, 1500), synthCols(2, 700), synthCols(3, 2100)
	if gen := mustAppend(t, tb, segA); gen != 2 {
		t.Fatalf("first append generation = %d, want 2", gen)
	}
	mustAppend(t, tb, segB)
	if gen := mustAppend(t, tb, segC); gen != 4 {
		t.Fatalf("third append generation = %d, want 4", gen)
	}
	all := appendAll(segA, segB, segC)
	total := int64(len(all[0]))
	if got := tb.Rows(); got != total {
		t.Fatalf("Rows = %d, want %d", got, total)
	}

	preds := []zukowski.Pred[int64]{{Col: 1, Lo: 100, Hi: 600}, {Col: 2, Lo: -10, Hi: 20}}
	wantRows, wantCols := scanOracle(all, preds)
	var gotRows []int64
	gotCols := make([][]int64, len(all))
	err := tb.Run(bg, where(preds...), func(_ int, rows []int64, cols [][]int64) bool {
		gotRows = append(gotRows, rows...)
		for ci := range cols {
			gotCols[ci] = append(gotCols[ci], cols[ci]...)
		}
		return true
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("scan returned %d rows, oracle %d", len(gotRows), len(wantRows))
	}
	for i := range gotRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("row %d: got id %d, want %d", i, gotRows[i], wantRows[i])
		}
		for ci := range gotCols {
			if gotCols[ci][i] != wantCols[ci][i] {
				t.Fatalf("row %d col %d: got %d, want %d", i, ci, gotCols[ci][i], wantCols[ci][i])
			}
		}
	}

	// Aggregates fold across segments.
	agg, err := tb.RunAggregate(bg, where(preds...), 1)
	if err != nil {
		t.Fatalf("RunAggregate: %v", err)
	}
	var wantAgg zukowski.Aggregate[int64]
	for i, v := range wantCols[1] {
		wantAgg.Count++
		wantAgg.Sum += v
		if i == 0 || v < wantAgg.Min {
			wantAgg.Min = v
		}
		if i == 0 || v > wantAgg.Max {
			wantAgg.Max = v
		}
	}
	if agg != wantAgg {
		t.Fatalf("aggregate = %+v, want %+v", agg, wantAgg)
	}

	// Early stop.
	calls := 0
	if err := tb.Run(bg, where(), func(_ int, rows []int64, _ [][]int64) bool {
		calls++
		return false
	}); err != nil {
		t.Fatalf("early-stop scan: %v", err)
	}
	if calls != 1 {
		t.Fatalf("stopped scan delivered %d times, want 1", calls)
	}
	tb.Close()

	// Reopen: clean recovery, same data.
	tb2, rep, err := zktable.Open[int64](dir, zktable.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer tb2.Close()
	if rep.FellBack || len(rep.CorruptManifests) > 0 || len(rep.Quarantined) > 0 {
		t.Fatalf("clean reopen reported trouble: %+v", rep)
	}
	if rep.Generation != 4 || rep.Rows != total {
		t.Fatalf("reopened at generation %d with %d rows, want 4 / %d", rep.Generation, rep.Rows, total)
	}
	if got := countRows(t, tb2); got != total {
		t.Fatalf("reopened scan saw %d rows, want %d", got, total)
	}
}

// TestRunWorkersEquivalence: Query{Workers: n} returns exactly the
// sequential scan's rows in the same sequence, across segment boundaries,
// with global block indices, and stops on fn's say-so. At every worker
// count from 1 to 8, exact or degraded, over
// a healthy table and one with a block whose payload fails its checksum,
// it answers as the sequential scan does and fills the same ScanReport:
// the same plan totals, the same losses.
func TestRunWorkersEquivalence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	defer tb.Close()
	segA, segB := synthCols(10, 3000), synthCols(11, 1800)
	mustAppend(t, tb, segA)
	mustAppend(t, tb, segB)
	all := appendAll(segA, segB)

	preds := []zukowski.Pred[int64]{{Col: 1, Lo: 0, Hi: 750}}
	wantRows, _ := scanOracle(all, preds)

	// Deliveries are serialized (the ColumnSet.Run contract), so fn needs
	// no locking of its own.
	var gotRows []int64
	blocks := map[int]bool{}
	q := where(preds...)
	q.Workers = 4
	collect := func(block int, rows []int64, cols [][]int64) bool {
		gotRows = append(gotRows, rows...)
		blocks[block] = true
		return true
	}
	if err := tb.Run(bg, q, collect); err != nil {
		t.Fatalf("parallel Run: %v", err)
	}
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("parallel scan delivered %d rows out of sequence (oracle %d)", len(gotRows), len(wantRows))
	}
	// Global block indices must be distinct across segments.
	nb := (len(segA[0])+testBV-1)/testBV + (len(segB[0])+testBV-1)/testBV
	for b := range blocks {
		if b < 0 || b >= nb {
			t.Fatalf("block index %d outside [0,%d)", b, nb)
		}
	}

	// Early stop terminates without error, and no later segment delivers
	// after fn said stop.
	fired := 0
	q = where()
	q.Workers = 4
	if err := tb.Run(bg, q, func(int, []int64, [][]int64) bool {
		fired++
		return false
	}); err != nil {
		t.Fatalf("early-stop parallel scan: %v", err)
	}
	if fired != 1 {
		t.Fatalf("early-stop parallel scan delivered %d times, want 1", fired)
	}

	damaged := filepath.Join(t.TempDir(), "damaged")
	tbD := mustCreate(t, damaged, zktable.Options{})
	mustAppend(t, tbD, segA)
	mustAppend(t, tbD, segB)
	tbD.Close()
	path := filepath.Join(damaged, "seg-00000001-v.zkc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cr.BlockInfo(2)
	if err != nil {
		t.Fatal(err)
	}
	data[info.Offset+int64(info.Length)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tbD, _, err = zktable.Open[int64](damaged, zktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tbD.Close()

	// report is a ScanReport's fields, the first error by its class.
	type report struct {
		planned, pruned, skipped int
		rows, values, lost       int64
		fault                    bool
	}
	scan := func(tb *zktable.Table[int64], q zukowski.Query[int64]) (rows []int64, rep report, err error) {
		sr := new(zukowski.ScanReport)
		q.Report = sr
		err = tb.Run(bg, q, func(_ int, r []int64, _ [][]int64) bool {
			rows = append(rows, r...)
			return true
		})
		return rows, report{sr.BlocksPlanned, sr.BlocksPruned, sr.BlocksSkipped,
			sr.RowsPlanned, sr.ValuesPlanned, sr.RowsLost, zukowski.IsDataFault(sr.FirstErr)}, err
	}
	for name, tb := range map[string]*zktable.Table[int64]{"healthy": tb, "damaged": tbD} {
		for _, skip := range []bool{false, true} {
			// The payload range, and a key window over segment A's rows
			// 700..2500 that prunes blocks of both segments.
			q := where(append(preds, zukowski.Pred[int64]{Col: 0, Lo: segA[0][700], Hi: segA[0][2500]})...)
			q.Cols, q.SkipCorrupt = []int{0, 2}, skip
			wantRows, wantRep, wantErr := scan(tb, q)
			if wantRep.planned == 0 || wantRep.pruned == 0 {
				t.Fatalf("%s skip=%v: the sequential scan planned %d blocks and pruned %d; the test wants both",
					name, skip, wantRep.planned, wantRep.pruned)
			}
			if (name == "damaged") != (wantErr != nil || wantRep.skipped > 0) {
				t.Fatalf("%s skip=%v: sequential scan %v, report %+v", name, skip, wantErr, wantRep)
			}
			for workers := 1; workers <= 8; workers++ {
				q.Workers = workers
				rows, rep, err := scan(tb, q)
				what := fmt.Sprintf("%s skip=%v workers=%d", name, skip, workers)
				if zukowski.IsDataFault(err) != zukowski.IsDataFault(wantErr) || (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: %v, the sequential scan %v", what, err, wantErr)
				}
				if err == nil && !slices.Equal(rows, wantRows) {
					t.Fatalf("%s: %d rows, the sequential scan %d", what, len(rows), len(wantRows))
				}
				if rep != wantRep {
					t.Fatalf("%s: report %+v, the sequential scan's %+v", what, rep, wantRep)
				}
			}
		}
	}
}

// TestRunSteadyStateAllocs is the table-level twin of the ColumnSet
// zero-allocation guard: a warmed Table.Run pays a fixed handful of
// allocations per scan and per segment (the pin, the per-segment
// closures) and nothing per block — a table with sixteen times the blocks
// in the same three segments allocates exactly as much. That holds with
// the hot-block cache holding the table, the steady state of a serving
// process, and without a cache, where every frame is read again on every
// scan, in runs, into buffers the scan borrows from a pool.
func TestRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is asserted in the non-race run")
	}
	for _, cached := range []bool{true, false} {
		allocs := func(rowsPerSeg int) float64 {
			tb := mustCreate(t, filepath.Join(t.TempDir(), "tbl"), zktable.Options{})
			defer tb.Close()
			if cached {
				tb.SetBlockCache(zukowski.NewBlockLRU(64 << 20))
			}
			for s := 0; s < 3; s++ {
				mustAppend(t, tb, synthCols(int64(50+s), rowsPerSeg))
			}
			q := where(zukowski.Pred[int64]{Col: 1, Lo: 100, Hi: 600}, zukowski.Pred[int64]{Col: 2, Lo: -10, Hi: 20})
			sink := func(int, []int64, [][]int64) bool { return true }
			scan := func() {
				if err := tb.Run(bg, q, sink); err != nil {
					t.Fatal(err)
				}
			}
			scan() // warm the cache, the pooled scan states and run buffers, and the verification latches
			return testing.AllocsPerRun(20, scan)
		}
		few, many := allocs(2*testBV), allocs(32*testBV)
		if few != many {
			t.Fatalf("cache %v: Table.Run allocates per block: %v allocs over 6 blocks, %v over 96", cached, few, many)
		}
		if few > 16 {
			t.Fatalf("cache %v: Table.Run: %v allocs per 3-segment scan, want a small per-segment constant", cached, few)
		}
	}
}

// checkOneShot asserts that segment id's column files are byte for byte
// what one ColumnWriter produces when handed each whole column at once.
func checkOneShot(t *testing.T, dir string, id int, all [][]int64) {
	t.Helper()
	for ci, col := range testSchema {
		var want bytes.Buffer
		cw, err := zukowski.NewColumnWriter[int64](&want, nil, testBV)
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Write(all[ci]); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seg-%08d-%s.zkc", id, col)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("compacted column %q: %d bytes differ from the %d of a one-shot write", col, len(got), want.Len())
		}
	}
}

// synthSegs builds one segment of data per row count.
func synthSegs(seed int64, rows ...int) [][][]int64 {
	segs := make([][][]int64, len(rows))
	for i, n := range rows {
		segs[i] = synthCols(seed+int64(i), n)
	}
	return segs
}

func TestCompact(t *testing.T) {
	for _, tc := range []struct {
		name string
		segs [][][]int64
	}{
		// Segments ending mid-block: blocks span the seams and are encoded anew.
		{"mid-block", synthSegs(20, 900, 1300, 400)},
		// Whole blocks only: every frame is copied as it stands.
		{"block-aligned", synthSegs(20, 2*testBV, 3*testBV, testBV)},
	} {
		t.Run(tc.name, func(t *testing.T) { testCompact(t, tc.segs) })
	}
}

func testCompact(t *testing.T, segs [][][]int64) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	defer tb.Close()
	for _, s := range segs {
		mustAppend(t, tb, s)
	}
	all := appendAll(segs...)
	total := int64(len(all[0]))
	genBefore := tb.Generation()

	gen, err := tb.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if gen != genBefore+1 {
		t.Fatalf("compact generation = %d, want %d", gen, genBefore+1)
	}
	if tb.NumSegments() != 1 {
		t.Fatalf("after compact: %d segments, want 1", tb.NumSegments())
	}
	if got := countRows(t, tb); got != total {
		t.Fatalf("after compact: scan saw %d rows, want %d", got, total)
	}
	// Segment ids count from 1; the compacted segment takes the next one.
	checkOneShot(t, dir, len(segs)+1, all)
	// Scans still match the oracle on the compacted layout.
	preds := []zukowski.Pred[int64]{{Col: 2, Lo: 0, Hi: 31}}
	wantRows, _ := scanOracle(all, preds)
	var got int64
	if err := tb.Run(bg, where(preds...), func(_ int, rows []int64, _ [][]int64) bool {
		got += int64(len(rows))
		return true
	}); err != nil {
		t.Fatalf("post-compact scan: %v", err)
	}
	if got != int64(len(wantRows)) {
		t.Fatalf("post-compact predicate scan saw %d rows, oracle %d", got, len(wantRows))
	}

	// Two more commits age the pre-compaction manifests out of retention;
	// their segment files must be swept from disk.
	mustAppend(t, tb, synthCols(23, 300))
	mustAppend(t, tb, synthCols(24, 300))
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range ents {
		if len(e.Name()) > 4 && e.Name()[:4] == "seg-" {
			segFiles++
		}
	}
	// 3 live segments × 3 columns; nothing from before the compaction.
	if segFiles != 9 {
		t.Fatalf("%d segment files on disk after retention aged out, want 9", segFiles)
	}
}

// countingAuto is the Auto codec, counting the blocks it is asked to encode.
type countingAuto struct {
	zukowski.Auto[int64]
	encodes *atomic.Int64
}

func (c countingAuto) Encode(dst []byte, src []int64) ([]byte, error) {
	c.encodes.Add(1)
	return c.Auto.Encode(dst, src)
}

// TestCompactGeometry compacts tables cut into segments of every shape a
// block size allows and checks the one segment that results from outside:
// its values, its zone maps against the values' own min and max, uniform
// block geometry, the files a one-shot write produces, a clean Fsck — and
// how many blocks the codec was asked to encode, which is none while the
// source blocks are full and only those the writer had to cut itself from
// the first short one on.
func TestCompactGeometry(t *testing.T) {
	var encodes atomic.Int64
	zukowski.Register("counting-auto", func() zukowski.Codec[int64] { return countingAuto{encodes: &encodes} })
	const bv = testBV
	for _, tc := range []struct {
		name    string
		rows    []int
		encodes int64
	}{
		{"single rows", []int{1, 1, 1}, 1},
		{"under a block", []int{300, 100}, 1},
		{"one block each", []int{bv, bv}, 0},
		{"a block and a row", []int{bv + 1, bv}, 2},
		{"k blocks", []int{3 * bv, 2 * bv, bv, 4 * bv}, 0},
		{"short tail", []int{2 * bv, 2*bv + 77}, 1},
		{"aligned, ragged, aligned", []int{2 * bv, bv + 200, 2 * bv}, 3},
		{"ragged first", []int{100, 2 * bv}, 3},
		// The ragged pieces add up to a block: what follows lands on a
		// block boundary again and is copied.
		{"ragged realigns", []int{bv, 100, bv - 100, 2 * bv}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "tbl")
			tb := mustCreate(t, dir, zktable.Options{Codec: "counting-auto"})
			defer tb.Close()
			segs := synthSegs(40, tc.rows...)
			for _, s := range segs {
				mustAppend(t, tb, s)
			}
			all := appendAll(segs...)
			encodes.Store(0)
			if _, err := tb.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if got := encodes.Load() / int64(len(testSchema)); got != tc.encodes {
				t.Fatalf("Compact encoded %d blocks per column, want %d", got, tc.encodes)
			}

			got := make([][]int64, len(testSchema))
			if err := tb.Run(bg, where(), func(_ int, _ []int64, cols [][]int64) bool {
				for ci := range cols {
					got[ci] = append(got[ci], cols[ci]...)
				}
				return true
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			rdrs, err := tb.SegmentReaders(0)
			if err != nil {
				t.Fatal(err)
			}
			for ci, cr := range rdrs {
				if !slices.Equal(got[ci], all[ci]) {
					t.Fatalf("column %d reads back differently", ci)
				}
				nb := (len(all[ci]) + bv - 1) / bv
				if cr.NumBlocks() != nb {
					t.Fatalf("column %d: %d blocks, want %d", ci, cr.NumBlocks(), nb)
				}
				for b := 0; b < nb; b++ {
					info, err := cr.BlockInfo(b)
					if err != nil {
						t.Fatal(err)
					}
					vals := all[ci][b*bv : min((b+1)*bv, len(all[ci]))]
					if info.Count != len(vals) {
						t.Fatalf("column %d block %d holds %d rows, want %d", ci, b, info.Count, len(vals))
					}
					if info.Min != slices.Min(vals) || info.Max != slices.Max(vals) {
						t.Fatalf("column %d block %d zone map [%d,%d], values span [%d,%d]",
							ci, b, info.Min, info.Max, slices.Min(vals), slices.Max(vals))
					}
				}
			}
			checkOneShot(t, dir, len(segs)+1, all)
			fsck, err := zktable.Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !fsck.OK() {
				t.Fatalf("fsck after compact: %v", fsck.Problems)
			}
		})
	}
}

// TestTableConcurrentIngestScan appends while scans run. Every scan must
// observe exactly one committed generation's row total — never a torn
// in-between state. Runs under -race at -cpu=1,4 in CI.
func TestTableConcurrentIngestScan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	defer tb.Close()
	mustAppend(t, tb, synthCols(30, 800))

	// Every total a scan may legally observe is known up front: the
	// publication is atomic, so anything else is a torn snapshot.
	const appends = 6
	committed := map[int64]bool{800: true}
	for i, rows := 0, int64(800); i < appends; i++ {
		rows += int64(300 + 100*i)
		committed[rows] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < appends; i++ {
			if _, err := tb.Append(synthCols(int64(31+i), 300+100*i)); err != nil {
				t.Errorf("concurrent append: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var n int64
				q := where()
				if g == 0 {
					q.Workers = 4
				}
				err := tb.Run(bg, q, func(_ int, rows []int64, _ [][]int64) bool {
					n += int64(len(rows))
					return true
				})
				if err != nil {
					t.Errorf("concurrent scan: %v", err)
					return
				}
				if !committed[n] {
					t.Errorf("scan saw %d rows: not a committed total", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := countRows(t, tb); got != 800+300+400+500+600+700+800 {
		t.Fatalf("final rows = %d", got)
	}
}

func TestAppendValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	defer tb.Close()
	if _, err := tb.Append([][]int64{{1}, {2}}); err == nil {
		t.Fatal("Append with wrong column count succeeded")
	}
	if _, err := tb.Append([][]int64{{1, 2}, {3}, {4, 5}}); err == nil {
		t.Fatal("Append with ragged columns succeeded")
	}
	if _, err := tb.Append([][]int64{{}, {}, {}}); err == nil {
		t.Fatal("Append of zero rows succeeded")
	}
	if gen := tb.Generation(); gen != 1 {
		t.Fatalf("failed appends moved generation to %d", gen)
	}
}

func TestOpenErrors(t *testing.T) {
	empty := t.TempDir()
	if _, _, err := zktable.Open[int64](empty, zktable.Options{}); !errors.Is(err, zktable.ErrNotTable) {
		t.Fatalf("Open of empty dir: %v, want ErrNotTable", err)
	}
	// The paper's comparators are not codecs a table can store: naming one
	// is refused before a manifest is written.
	if _, err := zktable.Create[int64](empty, testSchema, testBV, zktable.Options{Codec: "flate"}); !errors.Is(err, zukowski.ErrUnknownCodec) {
		t.Fatalf("Create with codec flate: %v, want ErrUnknownCodec", err)
	}
	if _, _, err := zktable.Open[int64](empty, zktable.Options{}); !errors.Is(err, zktable.ErrNotTable) {
		t.Fatalf("Open after the refused Create: %v, want ErrNotTable", err)
	}

	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	mustAppend(t, tb, synthCols(40, 500))
	tb.Close()

	if _, err := zktable.Create[int64](dir, testSchema, testBV, zktable.Options{}); !errors.Is(err, zktable.ErrTableExists) {
		t.Fatalf("Create over existing table: %v, want ErrTableExists", err)
	}
	if _, _, err := zktable.Open[int32](dir, zktable.Options{}); err == nil {
		t.Fatal("Open with wrong element width succeeded")
	}

	tb2, _, err := zktable.Open[int64](dir, zktable.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	tb2.Close()
	if err := tb2.Run(bg, where(), func(int, []int64, [][]int64) bool { return true }); !errors.Is(err, zktable.ErrClosed) {
		t.Fatalf("scan after close: %v, want ErrClosed", err)
	}
	if _, err := tb2.Append(synthCols(41, 10)); !errors.Is(err, zktable.ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}
