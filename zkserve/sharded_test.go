package zkserve_test

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/zkserve"
	"repro/zkserve/client"
	"repro/zktable"
	"repro/zukowski"
)

// buildShardedTable commits segRows-many segments under dir/st: c0 is
// the global row number (sorted across segments, so zone maps prune and
// global row IDs are checkable), c1 the same deterministic function of
// the row the one-segment test table uses.
func buildShardedTable(t *testing.T, dir string, segRows []int) int {
	t.Helper()
	tb, err := zktable.Create[int64](filepath.Join(dir, "st"), []string{"c0", "c1"}, testBV, zktable.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer tb.Close()
	base := 0
	for _, n := range segRows {
		c0 := make([]int64, n)
		c1 := make([]int64, n)
		for i := 0; i < n; i++ {
			row := int64(base + i)
			c0[i] = row
			c1[i] = c1Val(row)
		}
		if _, err := tb.Append([][]int64{c0, c1}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		base += n
	}
	return base
}

func findTable(t *testing.T, resp zkserve.TablesResponse, name string) zkserve.TableMeta {
	t.Helper()
	for _, tm := range resp.Tables {
		if tm.Name == name {
			return tm
		}
	}
	t.Fatalf("table %q missing from listing %+v", name, resp.Tables)
	return zkserve.TableMeta{}
}

// TestShardedServeEndToEnd drives a zktable directory through the whole
// serve path: OpenDir next to a generated one-segment table, /tables
// generation and segment metadata, and row/aggregate/frame scans with
// global row and block numbering across segment boundaries.
func TestShardedServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	segRows := []int{900, 1300, 700} // deliberately not block-aligned
	total := buildShardedTable(t, dir, segRows)
	if err := zkserve.GenerateTable(dir, zkserve.TableSpec{Name: "gen", Rows: 1000, Cols: 1, BlockValues: testBV, Seed: 7}); err != nil {
		t.Fatalf("GenerateTable: %v", err)
	}

	reg, err := zkserve.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer reg.Close()
	_, _, cl := newTestServer(t, zkserve.Config{Registry: reg})

	resp, err := cl.Tables(context.Background())
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	if len(resp.Tables) != 2 {
		t.Fatalf("tables = %+v, want gen + st", resp.Tables)
	}
	meta := findTable(t, resp, "st")
	// Create commits generation 1; each of the three appends bumps it.
	if meta.Generation != 4 || meta.Segments != 3 {
		t.Fatalf("generation/segments = %d/%d, want 4/3", meta.Generation, meta.Segments)
	}
	if meta.Rows != total || meta.Degraded || meta.QuarantinedSegments != 0 || meta.RowsUnavailable != 0 {
		t.Fatalf("healthy sharded meta = %+v", meta)
	}
	if len(meta.Columns) != 2 {
		t.Fatalf("columns = %+v", meta.Columns)
	}
	for _, cm := range meta.Columns {
		if cm.Rows != total {
			t.Fatalf("column %q rows = %d, want %d", cm.Name, cm.Rows, total)
		}
		if cm.Name == "c0" && (!cm.HasMinMax || cm.Min != 0 || cm.Max != int64(total-1)) {
			t.Fatalf("c0 meta = %+v", cm)
		}
	}
	if gen := findTable(t, resp, "gen"); gen.Generation != 2 || gen.Segments != 1 || gen.Rows != 1000 {
		t.Fatalf("generated table meta = %+v, want generation 2, one segment, 1000 rows", gen)
	}

	// Row mode across both segment boundaries (at rows 900 and 2200):
	// global row IDs must be continuous and values must match the oracle.
	const lo, hi = 800, 2300
	for _, workers := range []int{0, 4} {
		next := int64(lo)
		res, err := cl.ScanRows(context.Background(), zkserve.ScanRequest{
			Table:   "st",
			Cols:    []string{"c0", "c1"},
			Preds:   []zkserve.PredSpec{pred("c0", lo, hi)},
			Workers: workers,
		}, func(row int64, vals []int64) bool {
			if row != next {
				t.Fatalf("workers=%d: got row %d, want %d", workers, row, next)
			}
			if vals[0] != row || vals[1] != c1Val(row) {
				t.Fatalf("row %d: vals = %v", row, vals)
			}
			next++
			return true
		})
		if err != nil {
			t.Fatalf("workers=%d: ScanRows: %v", workers, err)
		}
		if res.Rows != hi-lo+1 {
			t.Fatalf("workers=%d: rows = %d, want %d", workers, res.Rows, hi-lo+1)
		}
	}

	// Aggregate folds across segments.
	want := zkserve.AggResult{Min: 1<<63 - 1, Max: -1 << 63}
	for i := int64(lo); i <= hi; i++ {
		v := c1Val(i)
		want.Count++
		want.Sum += v
		want.Min = min(want.Min, v)
		want.Max = max(want.Max, v)
	}
	agg, err := cl.Aggregate(context.Background(), zkserve.ScanRequest{
		Table: "st", Agg: "all", AggCol: "c1",
		Preds: []zkserve.PredSpec{pred("c0", lo, hi)},
	})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if agg.Result != want {
		t.Fatalf("aggregate = %+v, want %+v", agg.Result, want)
	}

	// Frame mode: block indices are global and strictly increasing, rows
	// reconstructed client-side agree with row mode, and the sorted c0
	// zone maps prune blocks outside the predicate.
	totalBlocks := 0
	for _, n := range segRows {
		totalBlocks += (n + testBV - 1) / testBV
	}
	var dec0, dec1 zukowski.FrameDecoder[int64]
	var b0, b1 []int64
	lastBlk := -1
	var got []int64
	fres, err := cl.ScanFrames(context.Background(), zkserve.ScanRequest{
		Table: "st",
		Cols:  []string{"c0", "c1"},
		Preds: []zkserve.PredSpec{pred("c0", lo, hi)},
	}, func(cols []zkserve.FrameStreamCol, blk *zkserve.FrameBlock) bool {
		if blk.Index <= lastBlk || blk.Index >= totalBlocks {
			t.Fatalf("block index %d after %d (total %d)", blk.Index, lastBlk, totalBlocks)
		}
		lastBlk = blk.Index
		var err error
		if b0, err = dec0.Decode(b0[:0], blk.Frames[0]); err != nil {
			t.Fatalf("decoding c0 frame: %v", err)
		}
		if b1, err = dec1.Decode(b1[:0], blk.Frames[1]); err != nil {
			t.Fatalf("decoding c1 frame: %v", err)
		}
		for j := 0; j < blk.Count; j++ {
			if b0[j] != blk.FirstRow+int64(j) {
				t.Fatalf("block %d: global first row %d but c0[%d] = %d", blk.Index, blk.FirstRow, j, b0[j])
			}
			if b0[j] >= lo && b0[j] <= hi {
				if b1[j] != c1Val(b0[j]) {
					t.Fatalf("row %d: c1 = %d", b0[j], b1[j])
				}
				got = append(got, b0[j])
			}
		}
		return true
	})
	if err != nil {
		t.Fatalf("ScanFrames: %v", err)
	}
	if len(got) != hi-lo+1 {
		t.Fatalf("frame mode matched %d rows, want %d", len(got), hi-lo+1)
	}
	if fres.Rows >= int64(total) {
		t.Fatal("no block pruning on the sorted column")
	}
}

// TestShardedQuarantineServe damages one segment's column file so
// zktable quarantines it at open, then checks the serving contract: the
// loss is visible on /tables, exact scans fail, and degraded scans
// return every surviving row with exact loss accounting.
func TestShardedQuarantineServe(t *testing.T) {
	dir := t.TempDir()
	segRows := []int{900, 1300, 700}
	buildShardedTable(t, dir, segRows)
	// Truncating metadata (directory + footer) quarantines the segment;
	// salvage cannot restore the committed geometry from a shorter file.
	victim := filepath.Join(dir, "st", "seg-00000002-c1.zkc")
	st, err := os.Stat(victim)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(victim, st.Size()-200); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	// A second table, int32 and quarantined in full: its element width must
	// still come out right everywhere it is advertised.
	q32, err := zktable.Create[int32](filepath.Join(dir, "q32"), []string{"a", "b"}, testBV, zktable.Options{})
	if err != nil {
		t.Fatalf("Create q32: %v", err)
	}
	if _, err := q32.Append([][]int32{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatalf("Append q32: %v", err)
	}
	q32.Close()
	// Cut inside the only block's payload: salvage has nothing to rebuild.
	if err := os.Truncate(filepath.Join(dir, "q32", "seg-00000001-a.zkc"), 20); err != nil {
		t.Fatalf("truncate q32: %v", err)
	}

	reg, err := zkserve.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer reg.Close()
	_, ts, cl := newTestServer(t, zkserve.Config{Registry: reg})

	resp, err := cl.Tables(context.Background())
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	lost := findTable(t, resp, "q32")
	if lost.QuarantinedSegments != 1 || lost.RowsUnavailable != 3 || len(lost.Columns) != 2 {
		t.Fatalf("fully quarantined meta = %+v", lost)
	}
	for _, cm := range lost.Columns {
		if cm.WidthBytes != 4 {
			t.Fatalf("fully quarantined int32 column %q advertises %d-byte elements", cm.Name, cm.WidthBytes)
		}
	}
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/scan",
		strings.NewReader(`{"table":"q32","cols":["a","b"],"skip_corrupt":true}`))
	hreq.Header.Set("Accept", zkserve.MIMEFrames)
	hresp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatalf("q32 frame scan: %v", err)
	}
	defer hresp.Body.Close()
	fr, err := zkserve.NewFrameStreamReader(hresp.Body)
	if err != nil {
		t.Fatalf("q32 frame header: %v", err)
	}
	for _, c := range fr.Cols {
		if c.WidthBytes != 4 {
			t.Fatalf("frame header advertises %d-byte elements for int32 column %q", c.WidthBytes, c.Name)
		}
	}
	if blk, err := fr.Next(); err != nil || blk != nil || fr.Trailer().RowsLost != 3 {
		t.Fatalf("q32 degraded frames: block %v, err %v, trailer %+v; want no block and 3 rows lost", blk, err, fr.Trailer())
	}

	meta := findTable(t, resp, "st")
	if !meta.Degraded || meta.QuarantinedSegments != 1 || meta.RowsUnavailable != 1300 {
		t.Fatalf("quarantine meta = %+v", meta)
	}
	if meta.Generation != 4 || meta.Segments != 3 || meta.Rows != 2900 {
		t.Fatalf("committed state misreported: %+v", meta)
	}

	// Exact requests must fail: the committed generation cannot be served
	// in full.
	exact := zkserve.ScanRequest{Table: "st", Cols: []string{"c0", "c1"}}
	if _, err := cl.ScanRows(context.Background(), exact, nil); err == nil {
		t.Fatal("exact scan succeeded with a quarantined segment")
	} else if !errors.Is(err, client.ErrScanFailed) {
		t.Fatalf("exact scan error = %v, want a mid-stream failure", err)
	}
	if _, err := cl.Aggregate(context.Background(), zkserve.ScanRequest{
		Table: "st", Agg: "count", AggCol: "c0",
	}); err == nil {
		t.Fatal("exact aggregate succeeded with a quarantined segment")
	}

	// Degraded requests serve the survivors (segments 1 and 3) and account
	// the quarantined segment's committed rows and blocks exactly.
	lostBlocks := int64((1300 + testBV - 1) / testBV)
	degraded := exact
	degraded.SkipCorrupt = true
	rows := 0
	res, err := cl.ScanRows(context.Background(), degraded, func(row int64, vals []int64) bool {
		if row >= 900 && row < 2200 {
			t.Fatalf("row %d from the quarantined segment leaked through", row)
		}
		if vals[0] != row || vals[1] != c1Val(row) {
			t.Fatalf("row %d: vals = %v", row, vals)
		}
		rows++
		return true
	})
	if err != nil {
		t.Fatalf("degraded scan: %v", err)
	}
	if rows != 1600 || res.Rows != 1600 {
		t.Fatalf("degraded rows = %d (trailer %d), want 1600", rows, res.Rows)
	}
	if !res.Degraded || res.RowsLost != 1300 || res.BlocksSkipped != lostBlocks {
		t.Fatalf("degraded trailer = %+v, want 1300 rows / %d blocks lost", res, lostBlocks)
	}

	agg, err := cl.Aggregate(context.Background(), zkserve.ScanRequest{
		Table: "st", Agg: "all", AggCol: "c0", SkipCorrupt: true,
	})
	if err != nil {
		t.Fatalf("degraded aggregate: %v", err)
	}
	if agg.Result.Count != 1600 || agg.Result.Min != 0 || agg.Result.Max != 2899 {
		t.Fatalf("degraded aggregate = %+v", agg.Result)
	}
	if !agg.Degraded || agg.RowsLost != 1300 || agg.BlocksSkipped != lostBlocks {
		t.Fatalf("degraded aggregate trailer = %+v", agg)
	}

	// Frame mode skips the quarantined segment's blocks the same way.
	fres, err := cl.ScanFrames(context.Background(), degraded, nil)
	if err != nil {
		t.Fatalf("degraded frames: %v", err)
	}
	if fres.Rows != 1600 || !fres.Degraded || fres.RowsLost != 1300 || fres.BlocksSkipped != lostBlocks {
		t.Fatalf("degraded frame trailer = %+v", fres)
	}
}
