package zkserve_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultio"
	"repro/zkserve"
	"repro/zkserve/client"
	"repro/zukowski"
)

// faultBlock is the block the fault tests damage; its rows are
// [faultBlock*testBV, (faultBlock+1)*testBV).
const faultBlock = 5

// newFaultyRegistry writes the standard test tables, flips one payload
// byte in block faultBlock of t's c1 segment file, and opens the
// directory with opts. The flip is below the manifest's notice — the
// segment opens — and surfaces as a checksum mismatch when the block is
// read.
func newFaultyRegistry(t *testing.T, opts ...zkserve.RegistryOption) *zkserve.Registry {
	t.Helper()
	dir := writeTestTables(t)
	path := filepath.Join(dir, "t", "seg-00000001-c1.zkc")
	data, info := blockInfo(t, path, faultBlock)
	data[int(info.Offset)+info.Length/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return openTestDir(t, dir, opts...)
}

// blockInfo reads the int64 column container at path and returns its
// bytes and the directory entry of block b.
func blockInfo(t *testing.T, path string, b int) ([]byte, zukowski.BlockInfo[int64]) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cr.BlockInfo(b)
	if err != nil {
		t.Fatal(err)
	}
	return data, info
}

// TestDegradedScanEndToEnd drives the whole corruption story over HTTP:
// an exact scan touching the bad block fails mid-stream, a skip_corrupt
// scan completes with exact loss accounting and correct surviving rows,
// and the quarantine latched by the failures surfaces in /tables,
// /healthz and /metrics.
func TestDegradedScanEndToEnd(t *testing.T) {
	reg := newFaultyRegistry(t)
	_, ts, cl := newTestServer(t, zkserve.Config{Registry: reg})
	ctx := context.Background()
	req := zkserve.ScanRequest{Table: "t", Cols: []string{"c0", "c1"}}

	// Exact contract first: the corruption kills the scan in-band.
	if _, err := cl.ScanRows(ctx, req, nil); !errors.Is(err, client.ErrScanFailed) {
		t.Fatalf("exact scan err = %v, want ErrScanFailed", err)
	}

	// Degraded: every row outside the damaged block arrives, losses are
	// accounted exactly, and values still match the oracle.
	req.SkipCorrupt = true
	var got int64
	res, err := cl.ScanRows(ctx, req, func(row int64, vals []int64) bool {
		if row >= faultBlock*testBV && row < (faultBlock+1)*testBV {
			t.Fatalf("row %d from the corrupt block was delivered", row)
		}
		if vals[0] != row || vals[1] != c1Val(row) {
			t.Fatalf("row %d: got %v", row, vals)
		}
		got++
		return true
	})
	if err != nil {
		t.Fatalf("degraded scan: %v", err)
	}
	if !res.Degraded || res.BlocksSkipped != 1 || res.RowsLost != testBV {
		t.Fatalf("result = %+v, want 1 block / %d rows lost", res, testBV)
	}
	if got != testRows-testBV || res.Rows != got {
		t.Fatalf("delivered %d rows (trailer %d), want %d", got, res.Rows, testRows-testBV)
	}

	// The mismatching block is now quarantined: capability listing and
	// health endpoint both say degraded, while the status stays 200.
	tables, err := cl.Tables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	meta := findTable(t, tables, "t")
	if !meta.Degraded {
		t.Fatalf("table meta not degraded: %+v", meta)
	}
	for _, cm := range meta.Columns {
		want := 0
		if cm.Name == "c1" {
			want = 1
		}
		if cm.QuarantinedBlocks != want {
			t.Fatalf("column %s quarantined_blocks = %d, want %d", cm.Name, cm.QuarantinedBlocks, want)
		}
	}
	body := httpGet(t, ts.URL+"/healthz")
	if !strings.Contains(body, "degraded") {
		t.Fatalf("healthz body = %q, want degraded", body)
	}
	metrics := httpGet(t, ts.URL+"/metrics")
	for _, want := range []string{
		"zkserve_blocks_quarantined 1",
		"zkserve_scans_degraded_total 1",
		"zkserve_blocks_skipped_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDegradedAggregateAndFrames checks the two other response shapes
// carry the same loss accounting: aggregate responses and the v2 frame
// stream trailer.
func TestDegradedAggregateAndFrames(t *testing.T) {
	reg := newFaultyRegistry(t)
	_, _, cl := newTestServer(t, zkserve.Config{Registry: reg})
	ctx := context.Background()

	agg, err := cl.Aggregate(ctx, zkserve.ScanRequest{
		Table: "t", Cols: []string{"c0"}, Agg: "all", AggCol: "c1", SkipCorrupt: true,
	})
	if err != nil {
		t.Fatalf("degraded aggregate: %v", err)
	}
	if !agg.Degraded || agg.BlocksSkipped != 1 || agg.RowsLost != testBV {
		t.Fatalf("aggregate = %+v", agg)
	}
	if agg.Result.Count != testRows-testBV {
		t.Fatalf("count = %d, want %d", agg.Result.Count, testRows-testBV)
	}

	// Frame mode without skip fails in-band.
	req := zkserve.ScanRequest{Table: "t", Cols: []string{"c1"}}
	if _, err := cl.ScanFrames(ctx, req, nil); !errors.Is(err, client.ErrScanFailed) {
		t.Fatalf("exact frame scan err = %v", err)
	}
	// With skip the corrupt block is dropped and accounted in the trailer;
	// everything that ships still decodes.
	req.SkipCorrupt = true
	var dec zukowski.FrameDecoder[int64]
	var buf []int64
	shipped := 0
	res, err := cl.ScanFrames(ctx, req, func(cols []zkserve.FrameStreamCol, blk *zkserve.FrameBlock) bool {
		if blk.Index == faultBlock {
			t.Fatal("corrupt block was shipped")
		}
		out, derr := dec.Decode(buf[:0], blk.Frames[0])
		if derr != nil {
			t.Fatalf("block %d frame does not decode: %v", blk.Index, derr)
		}
		buf = out
		shipped++
		return true
	})
	if err != nil {
		t.Fatalf("degraded frame scan: %v", err)
	}
	if !res.Degraded || res.BlocksSkipped != 1 || res.RowsLost != testBV {
		t.Fatalf("frame result = %+v", res)
	}
	if wantBlocks := testRows/testBV - 1; shipped != wantBlocks {
		t.Fatalf("shipped %d blocks, want %d", shipped, wantBlocks)
	}
	if res.Rows != testRows-testBV {
		t.Fatalf("trailer rows = %d, want %d", res.Rows, testRows-testBV)
	}
}

// TestRegistryRetryPolicy: a column file whose source injects two
// transient faults per armed range serves cleanly when the registry opens
// readers with a 3-attempt retry policy — zero failed scans, nothing
// quarantined.
func TestRegistryRetryPolicy(t *testing.T) {
	vals := make([]int64, testRows)
	for i := range vals {
		vals[i] = int64(i)
	}
	dir := t.TempDir()
	writeTable(t, dir, "t", []string{"c0"}, [][]int64{vals}, testBV)
	_, info := blockInfo(t, filepath.Join(dir, "t", "seg-00000001-c0.zkc"), 3)

	var injected *faultio.ReaderAt
	reg := openTestDir(t, dir,
		zkserve.WithRetryPolicy(zukowski.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}),
		zkserve.WithSourceWrapper(func(r io.ReaderAt, size int64) io.ReaderAt {
			// Arm the faults on one block's payload so the open-time header
			// and footer reads stay clean.
			injected = faultio.NewReaderAt(r, 1, faultio.Rule{
				Kind: faultio.TransientErr, Off: int64(info.Offset), Len: int64(info.Length), Count: 2,
			})
			return injected
		}),
	)

	_, _, cl := newTestServer(t, zkserve.Config{Registry: reg})
	res, err := cl.ScanRows(context.Background(), zkserve.ScanRequest{Table: "t", Cols: []string{"c0"}}, nil)
	if err != nil {
		t.Fatalf("scan through transient faults: %v", err)
	}
	if res.Rows != testRows || res.Degraded {
		t.Fatalf("result = %+v, want all %d rows, not degraded", res, testRows)
	}
	if st := injected.Stats(); st.Injected[faultio.TransientErr] != 2 {
		t.Fatalf("injected %d transient faults, want 2", st.Injected[faultio.TransientErr])
	}
	if n := reg.QuarantinedBlocks(); n != 0 {
		t.Fatalf("%d blocks quarantined after transient-only faults", n)
	}
}

// TestChaosDegradedServe mirrors the CI chaos job in process: a
// generated one-segment table is served through WithSourceWrapper with a
// bit flip armed inside one frame of c1 and read retries on. A degraded
// full frame sweep succeeds and accounts the lost rows, and the
// quarantine shows on /tables, /healthz and /metrics.
func TestChaosDegradedServe(t *testing.T) {
	dir := t.TempDir()
	if err := zkserve.GenerateTable(dir, zkserve.TableSpec{Name: "chaos", Rows: 20000, Cols: 3, BlockValues: testBV, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	c1 := filepath.Join(dir, "chaos", "seg-00000001-c1.zkc")
	_, info := blockInfo(t, c1, faultBlock)
	reg := openTestDir(t, dir,
		zkserve.WithRetryPolicy(zukowski.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}),
		zkserve.WithSourceWrapper(func(r io.ReaderAt, size int64) io.ReaderAt {
			if f, ok := r.(*os.File); !ok || f.Name() != c1 {
				return r
			}
			return faultio.NewReaderAt(r, 1, faultio.Rule{
				Kind: faultio.BitFlip, Off: info.Offset + int64(info.Length)/2, Len: 8,
			})
		}),
	)
	_, ts, cl := newTestServer(t, zkserve.Config{Registry: reg})
	ctx := context.Background()

	tables, err := cl.Tables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m := findTable(t, tables, "chaos"); m.Segments != 1 || m.Generation < 2 {
		t.Fatalf("generated table: segments/generation = %d/%d, want 1/>=2", m.Segments, m.Generation)
	}

	res, err := cl.ScanFrames(ctx, zkserve.ScanRequest{
		Table: "chaos", Cols: []string{"c0", "c1", "c2"}, SkipCorrupt: true,
	}, nil)
	if err != nil {
		t.Fatalf("degraded sweep: %v", err)
	}
	if !res.Degraded || res.RowsLost <= 0 || res.Rows+res.RowsLost != 20000 {
		t.Fatalf("degraded sweep = %+v, want rows lost and every row accounted", res)
	}

	if tables, err = cl.Tables(ctx); err != nil {
		t.Fatal(err)
	}
	q := 0
	for _, cm := range findTable(t, tables, "chaos").Columns {
		q += cm.QuarantinedBlocks
	}
	if q < 1 {
		t.Fatal("/tables reports no quarantined block")
	}
	if body := httpGet(t, ts.URL+"/healthz"); !strings.Contains(body, "degraded") {
		t.Fatalf("healthz body = %q, want degraded", body)
	}
	if n := scrapeMetric(t, ts.URL, "zkserve_blocks_quarantined"); n < 1 {
		t.Fatalf("zkserve_blocks_quarantined = %d, want >= 1", n)
	}
	if n := scrapeMetric(t, ts.URL, "zkserve_scans_degraded_total"); n < 1 {
		t.Fatalf("zkserve_scans_degraded_total = %d, want >= 1", n)
	}
}
