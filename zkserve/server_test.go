package zkserve_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/experiments"
	"repro/zkserve"
	"repro/zkserve/client"
	"repro/zktable"
	"repro/zukowski"
)

const (
	testRows = 8192
	testBV   = 512
)

func c1Val(i int64) int64 { return (i * 7919) % 1000 }

// writeTable commits vals as one segment of a new table dir/name.
func writeTable[T zukowski.Integer](t *testing.T, dir, name string, cols []string, vals [][]T, blockValues int) {
	t.Helper()
	tb, err := zktable.Create[T](filepath.Join(dir, name), cols, blockValues, zktable.Options{})
	if err != nil {
		t.Fatalf("Create %s: %v", name, err)
	}
	defer tb.Close()
	if _, err := tb.Append(vals); err != nil {
		t.Fatalf("Append %s: %v", name, err)
	}
}

// writeTestTables writes the standard test tables into a fresh data
// directory and returns it. Table "t": c0 is the row number (sorted, so
// zone maps prune), c1 a deterministic pseudo-random column. Table "w32":
// one int32 column, w32, with the same geometry.
func writeTestTables(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	c0 := make([]int64, testRows)
	c1 := make([]int64, testRows)
	w32 := make([]int32, testRows)
	for i := range c0 {
		c0[i] = int64(i)
		c1[i] = c1Val(int64(i))
		w32[i] = int32(i % 100)
	}
	writeTable(t, dir, "t", []string{"c0", "c1"}, [][]int64{c0, c1}, testBV)
	writeTable(t, dir, "w32", []string{"w32"}, [][]int32{w32}, testBV)
	return dir
}

// openTestDir opens dir as a registry that is closed with the test.
func openTestDir(t *testing.T, dir string, opts ...zkserve.RegistryOption) *zkserve.Registry {
	t.Helper()
	reg, err := zkserve.OpenDir(dir, opts...)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg
}

// newTestRegistry serves the standard test tables (see writeTestTables).
func newTestRegistry(t *testing.T, opts ...zkserve.RegistryOption) *zkserve.Registry {
	t.Helper()
	return openTestDir(t, writeTestTables(t), opts...)
}

func newTestServer(t *testing.T, cfg zkserve.Config) (*zkserve.Server, *httptest.Server, *client.Client) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = newTestRegistry(t)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := zkserve.NewServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, client.New(ts.URL, ts.Client())
}

func pred(col string, lo, hi int64) zkserve.PredSpec {
	return zkserve.PredSpec{Col: col, Lo: &lo, Hi: &hi}
}

func TestScanRowsMatchesLocal(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	var rows int64
	res, err := cl.ScanRows(context.Background(), zkserve.ScanRequest{
		Table: "t",
		Cols:  []string{"c0", "c1"},
		Preds: []zkserve.PredSpec{pred("c0", 1000, 1999)},
	}, func(row int64, vals []int64) bool {
		if vals[0] != row || vals[1] != c1Val(row) {
			t.Fatalf("row %d: got %v, want [%d %d]", row, vals, row, c1Val(row))
		}
		if row < 1000 || row > 1999 {
			t.Fatalf("row %d escapes the predicate", row)
		}
		rows++
		return true
	})
	if err != nil {
		t.Fatalf("ScanRows: %v", err)
	}
	if rows != 1000 || res.Rows != 1000 {
		t.Fatalf("rows = %d (trailer %d), want 1000", rows, res.Rows)
	}
	if res.Truncated {
		t.Fatal("complete scan reported truncated")
	}
}

func TestScanMultiPredicateAndParallel(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	want := int64(0)
	for i := int64(0); i < testRows; i++ {
		if i >= 500 && i <= 6000 && c1Val(i) >= 100 && c1Val(i) <= 300 {
			want++
		}
	}
	for _, workers := range []int{0, 4} {
		res, err := cl.ScanRows(context.Background(), zkserve.ScanRequest{
			Table:   "t",
			Cols:    []string{"c1"},
			Preds:   []zkserve.PredSpec{pred("c0", 500, 6000), pred("c1", 100, 300)},
			Workers: workers,
		}, func(row int64, vals []int64) bool {
			if v := vals[0]; v < 100 || v > 300 {
				t.Fatalf("row %d: c1 = %d escapes the conjunction", row, v)
			}
			return true
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Rows != want {
			t.Fatalf("workers=%d: rows = %d, want %d", workers, res.Rows, want)
		}
	}
}

func TestAggregateMatchesLocal(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	want := zkserve.AggResult{Min: 1<<63 - 1, Max: -1 << 63}
	for i := int64(1000); i <= 1999; i++ {
		v := c1Val(i)
		want.Count++
		want.Sum += v
		want.Min = min(want.Min, v)
		want.Max = max(want.Max, v)
	}
	resp, err := cl.Aggregate(context.Background(), zkserve.ScanRequest{
		Table:  "t",
		Agg:    "all",
		AggCol: "c1",
		Preds:  []zkserve.PredSpec{pred("c0", 1000, 1999)},
	})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if resp.Result != want {
		t.Fatalf("aggregate = %+v, want %+v", resp.Result, want)
	}
	if resp.Col != "c1" {
		t.Fatalf("aggregate col = %q", resp.Col)
	}
}

// TestFrameModeEquivalence decodes the shipped frames client-side,
// applies the predicate exactly, and checks the result against row mode:
// the two transports must agree row for row.
func TestFrameModeEquivalence(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	req := zkserve.ScanRequest{
		Table: "t",
		Cols:  []string{"c0", "c1"},
		Preds: []zkserve.PredSpec{pred("c0", 1000, 1999)},
	}

	type rowVal struct{ row, v0, v1 int64 }
	var fromRows []rowVal
	if _, err := cl.ScanRows(context.Background(), req, func(row int64, vals []int64) bool {
		fromRows = append(fromRows, rowVal{row, vals[0], vals[1]})
		return true
	}); err != nil {
		t.Fatalf("ScanRows: %v", err)
	}

	var fromFrames []rowVal
	blocks := 0
	var dec0, dec1 zukowski.FrameDecoder[int64]
	var b0, b1 []int64
	res, err := cl.ScanFrames(context.Background(), req, func(cols []zkserve.FrameStreamCol, blk *zkserve.FrameBlock) bool {
		blocks++
		var err error
		if b0, err = dec0.Decode(b0[:0], blk.Frames[0]); err != nil {
			t.Fatalf("decoding c0 frame %d: %v", blk.Index, err)
		}
		if b1, err = dec1.Decode(b1[:0], blk.Frames[1]); err != nil {
			t.Fatalf("decoding c1 frame %d: %v", blk.Index, err)
		}
		if len(b0) != blk.Count || len(b1) != blk.Count {
			t.Fatalf("block %d: decoded %d/%d values, header says %d", blk.Index, len(b0), len(b1), blk.Count)
		}
		for j := 0; j < blk.Count; j++ {
			if b0[j] >= 1000 && b0[j] <= 1999 {
				fromFrames = append(fromFrames, rowVal{blk.FirstRow + int64(j), b0[j], b1[j]})
			}
		}
		return true
	})
	if err != nil {
		t.Fatalf("ScanFrames: %v", err)
	}
	// Zone maps must have pruned: c0 is sorted, the predicate covers
	// 1000 of 8192 rows, so only a sliver of the 16 blocks can match.
	if total := testRows / testBV; blocks >= total {
		t.Fatalf("no pruning: %d of %d blocks shipped", blocks, total)
	}
	if res.Rows != int64(blocks*testBV) {
		t.Fatalf("trailer rows = %d, want %d", res.Rows, blocks*testBV)
	}
	if len(fromFrames) != len(fromRows) {
		t.Fatalf("frame mode found %d rows, row mode %d", len(fromFrames), len(fromRows))
	}
	for i := range fromRows {
		if fromRows[i] != fromFrames[i] {
			t.Fatalf("row %d: row mode %+v, frame mode %+v", i, fromRows[i], fromFrames[i])
		}
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts, _ := newTestServer(t, zkserve.Config{})
	cases := []struct {
		name   string
		body   string
		accept string
		want   int
	}{
		{"malformed json", `{nope`, "", http.StatusBadRequest},
		{"unknown field", `{"tabel":"t","cols":["c0"]}`, "", http.StatusBadRequest},
		{"missing table", `{"cols":["c0"]}`, "", http.StatusBadRequest},
		{"no output columns", `{"table":"t"}`, "", http.StatusBadRequest},
		{"predicate names no column", `{"table":"t","cols":["c0"],"preds":[{"lo":1}]}`, "", http.StatusBadRequest},
		{"unknown aggregate", `{"table":"t","cols":["c0"],"agg":"median"}`, "", http.StatusBadRequest},
		{"unknown table", `{"table":"missing","cols":["c0"]}`, "", http.StatusNotFound},
		{"unknown output column", `{"table":"t","cols":["zz"]}`, "", http.StatusNotFound},
		{"unknown predicate column", `{"table":"t","cols":["c0"],"preds":[{"col":"zz"}]}`, "", http.StatusNotFound},
		{"mixed width scan ok alone", `{"table":"w32","cols":["w32"],"preds":[{"col":"w32","lo":10,"hi":20}]}`, "", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/scan", strings.NewReader(tc.body))
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

func TestBudgetTruncation(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	req := zkserve.ScanRequest{Table: "t", Cols: []string{"c0"}, MaxRows: 100}
	res, err := cl.ScanRows(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("ScanRows: %v", err)
	}
	if res.Rows != 100 || !res.Truncated || res.Reason != "rows" {
		t.Fatalf("row budget: %+v", res)
	}

	res, err = cl.ScanRows(context.Background(),
		zkserve.ScanRequest{Table: "t", Cols: []string{"c0"}, MaxBytes: 1000}, nil)
	if err != nil {
		t.Fatalf("ScanRows: %v", err)
	}
	if !res.Truncated || res.Reason != "bytes" {
		t.Fatalf("byte budget: %+v", res)
	}
	if res.Rows >= testRows {
		t.Fatalf("byte budget let the whole table through (%d rows)", res.Rows)
	}

	// Server-wide budget caps the request even when the request asks for
	// more.
	_, _, capped := newTestServer(t, zkserve.Config{MaxRows: 50})
	res, err = capped.ScanRows(context.Background(),
		zkserve.ScanRequest{Table: "t", Cols: []string{"c0"}, MaxRows: 100000}, nil)
	if err != nil {
		t.Fatalf("ScanRows: %v", err)
	}
	if res.Rows != 50 || !res.Truncated {
		t.Fatalf("server row budget: %+v", res)
	}

	// Frame mode truncates at block granularity.
	fres, err := cl.ScanFrames(context.Background(),
		zkserve.ScanRequest{Table: "t", Cols: []string{"c0"}, MaxRows: testBV}, nil)
	if err != nil {
		t.Fatalf("ScanFrames: %v", err)
	}
	if fres.Rows != testBV || !fres.Truncated {
		t.Fatalf("frame row budget: %+v", fres)
	}
}

// bigRegistry builds a table large enough that a full row-mode scan far
// exceeds socket buffering, so a non-reading client blocks the handler.
func bigRegistry(t *testing.T, rows int) *zkserve.Registry {
	t.Helper()
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i%997) * 1048583 // ~8 digits per value on the wire
	}
	dir := t.TempDir()
	writeTable(t, dir, "big", []string{"c0"}, [][]int64{vals}, 4096)
	return openTestDir(t, dir)
}

func TestSaturation429AndDisconnectFreesSlot(t *testing.T) {
	srv, ts, cl := newTestServer(t, zkserve.Config{Registry: bigRegistry(t, 1<<21), Slots: 1})

	// Occupy the single slot: start a full-table scan and stop reading
	// after the header line, so the handler blocks writing.
	body := strings.NewReader(`{"table":"big","cols":["c0"]}`)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/scan", body)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("occupying scan: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("occupying scan status = %d", resp.StatusCode)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("reading header line: %v", err)
	}

	// The slot is held: a second scan must be refused with 429 and a
	// Retry-After hint.
	_, err = cl.ScanRows(context.Background(),
		zkserve.ScanRequest{Table: "big", Cols: []string{"c0"}, MaxRows: 1}, nil)
	if !client.IsSaturated(err) {
		t.Fatalf("expected saturation, got %v", err)
	}
	var se *client.StatusError
	if errors.As(err, &se) && se.RetryAfter != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", se.RetryAfter)
	}
	if got := srv.Metrics().ScansRejected.Load(); got == 0 {
		t.Fatal("rejection not counted")
	}

	// Disconnect: the canceled context must free the slot at the next
	// block boundary.
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := cl.ScanRows(context.Background(),
			zkserve.ScanRequest{Table: "big", Cols: []string{"c0"}, MaxRows: 1}, nil)
		if err == nil && res.Rows == 1 {
			break
		}
		if !client.IsSaturated(err) {
			t.Fatalf("retry after disconnect: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after client disconnect")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.Metrics().ScansCanceled.Load(); got == 0 {
		t.Fatal("disconnected scan not counted as canceled")
	}
}

func TestTimeBudgetKillsScan(t *testing.T) {
	srv, _, cl := newTestServer(t, zkserve.Config{Registry: bigRegistry(t, 1<<21)})
	_, err := cl.ScanRows(context.Background(),
		zkserve.ScanRequest{Table: "big", Cols: []string{"c0"}, TimeoutMS: 1}, nil)
	if !errors.Is(err, client.ErrScanFailed) {
		t.Fatalf("expected a mid-stream failure, got %v", err)
	}
	if got := srv.Metrics().ScansCanceled.Load(); got == 0 {
		t.Fatal("timed-out scan not counted as canceled")
	}
}

// TestScanHammerConcurrent drives all three modes concurrently through a
// deliberately tiny admission budget — the -race test for the whole
// serving path: semaphore, metrics, streaming, budgets.
func TestScanHammerConcurrent(t *testing.T) {
	srv, _, cl := newTestServer(t, zkserve.Config{Slots: 4})
	const goroutines = 16
	const iters = 25
	var ok, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				lo := int64((g*iters + k) % testRows)
				req := zkserve.ScanRequest{
					Table:   "t",
					Cols:    []string{"c0", "c1"},
					Preds:   []zkserve.PredSpec{pred("c0", lo, lo+100)},
					Workers: k % 3,
				}
				var err error
				switch k % 10 {
				case 8:
					req.Agg = "all"
					_, err = cl.Aggregate(context.Background(), req)
				case 9:
					_, err = cl.ScanFrames(context.Background(), req, nil)
				default:
					_, err = cl.ScanRows(context.Background(), req, nil)
				}
				switch {
				case err == nil:
					ok.Add(1)
				case client.IsSaturated(err):
					rejected.Add(1)
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("goroutine %d iter %d: %v", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no scan succeeded")
	}
	m := srv.Metrics()
	if got := m.ScansOK.Load(); got != ok.Load() {
		t.Fatalf("ScansOK = %d, clients saw %d", got, ok.Load())
	}
	if got := m.ScansRejected.Load(); got != rejected.Load() {
		t.Fatalf("ScansRejected = %d, clients saw %d", got, rejected.Load())
	}
	if got := m.InFlight.Load(); got != 0 {
		t.Fatalf("InFlight = %d after the fleet drained", got)
	}
}

func TestHealthzDrainingAndMetrics(t *testing.T) {
	srv, ts, cl := newTestServer(t, zkserve.Config{})
	if !cl.Healthy(context.Background()) {
		t.Fatal("fresh server unhealthy")
	}
	srv.SetDraining(true)
	if cl.Healthy(context.Background()) {
		t.Fatal("draining server reported healthy")
	}
	srv.SetDraining(false)

	if _, err := cl.ScanRows(context.Background(),
		zkserve.ScanRequest{Table: "t", Cols: []string{"c0"}, MaxRows: 10}, nil); err != nil {
		t.Fatalf("scan: %v", err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	prom, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"zkserve_scans_total{result=\"ok\"}",
		"zkserve_rows_emitted_total",
		"zkserve_request_duration_seconds_bucket{route=\"scan\"",
		"zkserve_inflight_scans 0",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("metrics exposition lacks %q:\n%s", want, prom)
		}
	}
}

func TestTablesListing(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	resp, err := cl.Tables(context.Background())
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	if len(resp.Tables) != 2 || resp.Tables[0].Name != "t" || resp.Tables[1].Name != "w32" {
		t.Fatalf("tables = %+v", resp.Tables)
	}
	if len(resp.Tables[0].Columns) != 2 {
		t.Fatalf("columns = %+v", resp.Tables[0].Columns)
	}
	if w := resp.Tables[1].Columns[0].WidthBytes; w != 4 {
		t.Fatalf("int32 table advertises %d-byte elements", w)
	}
	for _, tm := range resp.Tables {
		if tm.Rows != testRows || tm.Segments != 1 || tm.Generation != 2 {
			t.Fatalf("table %s: rows/segments/generation = %d/%d/%d, want %d/1/2",
				tm.Name, tm.Rows, tm.Segments, tm.Generation, testRows)
		}
	}
	if len(resp.Codecs) == 0 || resp.Codecs[0] != "pfor" {
		t.Fatalf("codecs = %v", resp.Codecs)
	}
	for _, c := range resp.Tables[0].Columns {
		if c.Name == "c0" {
			if !c.HasMinMax || c.Min != 0 || c.Max != testRows-1 {
				t.Fatalf("c0 meta = %+v", c)
			}
		}
	}
}

func TestGenerateTableOpenDir(t *testing.T) {
	dir := t.TempDir()
	spec := zkserve.TableSpec{Name: "gen", Rows: 10000, Cols: 2, BlockValues: 1024, Seed: 42}
	if err := zkserve.GenerateTable(dir, spec); err != nil {
		t.Fatalf("GenerateTable: %v", err)
	}
	reg := openTestDir(t, dir)
	_, _, cl := newTestServer(t, zkserve.Config{Registry: reg})
	resp, err := cl.Aggregate(context.Background(),
		zkserve.ScanRequest{Table: "gen", Agg: "count", AggCol: "c0"})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if resp.Result.Count != 10000 {
		t.Fatalf("count = %d, want 10000", resp.Result.Count)
	}
	tables, err := cl.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Create commits generation 1 and the one Append generation 2.
	if m := findTable(t, tables, "gen"); m.Segments != 1 || m.Generation != 2 {
		t.Fatalf("segments/generation = %d/%d, want 1/2", m.Segments, m.Generation)
	}
	// The generator's draws are the paper harness's, call for call, so a
	// seed keeps yielding the corpus the CI serve and chaos jobs expect.
	zt, _, err := zktable.Open[int64](filepath.Join(dir, "gen"), zktable.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer zt.Close()
	rdrs, err := zt.SegmentReaders(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	for c, want := range [][]int64{
		experiments.SynthSorted(rng, spec.Rows, 3),
		experiments.SynthPFOR(rng, spec.Rows, 10, 0.02),
	} {
		if got, err := rdrs[c].ReadAll(nil); err != nil || !slices.Equal(got, want) {
			t.Fatalf("c%d: generated values differ from the harness generator (err %v)", c, err)
		}
	}
	// Determinism: the same spec generates a byte-identical directory.
	dir2 := t.TempDir()
	if err := zkserve.GenerateTable(dir2, spec); err != nil {
		t.Fatalf("GenerateTable again: %v", err)
	}
	a, b := readTree(t, filepath.Join(dir, "gen")), readTree(t, filepath.Join(dir2, "gen"))
	if !maps.EqualFunc(a, b, bytes.Equal) {
		t.Fatalf("identical specs generated different tables: %v vs %v", slices.Sorted(maps.Keys(a)), slices.Sorted(maps.Keys(b)))
	}
}

// readTree returns every file directly under dir, by name.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestGenerateTableRefusesExistingTable: generating into a table that
// already exists fails with zktable.ErrTableExists, whatever the segment
// count, and leaves the table byte for byte as it was.
func TestGenerateTableRefusesExistingTable(t *testing.T) {
	for _, segments := range []int{0, 1, 3} {
		dir := t.TempDir()
		spec := zkserve.TableSpec{Name: "gen", Rows: 3000, Cols: 2, BlockValues: 512, Seed: 5, Segments: segments}
		if err := zkserve.GenerateTable(dir, spec); err != nil {
			t.Fatalf("segments=%d: GenerateTable: %v", segments, err)
		}
		before := readTree(t, filepath.Join(dir, "gen"))
		again := spec
		again.Seed, again.Cols = 6, 3
		if err := zkserve.GenerateTable(dir, again); !errors.Is(err, zktable.ErrTableExists) {
			t.Fatalf("segments=%d: second GenerateTable err = %v, want ErrTableExists", segments, err)
		}
		if after := readTree(t, filepath.Join(dir, "gen")); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Fatalf("segments=%d: refused GenerateTable changed the table", segments)
		}
	}
}

// TestOpenDirRefusesLooseContainers: a subdirectory of .zkc containers
// without a manifest is not a table, and OpenDir says so instead of
// serving nothing of it; a subdirectory without containers is skipped.
func TestOpenDirRefusesLooseContainers(t *testing.T) {
	dir := writeTestTables(t)
	if err := os.MkdirAll(filepath.Join(dir, "notes"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes", "README"), []byte("not a table"), 0o644); err != nil {
		t.Fatal(err)
	}
	if names := openTestDir(t, dir).Tables(); !slices.Equal(names, []string{"t", "w32"}) {
		t.Fatalf("tables = %v, want [t w32]", names)
	}

	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&buf, nil, testBV)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	loose := filepath.Join(dir, "loose")
	if err := os.MkdirAll(loose, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(loose, "c0.zkc"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := zkserve.OpenDir(dir)
	if !errors.Is(err, zktable.ErrNotTable) || !strings.Contains(err.Error(), loose) {
		t.Fatalf("OpenDir over loose containers: registry %v, err %v; want ErrNotTable naming %s", reg, err, loose)
	}
}

// TestInt32TableClampsPredicates scans the int32 table in row mode with
// predicates the wire states as int64: a bound beyond int32 clamps to
// the domain, a range wholly outside it selects nothing.
func TestInt32TableClampsPredicates(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	for _, tc := range []struct{ lo, hi int64 }{
		{-1 << 40, 14},
		{1 << 40, 1 << 41},
		{-1 << 62, 1 << 62},
		{90, 1<<31 + 5},
	} {
		var want int64
		for i := int64(0); i < testRows; i++ {
			if v := i % 100; v >= tc.lo && v <= tc.hi {
				want++
			}
		}
		res, err := cl.ScanRows(context.Background(), zkserve.ScanRequest{
			Table: "w32", Cols: []string{"w32"}, Preds: []zkserve.PredSpec{pred("w32", tc.lo, tc.hi)},
		}, func(row int64, vals []int64) bool {
			if vals[0] != row%100 || vals[0] < tc.lo || vals[0] > tc.hi {
				t.Fatalf("[%d, %d]: row %d = %d", tc.lo, tc.hi, row, vals[0])
			}
			return true
		})
		if err != nil {
			t.Fatalf("[%d, %d]: %v", tc.lo, tc.hi, err)
		}
		if res.Rows != want {
			t.Fatalf("[%d, %d]: %d rows, want %d", tc.lo, tc.hi, res.Rows, want)
		}
	}
}
