package zkserve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/zkserve"
	"repro/zkserve/client"
	"repro/zktable"
	"repro/zukowski"
)

// Format parity: for one request, the binary row stream read through
// client.ScanRows, the NDJSON stream parsed here with encoding/json, and
// zktable.Table.Run called on a handle of its own must deliver the same
// (row, values) sequence, and the two streams the same ScanResult apart
// from Bytes and ElapsedMS. The direct run is the oracle: it shares no
// code with either wire format or the client.

type parityRow struct {
	Row  int64
	Vals []int64
}

// parityTable is one served table: its columns, their values widened
// (to draw predicate bounds from), and the oracle.
type parityTable struct {
	name   string
	cols   []string
	vals   [][]int64
	direct func(req zkserve.ScanRequest) ([]parityRow, *zukowski.ScanReport, error)
}

// writeParityTable commits vals under dir/name as one segment per entry
// of segRows and opens a handle of its own on the result.
func writeParityTable[T zukowski.Integer](t *testing.T, dir, name string, cols []string, vals [][]T, segRows []int) parityTable {
	t.Helper()
	tb, err := zktable.Create[T](filepath.Join(dir, name), cols, testBV/2, zktable.Options{})
	if err != nil {
		t.Fatalf("Create %s: %v", name, err)
	}
	off := 0
	for _, n := range segRows {
		seg := make([][]T, len(vals))
		for i, v := range vals {
			seg[i] = v[off : off+n]
		}
		if _, err := tb.Append(seg); err != nil {
			t.Fatalf("Append %s: %v", name, err)
		}
		off += n
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	pt := parityTable{name: name, cols: cols, vals: make([][]int64, len(vals))}
	for i, v := range vals {
		for _, x := range v {
			pt.vals[i] = append(pt.vals[i], int64(x))
		}
	}
	pt.direct = func(req zkserve.ScanRequest) ([]parityRow, *zukowski.ScanReport, error) {
		tbl, _, err := zktable.Open[T](filepath.Join(dir, name), zktable.Options{})
		if err != nil {
			t.Fatalf("Open %s: %v", name, err)
		}
		defer tbl.Close()
		return runDirect(tbl, cols, req)
	}
	return pt
}

// runDirect translates req into a Query by hand — its bounds lie in T's
// domain — and runs it on tbl.
func runDirect[T zukowski.Integer](tbl *zktable.Table[T], cols []string, req zkserve.ScanRequest) ([]parityRow, *zukowski.ScanReport, error) {
	q := zukowski.Query[T]{SkipCorrupt: req.SkipCorrupt}
	if req.SkipCorrupt {
		q.Report = new(zukowski.ScanReport)
	}
	if req.Workers > 1 {
		q.Workers = req.Workers
	}
	for _, c := range req.Cols {
		q.Cols = append(q.Cols, slices.Index(cols, c))
	}
	for _, p := range req.Preds {
		q.Preds = append(q.Preds, zukowski.Pred[T]{Col: slices.Index(cols, p.Col), Lo: T(*p.Lo), Hi: T(*p.Hi)})
	}
	if len(req.AnyOf) > 0 {
		var alts []zukowski.Expr[T]
		for _, g := range req.AnyOf {
			var and []zukowski.Expr[T]
			for _, p := range g.Preds {
				and = append(and, zukowski.Range(slices.Index(cols, p.Col), T(*p.Lo), T(*p.Hi)))
			}
			alts = append(alts, zukowski.And(and...))
		}
		q.Expr = zukowski.Or(alts...)
	}
	var out []parityRow
	err := tbl.Run(context.Background(), q, func(_ int, rows []int64, vals [][]T) bool {
		for j, r := range rows {
			pr := parityRow{Row: r, Vals: make([]int64, len(vals))}
			for i := range vals {
				pr.Vals[i] = int64(vals[i][j])
			}
			out = append(out, pr)
			if req.MaxRows > 0 && int64(len(out)) == req.MaxRows {
				return false
			}
		}
		return true
	})
	return out, q.Report, err
}

// scanBinary runs req through the client: the binary row stream.
func scanBinary(cl *client.Client, req zkserve.ScanRequest) ([]parityRow, client.ScanResult, error) {
	var rows []parityRow
	res, err := cl.ScanRows(context.Background(), req, func(row int64, vals []int64) bool {
		rows = append(rows, parityRow{Row: row, Vals: slices.Clone(vals)})
		return true
	})
	res.Bytes, res.ElapsedMS = 0, 0
	return rows, res, err
}

// scanNDJSON posts req with no Accept header and parses the NDJSON answer
// line by line with encoding/json. An error trailer comes back as err.
func scanNDJSON(t *testing.T, url string, req zkserve.ScanRequest) ([]parityRow, client.ScanResult, error) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NDJSON scan: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != zkserve.MIMERows {
		t.Fatalf("NDJSON scan: status %d, Content-Type %q", resp.StatusCode, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var hdr struct {
		Table string   `json:"table"`
		Cols  []string `json:"cols"`
	}
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &hdr) != nil || hdr.Table != req.Table || !slices.Equal(hdr.Cols, req.Cols) {
		t.Fatalf("NDJSON header %q for %+v", sc.Bytes(), req)
	}
	var rows []parityRow
	for sc.Scan() {
		line := sc.Bytes()
		if line[0] == '[' {
			var arr []int64
			if err := json.Unmarshal(line, &arr); err != nil || len(arr) != 1+len(req.Cols) {
				t.Fatalf("NDJSON row %q: %v", line, err)
			}
			rows = append(rows, parityRow{Row: arr[0], Vals: arr[1:]})
			continue
		}
		var tr struct {
			Done          bool   `json:"done"`
			Rows          int64  `json:"rows"`
			Truncated     bool   `json:"truncated"`
			Reason        string `json:"reason"`
			Error         string `json:"error"`
			Degraded      bool   `json:"degraded"`
			BlocksSkipped int64  `json:"blocks_skipped"`
			RowsLost      int64  `json:"rows_lost"`
		}
		if err := json.Unmarshal(line, &tr); err != nil {
			t.Fatalf("NDJSON trailer %q: %v", line, err)
		}
		if sc.Scan() {
			t.Fatalf("NDJSON line %q after the trailer", sc.Bytes())
		}
		res := client.ScanResult{Rows: tr.Rows, Truncated: tr.Truncated, Reason: tr.Reason,
			Degraded: tr.Degraded, BlocksSkipped: tr.BlocksSkipped, RowsLost: tr.RowsLost}
		if !tr.Done {
			err = errors.New(tr.Error)
		}
		return rows, res, err
	}
	t.Fatalf("NDJSON stream without a trailer: %v", sc.Err())
	return nil, client.ScanResult{}, nil
}

// checkParity runs req three ways and compares them; it returns the
// oracle's rows, report and error for checks of their own.
func checkParity(t *testing.T, url string, cl *client.Client, pt parityTable, req zkserve.ScanRequest) ([]parityRow, *zukowski.ScanReport, error) {
	t.Helper()
	want, rep, wantErr := pt.direct(req)
	bin, binRes, binErr := scanBinary(cl, req)
	nd, ndRes, ndErr := scanNDJSON(t, url, req)
	if (wantErr != nil) != (binErr != nil) || (wantErr != nil) != (ndErr != nil) {
		t.Fatalf("%+v: errors direct %v, binary %v, NDJSON %v", req, wantErr, binErr, ndErr)
	}
	if binErr != nil && !errors.Is(binErr, client.ErrScanFailed) {
		t.Fatalf("%+v: binary error %v, want ErrScanFailed", req, binErr)
	}
	eq := func(a, b parityRow) bool { return a.Row == b.Row && slices.Equal(a.Vals, b.Vals) }
	if !slices.EqualFunc(bin, want, eq) {
		t.Fatalf("%+v: binary stream delivered %d rows, direct run %d; first difference %s", req, len(bin), len(want), firstDiff(bin, want))
	}
	if !slices.EqualFunc(nd, want, eq) {
		t.Fatalf("%+v: NDJSON stream delivered %d rows, direct run %d; first difference %s", req, len(nd), len(want), firstDiff(nd, want))
	}
	if binRes != ndRes || binRes.Rows != int64(len(want)) {
		t.Fatalf("%+v: binary result %+v, NDJSON result %+v, direct rows %d", req, binRes, ndRes, len(want))
	}
	return want, rep, wantErr
}

func firstDiff(got, want []parityRow) string {
	for j := range min(len(got), len(want)) {
		if got[j].Row != want[j].Row || !slices.Equal(got[j].Vals, want[j].Vals) {
			return fmt.Sprintf("at %d: %+v vs %+v", j, got[j], want[j])
		}
	}
	return "in length"
}

// randomRequest draws a request over pt: a non-empty permutation of its
// columns, up to two conjuncts and up to two any_of groups, each bound
// drawn from the column's values, and 1 or 4 workers.
func randomRequest(rng *rand.Rand, pt parityTable) zkserve.ScanRequest {
	req := zkserve.ScanRequest{Table: pt.name, Workers: []int{1, 4}[rng.Intn(2)]}
	for _, c := range rng.Perm(len(pt.cols))[:1+rng.Intn(len(pt.cols))] {
		req.Cols = append(req.Cols, pt.cols[c])
	}
	window := func() zkserve.PredSpec {
		c := rng.Intn(len(pt.cols))
		a, b := pt.vals[c][rng.Intn(len(pt.vals[c]))], pt.vals[c][rng.Intn(len(pt.vals[c]))]
		return pred(pt.cols[c], min(a, b), max(a, b))
	}
	for range rng.Intn(3) {
		req.Preds = append(req.Preds, window())
	}
	for range rng.Intn(3) {
		var g []zkserve.PredSpec
		for range 1 + rng.Intn(2) {
			g = append(g, window())
		}
		req.AnyOf = append(req.AnyOf, zkserve.PredGroup{Preds: g})
	}
	return req
}

// parityTables writes the parity fixtures: int64 tables of one and three
// segments (a row number, a pseudo-random column and one of the whole
// int64 domain), and int8, int16 and int32 tables whose columns span
// their type's domain, minimum and maximum included.
func parityTables(t *testing.T, dir string) []parityTable {
	rng := rand.New(rand.NewSource(34))
	const n = 3000
	c0, c1 := make([]int64, n), make([]int64, n)
	for i := range c0 {
		c0[i], c1[i] = int64(i), c1Val(int64(i))
	}
	wide := fullDomain[int64](rng, n)
	cols := []string{"c0", "c1", "c2"}
	return []parityTable{
		writeParityTable(t, dir, "one", cols, [][]int64{c0, c1, wide}, []int{n}),
		writeParityTable(t, dir, "three", cols, [][]int64{c0, c1, wide}, []int{1000, 700, 1300}),
		writeParityTable(t, dir, "i8", []string{"a", "b"}, [][]int8{fullDomain[int8](rng, n), fullDomain[int8](rng, n)}, []int{n}),
		writeParityTable(t, dir, "i16", []string{"a", "b"}, [][]int16{fullDomain[int16](rng, n), fullDomain[int16](rng, n)}, []int{n}),
		writeParityTable(t, dir, "i32", []string{"a", "b"}, [][]int32{fullDomain[int32](rng, n), fullDomain[int32](rng, n)}, []int{n}),
	}
}

// fullDomain draws n values from T's whole (signed) domain and plants its
// minimum and maximum among them.
func fullDomain[T zukowski.Integer](rng *rand.Rand, n int) []T {
	v := make([]T, n)
	for i := range v {
		v[i] = T(rng.Uint64())
	}
	maxT := T(1) // T is signed: its largest power of two, then every bit below
	for maxT<<1 > 0 {
		maxT <<= 1
	}
	maxT |= maxT - 1
	v[rng.Intn(n)], v[rng.Intn(n)] = maxT, ^maxT
	return v
}

// TestFormatParity: seeded random requests over every fixture table,
// each delivered identically by both wire formats and the direct run.
func TestFormatParity(t *testing.T) {
	dir := t.TempDir()
	tables := parityTables(t, dir)
	_, ts, cl := newTestServer(t, zkserve.Config{Registry: openTestDir(t, dir)})
	rng := rand.New(rand.NewSource(1))
	for _, pt := range tables {
		// Every row, minimum and maximum included, once per worker count.
		for _, workers := range []int{1, 4} {
			if rows, _, _ := checkParity(t, ts.URL, cl, pt, zkserve.ScanRequest{Table: pt.name, Cols: pt.cols, Workers: workers}); len(rows) != len(pt.vals[0]) {
				t.Fatalf("%s: unfiltered scan delivered %d of %d rows", pt.name, len(rows), len(pt.vals[0]))
			}
		}
		for range 25 {
			checkParity(t, ts.URL, cl, pt, randomRequest(rng, pt))
		}
	}
}

// TestFormatParityBudgets: a row budget cuts both streams mid-block at
// the same row; a byte budget cuts each at a block boundary of its own,
// so each delivers a prefix of the direct run.
func TestFormatParityBudgets(t *testing.T) {
	dir := t.TempDir()
	pt := parityTables(t, dir)[1]
	_, ts, cl := newTestServer(t, zkserve.Config{Registry: openTestDir(t, dir)})
	for _, workers := range []int{1, 4} {
		req := zkserve.ScanRequest{Table: pt.name, Cols: pt.cols, Workers: workers, MaxRows: testBV/2 + 45}
		checkParity(t, ts.URL, cl, pt, req)
		_, res, err := scanBinary(cl, req)
		if err != nil || !res.Truncated || res.Reason != "rows" || res.Rows != req.MaxRows {
			t.Fatalf("row budget: %+v, %v", res, err)
		}

		req.MaxRows, req.MaxBytes = 0, 6000
		all, _, _ := pt.direct(zkserve.ScanRequest{Table: pt.name, Cols: pt.cols})
		bin, binRes, binErr := scanBinary(cl, req)
		nd, ndRes, ndErr := scanNDJSON(t, ts.URL, req)
		for _, f := range []struct {
			name string
			rows []parityRow
			res  client.ScanResult
			err  error
		}{{"binary", bin, binRes, binErr}, {"NDJSON", nd, ndRes, ndErr}} {
			if f.err != nil || !f.res.Truncated || f.res.Reason != "bytes" || f.res.Rows != int64(len(f.rows)) ||
				len(f.rows) == 0 || len(f.rows) >= len(all) {
				t.Fatalf("%s byte budget: %d rows, %+v, %v", f.name, len(f.rows), f.res, f.err)
			}
			if !slices.EqualFunc(f.rows, all[:len(f.rows)], func(a, b parityRow) bool {
				return a.Row == b.Row && slices.Equal(a.Vals, b.Vals)
			}) {
				t.Fatalf("%s byte budget: not a prefix of the direct run", f.name)
			}
		}
	}
}

// TestFormatParityDegraded: over a flipped frame, an exact scan fails
// mid-stream after the same rows in every source, and a skip_corrupt scan
// delivers the same survivors with the direct run's loss accounting.
func TestFormatParityDegraded(t *testing.T) {
	dir := t.TempDir()
	pt := parityTables(t, dir)[0]
	path := filepath.Join(dir, pt.name, "seg-00000001-c1.zkc")
	data, info := blockInfo(t, path, 3)
	data[int(info.Offset)+info.Length/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts, cl := newTestServer(t, zkserve.Config{Registry: openTestDir(t, dir)})

	exact := zkserve.ScanRequest{Table: pt.name, Cols: pt.cols}
	if rows, _, err := checkParity(t, ts.URL, cl, pt, exact); err == nil || len(rows) != 3*testBV/2 {
		t.Fatalf("exact scan over a flipped frame: %d rows, err %v", len(rows), err)
	}
	for _, workers := range []int{1, 4} {
		req := zkserve.ScanRequest{Table: pt.name, Cols: pt.cols, Workers: workers, SkipCorrupt: true,
			Preds: []zkserve.PredSpec{pred("c0", 100, 2500)}}
		_, rep, err := checkParity(t, ts.URL, cl, pt, req)
		if err != nil || rep.BlocksSkipped != 1 || rep.RowsLost != testBV/2 {
			t.Fatalf("direct degraded run: %+v, %v", rep, err)
		}
		_, res, _ := scanBinary(cl, req)
		if !res.Degraded || res.BlocksSkipped != int64(rep.BlocksSkipped) || res.RowsLost != rep.RowsLost {
			t.Fatalf("degraded result %+v, direct report %+v", res, rep)
		}
	}
}
