package zkserve_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/zkserve"
	"repro/zktable"
	"repro/zukowski"
)

// TestFlatShardedParity registers the same data twice — as flat column
// files and as a three-segment zktable cut on block boundaries, so both
// have the same block geometry — and requires byte-identical responses
// (elapsed time aside) in all three modes. Flat tables run on a
// per-request ColumnSet and sharded ones on the zktable handle; with one
// planner, one pruning verdict and one segment-composition loop behind
// both, nothing about a response may depend on which it was.
func TestFlatShardedParity(t *testing.T) {
	segBlocks := []int{4, 2, 3}
	const names = "c0 c1 c2"
	cols := make([][]int64, 3)
	root := t.TempDir()
	zt, err := zktable.Create[int64](filepath.Join(root, "sharded", "t"), strings.Fields(names), testBV, zktable.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, nb := range segBlocks {
		base := int64(len(cols[0]))
		seg := make([][]int64, 3)
		for i := int64(0); i < int64(nb*testBV); i++ {
			row := base + i
			seg[0] = append(seg[0], row)
			seg[1] = append(seg[1], c1Val(row))
			seg[2] = append(seg[2], row%97-40)
		}
		if _, err := zt.Append(seg); err != nil {
			t.Fatalf("Append: %v", err)
		}
		for c := range cols {
			cols[c] = append(cols[c], seg[c]...)
		}
	}
	zt.Close()
	if err := os.MkdirAll(filepath.Join(root, "flat", "t"), 0o755); err != nil {
		t.Fatal(err)
	}
	for c, name := range strings.Fields(names) {
		if err := os.WriteFile(filepath.Join(root, "flat", "t", name+".zkc"), encodeCol(t, cols[c], testBV), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	elapsed := regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)
	serve := func(layout string) func(body, accept string) []byte {
		reg, err := zkserve.OpenDir(filepath.Join(root, layout))
		if err != nil {
			t.Fatalf("OpenDir(%s): %v", layout, err)
		}
		t.Cleanup(func() { reg.Close() })
		_, ts, _ := newTestServer(t, zkserve.Config{Registry: reg, MaxWorkers: 4})
		return func(body, accept string) []byte { return post(t, ts, body, accept, elapsed) }
	}
	compare := func(cases []struct{ name, body, want string }) {
		flat, sharded := serve("flat"), serve("sharded")
		for _, tc := range cases {
			for _, mode := range []struct{ name, accept, extra, mark string }{
				{"rows", "", "", `"done":true`},
				{"frames", zkserve.MIMEFrames, "", "ZKS1"},
				{"aggregate", "", `,"agg":"all","agg_col":"c1"`, `"count":`},
			} {
				body := `{"table":"t",` + tc.body + mode.extra + `}`
				f, s := flat(body, mode.accept), sharded(body, mode.accept)
				if !bytes.Equal(f, s) {
					t.Errorf("%s/%s: flat and sharded responses differ (%d vs %d bytes)\nflat:    %.300q\nsharded: %.300q",
						tc.name, mode.name, len(f), len(s), f, s)
				}
				if !bytes.Contains(f, []byte(mode.mark)) || (mode.accept == "" && !bytes.Contains(f, []byte(tc.want))) {
					t.Errorf("%s/%s: response lacks %s or %s: %.300q", tc.name, mode.name, mode.mark, tc.want, f)
				}
			}
		}
	}

	compare([]struct{ name, body, want string }{
		{"conjunction", `"cols":["c0","c1"],"preds":[{"col":"c0","lo":700,"hi":3300},{"col":"c1","lo":100,"hi":800}]`, ""},
		{"any_of", `"cols":["c0","c1"],"preds":[{"col":"c0","hi":4000}],"any_of":[{"preds":[{"col":"c1","hi":50}]},{"preds":[{"col":"c0","lo":2000,"hi":2100},{"col":"c2","lo":0}]}]`, ""},
		{"projection", `"cols":["c2","c1"],"preds":[{"col":"c0","lo":1500,"hi":2600}]`, ""},
		{"workers", `"cols":["c1","c0"],"workers":4,"preds":[{"col":"c1","lo":0,"hi":300}]`, ""},
		{"unrepresentable", `"cols":["c0"],"preds":[{"col":"c0","lo":9,"hi":3}]`, `":0,`},
	})

	// Flip one payload byte of c1's global block 5 — local block 1 of the
	// second segment — in both layouts. Exact scans would now fail; degraded
	// ones must skip the same block with the same accounting.
	corrupt := func(path string, block int) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := zukowski.OpenColumn[int64](data)
		if err != nil {
			t.Fatal(err)
		}
		info, err := cr.BlockInfo(block)
		if err != nil {
			t.Fatal(err)
		}
		data[info.Offset+int64(info.Length)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(filepath.Join(root, "flat", "t", "c1.zkc"), 5)
	corrupt(filepath.Join(root, "sharded", "t", "seg-00000002-c1.zkc"), 1)
	lost := `"rows_lost":512`
	compare([]struct{ name, body, want string }{
		{"skip_corrupt", `"cols":["c0","c1"],"skip_corrupt":true,"preds":[{"col":"c0","lo":700,"hi":3300}]`, lost},
		{"skip_corrupt any_of", `"cols":["c1"],"skip_corrupt":true,"workers":2,"any_of":[{"preds":[{"col":"c1","hi":50}]},{"preds":[{"col":"c0","lo":2000,"hi":3000}]}]`, lost},
	})
}

// post sends one scan request and returns the 200 response body with
// every match of volatile blanked.
func post(t *testing.T, ts *httptest.Server, body, accept string, volatile *regexp.Regexp) []byte {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/scan", strings.NewReader(body))
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", body, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d, read error %v, body %.200q", body, resp.StatusCode, err, out)
	}
	return volatile.ReplaceAll(out, nil)
}
