package zkserve_test

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"repro/zkserve"
	"repro/zkserve/client"
)

// anyOfMatch is the reference semantics of the test disjunction used
// below: c1 in [100, 300] AND (c0 in [500, 999] OR c1 in [0, 150]).
// The second branch overlaps the conjunct so only [100, 150] of it can
// actually match — a deliberate partial overlap.
func anyOfMatch(i int64) bool {
	v := c1Val(i)
	if v < 100 || v > 300 {
		return false
	}
	return (i >= 500 && i <= 999) || v <= 150
}

func anyOfReq(workers int) zkserve.ScanRequest {
	return zkserve.ScanRequest{
		Table:   "t",
		Cols:    []string{"c0", "c1"},
		Preds:   []zkserve.PredSpec{pred("c1", 100, 300)},
		AnyOf:   client.AnyOf([]zkserve.PredSpec{pred("c0", 500, 999)}, []zkserve.PredSpec{pred("c1", 0, 150)}),
		Workers: workers,
	}
}

// TestAnyOfRowsMatchesLocal checks the disjunctive scan, sequential and
// parallel, against a scalar evaluation of the same predicate.
func TestAnyOfRowsMatchesLocal(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	want := int64(0)
	for i := int64(0); i < testRows; i++ {
		if anyOfMatch(i) {
			want++
		}
	}
	if want == 0 {
		t.Fatal("test predicate selects nothing; fixture changed?")
	}
	for _, workers := range []int{0, 4} {
		res, err := cl.ScanRows(context.Background(), anyOfReq(workers), func(row int64, vals []int64) bool {
			if vals[0] != row || vals[1] != c1Val(row) {
				t.Fatalf("row %d: got %v, want [%d %d]", row, vals, row, c1Val(row))
			}
			if !anyOfMatch(row) {
				t.Fatalf("row %d escapes the disjunction (c1 = %d)", row, c1Val(row))
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

// TestAnyOfAggregate checks aggregate pushdown over the disjunction.
func TestAnyOfAggregate(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	want := zkserve.AggResult{Min: 1<<63 - 1, Max: -1 << 63}
	for i := int64(0); i < testRows; i++ {
		if !anyOfMatch(i) {
			continue
		}
		v := c1Val(i)
		want.Count++
		want.Sum += v
		want.Min = min(want.Min, v)
		want.Max = max(want.Max, v)
	}
	req := anyOfReq(0)
	req.Agg = "all"
	req.AggCol = "c1"
	resp, err := cl.Aggregate(context.Background(), req)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if resp.Result != want {
		t.Fatalf("aggregate = %+v, want %+v", resp.Result, want)
	}
}

// TestAnyOfFrameMode checks that frame mode uses the disjunction for
// block pruning: every block whose zone maps some alternative cannot
// exclude still ships, and blocks excluded by all alternatives don't.
func TestAnyOfFrameMode(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	// c0 is sorted 0..testRows-1 in blocks of testBV rows, so the single
	// alternative c0 in [1000, 1999] survives in exactly ceil(1000/512)+1
	// candidate blocks: rows 512..2047 → blocks 1, 2 and 3.
	req := zkserve.ScanRequest{
		Table: "t",
		Cols:  []string{"c0"},
		AnyOf: client.AnyOf([]zkserve.PredSpec{pred("c0", 1000, 1999)}),
	}
	var blocks int
	res, err := cl.ScanFrames(context.Background(), req, func(cols []zkserve.FrameStreamCol, blk *zkserve.FrameBlock) bool {
		blocks++
		return true
	})
	if err != nil {
		t.Fatalf("ScanFrames: %v", err)
	}
	if blocks != 3 {
		t.Fatalf("shipped %d blocks, want 3 (zone pruning by any_of)", blocks)
	}
	if res.Rows != 3*testBV {
		t.Fatalf("represented rows = %d, want %d", res.Rows, 3*testBV)
	}
}

// TestAnyOfZonePruning checks the metrics see disjunctive pruning: a
// narrow any_of over the sorted column must prune most blocks.
func TestAnyOfZonePruning(t *testing.T) {
	srv, _, cl := newTestServer(t, zkserve.Config{})
	req := zkserve.ScanRequest{
		Table: "t",
		Cols:  []string{"c0"},
		AnyOf: client.AnyOf([]zkserve.PredSpec{pred("c0", 0, 10)}, []zkserve.PredSpec{pred("c0", 7000, 7010)}),
	}
	if _, err := cl.ScanRows(context.Background(), req, nil); err != nil {
		t.Fatalf("ScanRows: %v", err)
	}
	m := srv.Metrics()
	if pruned := m.BlocksPruned.Load(); pruned == 0 {
		t.Fatal("narrow any_of pruned no blocks")
	}
	if scanned := m.BlocksScanned.Load(); scanned == 0 || scanned > 4 {
		t.Fatalf("scanned %d blocks, want 1-4 (two narrow windows)", m.BlocksScanned.Load())
	}
}

// TestAnyOfImpossibleBranch checks that an alternative that can never
// hold (lo > hi) is dropped while the others still apply, and that a
// disjunction with no possible alternative yields zero rows cleanly.
func TestAnyOfImpossibleBranch(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	res, err := cl.ScanRows(context.Background(), zkserve.ScanRequest{
		Table: "t",
		Cols:  []string{"c0"},
		AnyOf: client.AnyOf([]zkserve.PredSpec{pred("c0", 100, 10)}, []zkserve.PredSpec{pred("c0", 0, 9)}),
	}, nil)
	if err != nil {
		t.Fatalf("ScanRows: %v", err)
	}
	if res.Rows != 10 {
		t.Fatalf("rows = %d, want 10 (live branch only)", res.Rows)
	}
	res, err = cl.ScanRows(context.Background(), zkserve.ScanRequest{
		Table: "t",
		Cols:  []string{"c0"},
		AnyOf: client.AnyOf([]zkserve.PredSpec{pred("c0", 100, 10)}),
	}, nil)
	if err != nil {
		t.Fatalf("ScanRows (all-impossible): %v", err)
	}
	if res.Rows != 0 {
		t.Fatalf("rows = %d, want 0 (no alternative can hold)", res.Rows)
	}
}

// TestAnyOfRejections pins the error contract: nested any_of is 422
// (understood but unsupported), an empty group and an unknown column
// are client errors.
func TestAnyOfRejections(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	cases := []struct {
		name  string
		anyOf []zkserve.PredGroup
		code  int
	}{
		{"nested", []zkserve.PredGroup{{
			Preds: []zkserve.PredSpec{pred("c0", 0, 1)},
			AnyOf: []zkserve.PredGroup{{Preds: []zkserve.PredSpec{pred("c1", 0, 1)}}},
		}}, http.StatusUnprocessableEntity},
		{"empty group", []zkserve.PredGroup{{}}, http.StatusBadRequest},
		{"unknown column", client.AnyOf([]zkserve.PredSpec{pred("nope", 0, 1)}), http.StatusNotFound},
	}
	for _, tc := range cases {
		_, err := cl.ScanRows(context.Background(), zkserve.ScanRequest{
			Table: "t",
			Cols:  []string{"c0"},
			AnyOf: tc.anyOf,
		}, nil)
		var se *client.StatusError
		if !errors.As(err, &se) || se.Code != tc.code {
			t.Errorf("%s: err = %v, want status %d", tc.name, err, tc.code)
		}
	}
}

// TestAnyOfFeatureAdvertised checks /tables announces the capability.
func TestAnyOfFeatureAdvertised(t *testing.T) {
	_, _, cl := newTestServer(t, zkserve.Config{})
	tables, err := cl.Tables(context.Background())
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	found := false
	for _, f := range tables.Features {
		if f == "any_of" {
			found = true
		}
	}
	if !found {
		t.Fatalf("features = %v, want to include any_of", tables.Features)
	}
}
