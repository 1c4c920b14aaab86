package zkserve_test

import (
	"context"
	"testing"

	"repro/zkserve"
	"repro/zkserve/client"
)

// TestRawBytesScannedFollowsTheVerdict pins what
// zkserve_raw_bytes_scanned_total charges: per candidate block, every
// output (or aggregate) column, and a predicate-only column only where the
// engine left a conjunct on it to evaluate. c0 is the row number in
// 512-row blocks, so c0 in [700, 3000] has five candidate blocks: 1 and 5
// are cut by the window, 2..4 are covered whole — there the engine drops
// the conjunct and never reads c0. Every case runs on the one-segment
// table t and on st, the same rows cut into three segments.
func TestRawBytesScannedFollowsTheVerdict(t *testing.T) {
	oneSrv, _, oneClient := newTestServer(t, zkserve.Config{})

	dir := t.TempDir()
	buildShardedTable(t, dir, []int{2048, 2048, 4096})
	shardedSrv, _, shardedClient := newTestServer(t, zkserve.Config{Registry: openTestDir(t, dir)})

	const block = testBV * 8 // raw bytes of one int64 column block
	window := pred("c0", 700, 3000)
	ctx := context.Background()
	noRow := func(int64, []int64) bool { return true }
	noFrame := func([]zkserve.FrameStreamCol, *zkserve.FrameBlock) bool { return true }
	cases := []struct {
		name string
		scan func(cl *client.Client, table string) error
		want int64
		only string // runs on this table of the one-segment registry alone
	}{
		{
			name: "aggregate of c1: c1 in 5 candidates, c0 in the 2 the window cuts",
			scan: func(cl *client.Client, table string) error {
				_, err := cl.Aggregate(ctx, zkserve.ScanRequest{Table: table, Agg: "all", AggCol: "c1",
					Preds: []zkserve.PredSpec{window, pred("c1", 0, 500)}})
				return err
			},
			want: 5*block + 2*block,
		},
		{
			name: "rows of c1 under any_of: the window decides blocks 2..4, the other alternative nothing",
			scan: func(cl *client.Client, table string) error {
				_, err := cl.ScanRows(ctx, zkserve.ScanRequest{Table: table, Cols: []string{"c1"},
					AnyOf: client.AnyOf([]zkserve.PredSpec{window}, []zkserve.PredSpec{pred("c0", 8000, 8100)})}, noRow)
				return err
			},
			// Candidates 1..5 and 15; c0 is read where a window cuts: 1, 5, 15.
			want: 6*block + 3*block,
		},
		{
			name: "rows of c0: an output column is read in every candidate",
			scan: func(cl *client.Client, table string) error {
				_, err := cl.ScanRows(ctx, zkserve.ScanRequest{Table: table, Cols: []string{"c0"},
					Preds: []zkserve.PredSpec{window}}, noRow)
				return err
			},
			want: 5 * block,
		},
		{
			name: "frames of c1: frame mode evaluates nothing, so only what it ships",
			scan: func(cl *client.Client, table string) error {
				_, err := cl.ScanFrames(ctx, zkserve.ScanRequest{Table: table, Cols: []string{"c1"},
					Preds: []zkserve.PredSpec{window}}, noFrame)
				return err
			},
			want: 5 * block,
		},
		{
			name: "rows of the int32 w32 under its own predicate: charged at 4 bytes a value",
			scan: func(cl *client.Client, table string) error {
				_, err := cl.ScanRows(ctx, zkserve.ScanRequest{Table: table, Cols: []string{"w32"},
					Preds: []zkserve.PredSpec{pred("w32", 10, 20)}}, noRow)
				return err
			},
			// w32 is the row number mod 100: no block is pruned.
			want: testRows / testBV * block / 2,
			only: "w32",
		},
	}
	for _, tc := range cases {
		engines := []struct {
			table string
			srv   *zkserve.Server
			cl    *client.Client
		}{{"t", oneSrv, oneClient}, {"st", shardedSrv, shardedClient}}
		if tc.only != "" {
			engines = engines[:1]
			engines[0].table = tc.only
		}
		for _, eng := range engines {
			before := eng.srv.Metrics().RawBytesScanned.Load()
			if err := tc.scan(eng.cl, eng.table); err != nil {
				t.Fatalf("%s, table %s: %v", tc.name, eng.table, err)
			}
			if got := eng.srv.Metrics().RawBytesScanned.Load() - before; got != tc.want {
				t.Errorf("%s, table %s: charged %d raw bytes (%.1f column blocks), want %d (%.1f)",
					tc.name, eng.table, got, float64(got)/block, tc.want, float64(tc.want)/block)
			}
		}
	}
}
