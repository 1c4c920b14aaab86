package zkserve_test

import (
	"context"
	"testing"

	"repro/zkserve"
	"repro/zkserve/client"
)

// TestServedCountersAreThePlan: the zone-map counters a completed scan
// adds are the engine's block plans — blocks planned and pruned, and the
// raw bytes of the column values planned — on the one-segment table t and
// on st, the same rows in three segments. c0 is the row number in
// 512-row blocks, so c0 in [700, 3000] plans blocks 1..5 of 16 and reads
// c0 only in 1 and 5, which the window cuts. An aggregate is charged for
// the column it folds and the predicate's, not for other columns the
// request lists, and a row scan naming a column twice reads it once.
func TestServedCountersAreThePlan(t *testing.T) {
	oneSrv, _, oneClient := newTestServer(t, zkserve.Config{})
	dir := t.TempDir()
	buildShardedTable(t, dir, []int{2048, 2048, 4096})
	shardedSrv, _, shardedClient := newTestServer(t, zkserve.Config{Registry: openTestDir(t, dir)})

	const block = testBV * 8 // raw bytes of one int64 column block
	window := pred("c0", 700, 3000)
	ctx := context.Background()
	cases := []struct {
		name string
		scan func(cl *client.Client, table string) error
		raw  int64
	}{
		{
			name: "aggregate of c1 listing c0: c1 in 5 candidates, c0 in the 2 the window cuts",
			scan: func(cl *client.Client, table string) error {
				_, err := cl.Aggregate(ctx, zkserve.ScanRequest{Table: table, Agg: "sum", AggCol: "c1",
					Cols: []string{"c0"}, Preds: []zkserve.PredSpec{window}})
				return err
			},
			raw: 5*block + 2*block,
		},
		{
			name: "rows of c1 twice: c1 in 5 candidates, c0 in 2",
			scan: func(cl *client.Client, table string) error {
				_, err := cl.ScanRows(ctx, zkserve.ScanRequest{Table: table, Cols: []string{"c1", "c1"},
					Preds: []zkserve.PredSpec{window}}, func(int64, []int64) bool { return true })
				return err
			},
			raw: 5*block + 2*block,
		},
	}
	for _, tc := range cases {
		for _, eng := range []struct {
			table string
			srv   *zkserve.Server
			cl    *client.Client
		}{{"t", oneSrv, oneClient}, {"st", shardedSrv, shardedClient}} {
			m := eng.srv.Metrics()
			scanned, pruned, raw := m.BlocksScanned.Load(), m.BlocksPruned.Load(), m.RawBytesScanned.Load()
			if err := tc.scan(eng.cl, eng.table); err != nil {
				t.Fatalf("%s, table %s: %v", tc.name, eng.table, err)
			}
			if got := m.BlocksScanned.Load() - scanned; got != 5 {
				t.Errorf("%s, table %s: %d blocks scanned, want 5", tc.name, eng.table, got)
			}
			if got := m.BlocksPruned.Load() - pruned; got != 11 {
				t.Errorf("%s, table %s: %d blocks pruned, want 11", tc.name, eng.table, got)
			}
			if got := m.RawBytesScanned.Load() - raw; got != tc.raw {
				t.Errorf("%s, table %s: charged %.1f column blocks, want %.1f", tc.name, eng.table, float64(got)/block, float64(tc.raw)/block)
			}
		}
	}
}
