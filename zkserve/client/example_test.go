package client_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/zkserve"
	"repro/zkserve/client"
	"repro/zktable"
)

// Example walks the whole client surface against an in-process server:
// list tables, stream a filtered row scan, and push an aggregate down
// into the compressed domain.
func Example() {
	// Write a one-table data directory, then serve it. Real deployments
	// point zkserve.OpenDir at a directory of tables written by ingest.
	dir, err := os.MkdirTemp("", "zkserve-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ids := make([]int64, 256)
	scores := make([]int64, 256)
	for i := range ids {
		ids[i] = int64(i)
		scores[i] = int64(i) % 10
	}
	events, err := zktable.Create[int64](filepath.Join(dir, "events"), []string{"id", "score"}, 64, zktable.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := events.Append([][]int64{ids, scores}); err != nil {
		log.Fatal(err)
	}
	events.Close()
	reg, err := zkserve.OpenDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()

	ts := httptest.NewServer(zkserve.NewServer(zkserve.Config{Registry: reg}))
	defer ts.Close()
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// Discover what the server offers.
	tables, err := cl.Tables(ctx)
	if err != nil {
		log.Fatal(err)
	}
	t := tables.Tables[0]
	fmt.Printf("table %q: %d rows, %d columns\n", t.Name, t.Rows, len(t.Columns))

	// Stream rows where id in [10, 14] — the predicate is pushed into
	// the server's compressed-domain scan, so rows outside the range are
	// never decoded, let alone shipped.
	lo, hi := int64(10), int64(14)
	res, err := cl.ScanRows(ctx, zkserve.ScanRequest{
		Table: "events",
		Cols:  []string{"id", "score"},
		Preds: []zkserve.PredSpec{{Col: "id", Lo: &lo, Hi: &hi}},
	}, func(row int64, vals []int64) bool {
		fmt.Printf("row %d: id=%d score=%d\n", row, vals[0], vals[1])
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d rows\n", res.Rows)

	// Aggregate without streaming anything: one JSON object comes back.
	agg, err := cl.Aggregate(ctx, zkserve.ScanRequest{
		Table: "events",
		Cols:  []string{"score"},
		Agg:   "all",
		Preds: []zkserve.PredSpec{{Col: "id", Lo: &lo, Hi: &hi}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("count=%d sum=%d min=%d max=%d\n",
		agg.Result.Count, agg.Result.Sum, agg.Result.Min, agg.Result.Max)
	// Output:
	// table "events": 256 rows, 2 columns
	// row 10: id=10 score=0
	// row 11: id=11 score=1
	// row 12: id=12 score=2
	// row 13: id=13 score=3
	// row 14: id=14 score=4
	// streamed 5 rows
	// count=5 sum=10 min=0 max=4
}
