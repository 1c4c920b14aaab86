package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/report"
	"repro/internal/tpch"
)

// CompressedCheck cross-checks the compressed-domain query path (ZKC2
// columns queried through Expr trees and code-space GroupAggregate)
// against the decode-then-process queries over the same generated
// dataset, and prints a timing table. The oracle runs the engine over the
// generated arrays — no container and no codec, so it shares nothing with
// the storage it checks — and a zero return means every ZQuery produced a
// byte-identical result. The return value is the number of diverging
// queries.
func CompressedCheck(w io.Writer, sf float64, bufBytes int64) int {
	ds := tpch.Generate(sf, 42)
	oracle := tpch.Oracle(ds)
	db := tpch.Store(ds, true).Open(tpch.DSM, tpch.VectorWise, bufBytes)

	tbl := report.NewTable(
		fmt.Sprintf("Compressed-domain cross-check: ZKC2 Expr/GroupAggregate vs engine oracle, SF-%g (times in ms)", sf),
		"query", "oracle ms", "zkc2 ms", "rows", "match")

	diverged := 0
	for _, q := range tpch.ZQueryOrder {
		start := time.Now()
		want := tpch.Queries[q](oracle)
		ot := time.Since(start)
		start = time.Now()
		got := tpch.ZQueries[q](db)
		zt := time.Since(start)

		rows := 0
		if len(want) > 0 {
			rows = len(want[0])
		}
		ok := tpch.ResultsEqual(got, want)
		if !ok {
			diverged++
		}
		tbl.Row(q, ms(ot), ms(zt), rows, ok)
	}
	tbl.Print(w)
	if diverged > 0 {
		fmt.Fprintf(w, "COMPRESSED-DOMAIN DIVERGENCE: %d of %d queries disagree with the oracle\n",
			diverged, len(tpch.ZQueryOrder))
	}
	return diverged
}
