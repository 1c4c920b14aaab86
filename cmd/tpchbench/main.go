// Command tpchbench regenerates the paper's TPC-H evaluation:
//
//	Table 1  — published hardware-cost table (context)
//	Table 2  — per-query ratios, decompression speed, runtimes on two
//	           simulated RAIDs, DSM and PAX, compressed and uncompressed
//	Table 3  — page-wise vs vector-wise decompression (time + L2 misses)
//	Figure 8 — per-query time split: decompression / other CPU / I/O stalls
//	-check   — compressed-domain cross-check: the ZKC2 Expr/GroupAggregate
//	           query path against the same queries over the generated arrays
//
// Every table is measured on one storage stack: ZKC2 containers of
// 4,096-value blocks behind a zukowski.BlockLRU of -buf bytes, read
// through a byte-counting io.ReaderAt that stands in for the RAID.
//
// Every run that compares configurations also compares their results;
// the process exits non-zero if any query's compressed and uncompressed
// results diverge, so CI can gate on exact equality.
//
// The scale factor defaults to 0.05 (75k orders, ~300k lineitems) so a full
// run completes in minutes on a laptop; raise -sf for steadier numbers.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/experiments"
	"repro/internal/tpch"
)

func main() {
	table1 := flag.Bool("table1", false, "print Table 1 only")
	table2 := flag.Bool("table2", false, "run Table 2 only")
	table3 := flag.Bool("table3", false, "run Table 3 only")
	fig8 := flag.Bool("fig8", false, "run Figure 8 only")
	check := flag.Bool("check", false, "run the compressed-domain cross-check only")
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	buf := flag.Int64("buf", 256<<20, "buffer pool bytes")
	flag.Parse()

	all := !(*table1 || *table2 || *table3 || *fig8 || *check)
	w := os.Stdout

	diverged := 0
	if all || *table1 {
		experiments.Table1(w)
	}
	if all || *table2 {
		diverged += experiments.Table2(w, *sf, experiments.LowEndRAID, *buf)
		diverged += experiments.Table2(w, *sf, experiments.MidEndRAID, *buf)
	}
	if all || *table3 {
		experiments.Table3(w, *sf, experiments.MidEndRAID, *buf)
	}
	if all || *fig8 {
		experiments.Fig8(w, *sf, experiments.LowEndRAID, tpch.DSM, *buf)
		experiments.Fig8(w, *sf, experiments.MidEndRAID, tpch.DSM, *buf)
		experiments.Fig8(w, *sf, experiments.MidEndRAID, tpch.PAX, *buf)
	}
	if all || *check {
		diverged += experiments.CompressedCheck(w, *sf, *buf)
	}
	if diverged > 0 {
		fmt.Fprintf(os.Stderr, "tpchbench: %d result divergence(s) between query paths\n", diverged)
		os.Exit(1)
	}
}
