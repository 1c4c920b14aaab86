package tpch

import (
	"testing"

	"repro/zukowski"
)

// TestZQueriesMatchOracle is the compressed-domain cross-check: every
// ZQuery over ZKC2 columns must produce exactly the result of the
// corresponding decode-then-process query over the generated arrays.
func TestZQueriesMatchOracle(t *testing.T) {
	ds, db := buildDB(t, DSM, true, VectorWise)
	for _, q := range ZQueryOrder {
		zq, ok := ZQueries[q]
		if !ok {
			t.Fatalf("ZQueryOrder names %s but ZQueries lacks it", q)
		}
		want := Queries[q](Oracle(ds))
		got := zq(db)
		if !ResultsEqual(got, want) {
			t.Errorf("ZQ%s diverges from oracle:\n got %v\nwant %v", q, got, want)
		}
	}
}

// TestZDBScanRoundTrip checks that an unfiltered scan returns the
// generated data verbatim, block and batch edges included, under every
// layout, compression and decompression mode.
func TestZDBScanRoundTrip(t *testing.T) {
	ds := Generate(testSF, 42)
	rel := ds.Rel(Orders)
	keys, dates := rel.Column("o_orderkey"), rel.Column("o_orderdate")
	for _, compress := range []bool{true, false} {
		stored := Store(ds, compress)
		for _, layout := range []Layout{DSM, PAX} {
			for _, mode := range []Mode{VectorWise, PageWise} {
				scan := stored.Open(layout, mode, 1<<20).Scan(Orders, "o_orderkey", "o_orderdate")
				row := 0
				for b := scan.Next(); b != nil; b = scan.Next() {
					for i := 0; i < b.N; i++ {
						if b.Cols[0][i] != keys[row] || b.Cols[1][i] != dates[row] {
							t.Fatalf("%v/%v/compress=%v row %d: got (%d,%d), want (%d,%d)", layout, mode, compress,
								row, b.Cols[0][i], b.Cols[1][i], keys[row], dates[row])
						}
						row++
					}
				}
				if row != rel.Rows() {
					t.Fatalf("%v/%v/compress=%v: scanned %d rows, want %d", layout, mode, compress, row, rel.Rows())
				}
			}
		}
	}
	empty := Store(&Dataset{Rels: map[string]*Rel{"e": newRel("e", "a", "b")}}, true)
	for _, mode := range []Mode{VectorWise, PageWise} {
		if b := empty.Open(PAX, mode, 1<<20).Scan("e", "b").Next(); b != nil {
			t.Fatalf("%v: empty relation yielded %d rows", mode, b.N)
		}
	}
}

// TestScanFetchAccounting pins what a relation scan is charged for: the
// scanned columns' frames under DSM, every column's under PAX, nothing
// once the buffer pool holds them, and everything again without a pool.
func TestScanFetchAccounting(t *testing.T) {
	stored := Store(Generate(testSF, 42), true)
	drain := func(db *DB) int64 {
		before := db.BytesFetched()
		scan := db.Scan(Lineitem, "l_shipdate", "l_quantity")
		for scan.Next() != nil {
		}
		return db.BytesFetched() - before
	}
	for _, mode := range []Mode{VectorWise, PageWise} {
		dsm, pax := stored.Open(DSM, mode, 1<<30), stored.Open(PAX, mode, 1<<30)
		dsmCold, paxCold := drain(dsm), drain(pax)
		// The catalog is not charged, so a scan fetches a little less
		// than the containers hold.
		_, dsmStored := dsm.ScanBytes(Lineitem, "l_shipdate", "l_quantity")
		_, paxStored := pax.ScanBytes(Lineitem, "l_shipdate", "l_quantity")
		if dsmCold <= 0 || dsmCold > dsmStored || dsmCold < dsmStored*8/10 {
			t.Fatalf("%v DSM: fetched %d of %d stored bytes", mode, dsmCold, dsmStored)
		}
		if paxCold <= dsmCold || paxCold > paxStored || paxCold < paxStored*8/10 {
			t.Fatalf("%v PAX: fetched %d of %d stored bytes (DSM %d)", mode, paxCold, paxStored, dsmCold)
		}
		if warm := drain(pax); warm != 0 {
			t.Fatalf("%v: scan over a warm pool fetched %d bytes", mode, warm)
		}
		noPool := stored.Open(DSM, mode, 0)
		if first, again := drain(noPool), drain(noPool); first != dsmCold || again != dsmCold {
			t.Fatalf("%v: without a pool two scans fetched %d and %d bytes, want %d each", mode, first, again, dsmCold)
		}
	}
}

// TestZDBScanWherePushdown checks predicate pushdown row selection
// against a scalar filter.
func TestZDBScanWherePushdown(t *testing.T) {
	ds, db := buildDB(t, DSM, true, VectorWise)
	rel := ds.Rel(Lineitem)
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)-1
	expr := zukowski.Or(
		zukowski.Range[int64](rel.Col("l_shipdate"), lo, hi),
		zukowski.In[int64](rel.Col("l_discount"), 0, 10),
	)
	scan := db.scanExpr(Lineitem, expr, "l_shipdate", "l_discount")
	ship, disc := rel.Column("l_shipdate"), rel.Column("l_discount")
	var want int
	for i := range ship {
		if (ship[i] >= lo && ship[i] <= hi) || disc[i] == 0 || disc[i] == 10 {
			want++
		}
	}
	var got int
	for {
		b := scan.Next()
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			d, s := b.Cols[1][i], b.Cols[0][i]
			if !((s >= lo && s <= hi) || d == 0 || d == 10) {
				t.Fatalf("row (%d,%d) fails the predicate", s, d)
			}
		}
		got += b.N
	}
	if got != want {
		t.Fatalf("pushdown kept %d rows, scalar filter keeps %d", got, want)
	}
}

// TestResultsEqual pins the nil-versus-empty and shape semantics.
func TestResultsEqual(t *testing.T) {
	if !ResultsEqual([][]int64{nil}, [][]int64{{}}) {
		t.Fatal("nil column should equal empty column")
	}
	if ResultsEqual([][]int64{{1}}, [][]int64{{2}}) {
		t.Fatal("value mismatch not detected")
	}
	if ResultsEqual([][]int64{{1}}, [][]int64{{1}, {1}}) {
		t.Fatal("arity mismatch not detected")
	}
	if ResultsEqual([][]int64{{1}}, [][]int64{{1, 2}}) {
		t.Fatal("length mismatch not detected")
	}
}
