package tpch

import (
	"slices"
	"testing"

	"repro/internal/core"
)

const testSF = 0.002 // ~3000 orders, ~12k lineitems: fast but multi-block

func buildDB(t *testing.T, layout Layout, compress bool, mode Mode) (*Dataset, *DB) {
	t.Helper()
	ds := Generate(testSF, 42)
	return ds, Store(ds, compress).Open(layout, mode, 1<<30)
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(testSF, 42)
	b := Generate(testSF, 42)
	for name := range a.Rels {
		ra, rb := a.Rel(name), b.Rel(name)
		if ra.Rows() != rb.Rows() {
			t.Fatalf("%s: %d vs %d rows", name, ra.Rows(), rb.Rows())
		}
		for c := range ra.Data {
			if !slices.Equal(ra.Data[c], rb.Data[c]) {
				t.Fatalf("%s col %d differs between runs", name, c)
			}
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	ds := Generate(testSF, 1)
	li := ds.Rel(Lineitem)
	orders := ds.Rel(Orders)
	// 1..7 lineitems per order, average 4.
	ratio := float64(li.Rows()) / float64(orders.Rows())
	if ratio < 3 || ratio > 5 {
		t.Fatalf("lineitems per order %.2f, want ~4", ratio)
	}
	// Orderkeys ascending with gaps.
	ok := orders.Column("o_orderkey")
	for i := 1; i < len(ok); i++ {
		if ok[i] <= ok[i-1] {
			t.Fatal("orderkeys must ascend")
		}
	}
	// Dates within the TPC-H range.
	for _, d := range li.Column("l_shipdate") {
		if d < Date(1992, 1, 1) || d > Date(1998, 12, 31) {
			t.Fatalf("shipdate %d out of range", d)
		}
	}
	// Discounts 0..10.
	for _, d := range li.Column("l_discount") {
		if d < 0 || d > 10 {
			t.Fatalf("discount %d", d)
		}
	}
}

func TestCompressionChoicesMatchPaperIntuition(t *testing.T) {
	ds := Generate(testSF, 7)
	rel := ds.Rel(Lineitem)
	choice := func(col string) core.Choice[int64] {
		return core.Choose(core.Sample(rel.Column(col), core.DefaultSampleSize))
	}

	// l_orderkey is sorted and dense: PFOR-DELTA.
	if c := choice("l_orderkey"); c.Scheme != core.SchemePFORDelta {
		t.Errorf("l_orderkey chose %v, want PFOR-DELTA", c.Scheme)
	}
	// l_linenumber has 7 values: tiny codes, any non-NONE scheme.
	if c := choice("l_linenumber"); c.Scheme == core.SchemeNone || c.B > 4 {
		t.Errorf("l_linenumber chose %v b=%d", c.Scheme, c.B)
	}
	// l_comment is random: NONE.
	if c := choice("l_comment"); c.Scheme != core.SchemeNone {
		t.Errorf("l_comment chose %v, want NONE", c.Scheme)
	}
	// Table-wide container ratio in the paper's 2-4.5 band for lineitem
	// (comments drag it down, keys and enums pull it up).
	unc, stored := Store(ds, true).Open(DSM, VectorWise, 0).ScanBytes(Lineitem, rel.Cols...)
	if r := float64(unc) / float64(stored); r < 2 || r > 6 {
		t.Errorf("lineitem ratio %.2f outside [2,6]", r)
	}
}

func TestAllQueriesRunAndMatchAcrossConfigs(t *testing.T) {
	// The central correctness claim: every query must produce, on every
	// (layout, compression, decompression-mode) configuration, exactly
	// the result it produces over the generated arrays.
	ds := Generate(testSF, 42)
	want := map[string][][]int64{}
	for _, q := range QueryOrder {
		want[q] = Queries[q](Oracle(ds))
		if len(want[q]) == 0 {
			t.Fatalf("Q%s returned no columns", q)
		}
	}

	for _, compress := range []bool{true, false} {
		stored := Store(ds, compress)
		for _, layout := range []Layout{DSM, PAX} {
			for _, mode := range []Mode{VectorWise, PageWise} {
				db := stored.Open(layout, mode, 1<<30)
				for _, q := range QueryOrder {
					got := Queries[q](db)
					if len(got) != len(want[q]) {
						t.Fatalf("Q%s %v/%v/compress=%v: arity %d vs %d",
							q, layout, mode, compress, len(got), len(want[q]))
					}
					for c := range got {
						if !slices.Equal(got[c], want[q][c]) {
							t.Fatalf("Q%s %v/%v/compress=%v: column %d differs\n got=%v\nwant=%v",
								q, layout, mode, compress, c, clip(got[c]), clip(want[q][c]))
						}
					}
				}
			}
		}
	}
}

func clip(v []int64) []int64 {
	if len(v) > 12 {
		return v[:12]
	}
	return v
}

func TestQ1Sanity(t *testing.T) {
	_, db := buildDB(t, DSM, true, VectorWise)
	out := Q1(db)
	// Groups: (A,F), (N,F), (N,O), (R,F) — the classic Q1 result shape.
	if len(out[0]) != 4 {
		t.Fatalf("Q1 groups = %d, want 4 (got flags %v status %v)", len(out[0]), out[0], out[1])
	}
	// Counts must sum to the rows passing the date filter (nearly all).
	var n int64
	for _, c := range out[6] {
		n += c
	}
	li := db.DS.Rel(Lineitem)
	if n < int64(li.Rows())*9/10 || n > int64(li.Rows()) {
		t.Fatalf("Q1 total count %d of %d rows", n, li.Rows())
	}
}

func TestQ6Sanity(t *testing.T) {
	_, db := buildDB(t, DSM, true, VectorWise)
	out := Q6(db)
	if len(out[0]) != 1 || out[0][0] <= 0 {
		t.Fatalf("Q6 revenue = %v", out)
	}
}

func TestQ18ThresholdRespected(t *testing.T) {
	_, db := buildDB(t, DSM, true, VectorWise)
	out := Q18(db)
	for _, q := range out[1] {
		if q <= 300 {
			t.Fatalf("Q18 emitted group with qty %d <= 300", q)
		}
	}
	// Descending by quantity.
	for i := 1; i < len(out[1]); i++ {
		if out[1][i] > out[1][i-1] {
			t.Fatal("Q18 not sorted desc")
		}
	}
}

func TestScanColumnsCoverage(t *testing.T) {
	// Every query has a scan-column entry and every listed column exists.
	ds := Generate(0.001, 1)
	for _, q := range QueryOrder {
		m, ok := ScanColumns[q]
		if !ok {
			t.Fatalf("no ScanColumns for Q%s", q)
		}
		for rel, cols := range m {
			r := ds.Rel(rel)
			for _, c := range cols {
				r.Col(c) // panics if missing
			}
		}
	}
}

func TestDecompressTimeAccounting(t *testing.T) {
	_, db := buildDB(t, DSM, true, VectorWise)
	Q1(db)
	if db.DecompressTime() <= 0 {
		t.Fatal("compressed scan must account decompression time")
	}
}

func TestDateHelper(t *testing.T) {
	if Date(1970, 1, 1) != 0 {
		t.Fatal("epoch")
	}
	if Date(1992, 1, 1)-Date(1991, 12, 31) != 1 {
		t.Fatal("consecutive days")
	}
	if yearOf(Date(1995, 6, 17)) != 1995 || yearOf(Date(1996, 1, 1)) != 1996 {
		t.Fatal("yearOf")
	}
}
