package zukowski_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/zukowski"
)

// exprCase pairs an expression with its row oracle over the decoded
// columns (all[col][row]).
type exprCase struct {
	name string
	expr zukowski.Expr[int64]
	ok   func(all [][]int64, i int) bool
}

// exprCases is a fixed battery covering every node type, nesting both
// ways, and the degenerate shapes (zero expr, empty And/Or/In, inverted
// range). Column domains follow synthColumn: mostly < 4096 with sparse
// outliers up to 2^30.
func exprCases() []exprCase {
	between := func(v, lo, hi int64) bool { return v >= lo && v <= hi }
	return []exprCase{
		{"zero", zukowski.Expr[int64]{}, func(all [][]int64, i int) bool { return true }},
		{"range", zukowski.Range[int64](0, 100, 900),
			func(all [][]int64, i int) bool { return between(all[0][i], 100, 900) }},
		{"inverted-range", zukowski.Range[int64](0, 900, 100),
			func(all [][]int64, i int) bool { return false }},
		{"or-two-ranges", zukowski.Or(zukowski.Range[int64](0, 0, 150), zukowski.Range[int64](0, 3000, 3500)),
			func(all [][]int64, i int) bool {
				return between(all[0][i], 0, 150) || between(all[0][i], 3000, 3500)
			}},
		{"or-two-cols", zukowski.Or(zukowski.Range[int64](0, 0, 200), zukowski.Range[int64](1, 3900, 4100)),
			func(all [][]int64, i int) bool {
				return between(all[0][i], 0, 200) || between(all[1][i], 3900, 4100)
			}},
		{"in", zukowski.In[int64](0, 7, 42, 1000, 1<<29),
			func(all [][]int64, i int) bool {
				v := all[0][i]
				return v == 7 || v == 42 || v == 1000 || v == 1<<29
			}},
		{"empty-in", zukowski.In[int64](0),
			func(all [][]int64, i int) bool { return false }},
		{"empty-and", zukowski.And[int64](),
			func(all [][]int64, i int) bool { return true }},
		{"empty-or", zukowski.Or[int64](),
			func(all [][]int64, i int) bool { return false }},
		{"and-of-ors", zukowski.And(
			zukowski.Or(zukowski.Range[int64](0, 0, 500), zukowski.Range[int64](0, 2000, 2600)),
			zukowski.Or(zukowski.Range[int64](1, 0, 800), zukowski.In[int64](1, 3000, 3001, 3002)),
		), func(all [][]int64, i int) bool {
			a, b := all[0][i], all[1][i]
			return (between(a, 0, 500) || between(a, 2000, 2600)) &&
				(between(b, 0, 800) || b == 3000 || b == 3001 || b == 3002)
		}},
		{"or-of-ands", zukowski.Or(
			zukowski.And(zukowski.Range[int64](0, 0, 300), zukowski.Range[int64](1, 0, 300)),
			zukowski.And(zukowski.Range[int64](0, 3700, 4095), zukowski.Range[int64](2, 0, 100)),
		), func(all [][]int64, i int) bool {
			return (between(all[0][i], 0, 300) && between(all[1][i], 0, 300)) ||
				(between(all[0][i], 3700, 4095) && between(all[2][i], 0, 100))
		}},
		{"deep-nest", zukowski.And(
			zukowski.Range[int64](2, 0, 1<<30),
			zukowski.Or(
				zukowski.In[int64](0, 1, 2, 3),
				zukowski.And(
					zukowski.Range[int64](0, 1000, 2000),
					zukowski.Or(zukowski.Range[int64](1, 0, 100), zukowski.Range[int64](1, 4000, 4095)),
				),
			),
		), func(all [][]int64, i int) bool {
			a, b, c := all[0][i], all[1][i], all[2][i]
			return between(c, 0, 1<<30) &&
				(a == 1 || a == 2 || a == 3 ||
					(between(a, 1000, 2000) && (between(b, 0, 100) || between(b, 4000, 4095))))
		}},
	}
}

// buildExprSet builds a three-column set under the given codec names,
// returning the set and the decoded columns.
func buildExprSet(t *testing.T, codecs [3]string, n int, seed int64) (*zukowski.ColumnSet[int64], [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := make([][]int64, 3)
	crs := make([]*zukowski.ColumnReader[int64], 3)
	for c := range all {
		all[c] = synthColumn(rng, n)
		codec, err := zukowski.Lookup[int64](codecs[c])
		if err != nil {
			t.Fatal(err)
		}
		crs[c] = buildSelectColumn(t, codec, 0, all[c])
	}
	cs, err := zukowski.NewColumnSet(crs...)
	if err != nil {
		t.Fatal(err)
	}
	return cs, all
}

// exprOracle materializes the oracle's row set and per-column values.
func exprOracle(all [][]int64, ok func([][]int64, int) bool) (rows []int64, vals [][]int64) {
	vals = make([][]int64, len(all))
	for i := range all[0] {
		if !ok(all, i) {
			continue
		}
		rows = append(rows, int64(i))
		for c := range all {
			vals[c] = append(vals[c], all[c][i])
		}
	}
	return rows, vals
}

// TestRunExprOracle drives Run with the expression battery over codec
// mixes against the decode-then-filter oracle, sequentially and in
// ordered parallel.
func TestRunExprOracle(t *testing.T) {
	mixes := [][3]string{
		{"pfor", "pfor", "pfor"},
		{"pdict", "pfor", "pfor-delta"},
		{"none", "pdict", "pfor"},
		{"auto", "auto", "auto"},
	}
	for mi, mix := range mixes {
		cs, all := buildExprSet(t, mix, 30_000, int64(101+mi))
		for _, tc := range exprCases() {
			wantRows, wantVals := exprOracle(all, tc.ok)
			for _, workers := range []int{0, 3} {
				var gotRows []int64
				gotVals := make([][]int64, 3)
				q := zukowski.Query[int64]{Expr: tc.expr, Workers: workers}
				err := cs.Run(context.Background(), q, func(_ int, r []int64, cols [][]int64) bool {
					gotRows = append(gotRows, r...)
					for c := range cols {
						gotVals[c] = append(gotVals[c], cols[c]...)
					}
					return true
				})
				if err != nil {
					t.Fatalf("%v/%s workers=%d: Run: %v", mix, tc.name, workers, err)
				}
				if !slices.Equal(gotRows, wantRows) {
					t.Fatalf("%v/%s workers=%d: rows mismatch: got %d want %d",
						mix, tc.name, workers, len(gotRows), len(wantRows))
				}
				for c := range gotVals {
					if !slices.Equal(gotVals[c], wantVals[c]) {
						t.Fatalf("%v/%s workers=%d: column %d values mismatch", mix, tc.name, workers, c)
					}
				}
			}

			// RunAggregate over column 1 must fold exactly the oracle rows.
			agg, err := cs.RunAggregate(context.Background(), zukowski.Query[int64]{Expr: tc.expr}, 1)
			if err != nil {
				t.Fatalf("%v/%s: RunAggregate: %v", mix, tc.name, err)
			}
			var want zukowski.Aggregate[int64]
			for _, v := range wantVals[1] {
				if want.Count == 0 {
					want.Min, want.Max = v, v
				} else {
					want.Min, want.Max = min(want.Min, v), max(want.Max, v)
				}
				want.Count++
				want.Sum += v
			}
			if agg != want {
				t.Fatalf("%v/%s: RunAggregate = %+v, want %+v", mix, tc.name, agg, want)
			}
		}
	}
}

// TestQueryPredsAndExpr checks that Preds and Expr compose by AND, and
// that the equivalent pure-Expr form agrees.
func TestQueryPredsAndExpr(t *testing.T) {
	cs, all := buildExprSet(t, [3]string{"pfor", "pdict", "auto"}, 20_000, 7)
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: 100, Hi: 3000}}
	expr := zukowski.Or(zukowski.Range[int64](1, 0, 500), zukowski.Range[int64](2, 2000, 2400))

	wantRows, _ := exprOracle(all, func(all [][]int64, i int) bool {
		return all[0][i] >= 100 && all[0][i] <= 3000 &&
			((all[1][i] >= 0 && all[1][i] <= 500) || (all[2][i] >= 2000 && all[2][i] <= 2400))
	})
	var gotRows []int64
	err := cs.Run(context.Background(), zukowski.Query[int64]{Preds: preds, Expr: expr},
		func(_ int, r []int64, _ [][]int64) bool { gotRows = append(gotRows, r...); return true })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("Preds∧Expr rows mismatch: got %d want %d", len(gotRows), len(wantRows))
	}

	// The equivalent pure-Expr form must agree.
	var exprRows []int64
	eq := zukowski.And(zukowski.Range[int64](0, 100, 3000), expr)
	err = cs.Run(context.Background(), zukowski.Query[int64]{Expr: eq},
		func(_ int, r []int64, _ [][]int64) bool { exprRows = append(exprRows, r...); return true })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(exprRows, wantRows) {
		t.Fatal("And(Range, expr) disagrees with Query{Preds, Expr}")
	}
}

// TestRunCols checks the column-subset contract: Cols names and orders
// the materialized columns.
func TestRunCols(t *testing.T) {
	cs, all := buildExprSet(t, [3]string{"pfor", "pfor", "pfor"}, 10_000, 11)
	expr := zukowski.Range[int64](0, 0, 700)
	wantRows, wantVals := exprOracle(all, func(all [][]int64, i int) bool { return all[0][i] <= 700 })

	var gotRows []int64
	var got2, got0 []int64
	q := zukowski.Query[int64]{Expr: expr, Cols: []int{2, 0}}
	err := cs.Run(context.Background(), q, func(_ int, r []int64, cols [][]int64) bool {
		if len(cols) != 2 {
			t.Fatalf("Cols [2 0]: got %d columns", len(cols))
		}
		gotRows = append(gotRows, r...)
		got2 = append(got2, cols[0]...)
		got0 = append(got0, cols[1]...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotRows, wantRows) || !slices.Equal(got2, wantVals[2]) || !slices.Equal(got0, wantVals[0]) {
		t.Fatal("Cols subset scan disagrees with oracle")
	}
}

// TestProject checks the collecting form.
func TestProject(t *testing.T) {
	cs, all := buildExprSet(t, [3]string{"pdict", "pfor", "auto"}, 10_000, 13)
	expr := zukowski.Or(zukowski.Range[int64](0, 0, 99), zukowski.In[int64](1, 5, 6, 7))
	wantRows, wantVals := exprOracle(all, func(all [][]int64, i int) bool {
		return all[0][i] <= 99 || all[1][i] == 5 || all[1][i] == 6 || all[1][i] == 7
	})
	rows, vals, err := cs.Project(expr, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rows, wantRows) || !slices.Equal(vals[0], wantVals[1]) || !slices.Equal(vals[1], wantVals[2]) {
		t.Fatal("Project disagrees with oracle")
	}

	// No columns: every column, set order.
	rows, vals, err = cs.Project(expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || !slices.Equal(rows, wantRows) || !slices.Equal(vals[0], wantVals[0]) {
		t.Fatal("Project() all-columns form disagrees with oracle")
	}
}

// TestQueryErrors checks column validation across the Query surface.
func TestQueryErrors(t *testing.T) {
	cs, _ := buildExprSet(t, [3]string{"pfor", "pfor", "pfor"}, 1_000, 17)
	bad := []zukowski.Query[int64]{
		{Expr: zukowski.Range[int64](3, 0, 1)},
		{Expr: zukowski.Or(zukowski.Range[int64](0, 0, 1), zukowski.In[int64](-1, 5))},
		{Cols: []int{0, 3}},
		{Preds: []zukowski.Pred[int64]{{Col: 9, Lo: 0, Hi: 1}}},
	}
	for i, q := range bad {
		if err := cs.Run(context.Background(), q, func(int, []int64, [][]int64) bool { return true }); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
			t.Fatalf("bad query %d: Run returned %v, want ErrIndexOutOfRange", i, err)
		}
	}
}
