package zukowski_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/zukowski"
)

// Query.Preds is shorthand for a conjunction of ranges ANDed with
// Query.Expr. These tests hold the two spellings of one predicate to the
// same answers, and both to the oracle at any width of conjunction.

// scanEngine is the scan surface a ColumnSet and a zktable.Table share.
type scanEngine[T zukowski.Integer] interface {
	Run(ctx context.Context, q zukowski.Query[T], fn func(block int, rows []int64, cols [][]T) bool) error
	RunAggregate(ctx context.Context, q zukowski.Query[T], col int) (zukowski.Aggregate[T], error)
	Candidates(ctx context.Context, q zukowski.Query[T], fn func(c zukowski.Candidate[T]) bool) (int, error)
}

// treeForm spells q's predicate as one tree, built here rather than by
// the engine: And(Range(p.Col, p.Lo, p.Hi)…, q.Expr), with the zero Expr
// kept as a child when q has no tree.
func treeForm[T zukowski.Integer](q zukowski.Query[T]) zukowski.Query[T] {
	kids := make([]zukowski.Expr[T], 0, len(q.Preds)+1)
	for _, p := range q.Preds {
		kids = append(kids, zukowski.Range(p.Col, p.Lo, p.Hi))
	}
	q.Expr, q.Preds = zukowski.And(append(kids, q.Expr)...), nil
	return q
}

// scanTranscript is everything eng answers for q, exact and degraded: each
// delivery of a sequential and a three-worker Run, the aggregate of column
// aggCol, every candidate, each entry point's error and its ScanReport.
func scanTranscript[T zukowski.Integer](eng scanEngine[T], q zukowski.Query[T], aggCol int) string {
	ctx := context.Background()
	var out strings.Builder
	report := func(what string, err error, r *zukowski.ScanReport) {
		fmt.Fprintf(&out, "%s: %v; planned %d pruned %d rows %d values %d skipped %d lost %d first %v\n", what, err,
			r.BlocksPlanned, r.BlocksPruned, r.RowsPlanned, r.ValuesPlanned, r.BlocksSkipped, r.RowsLost, r.FirstErr)
	}
	for _, skip := range []bool{false, true} {
		q.SkipCorrupt = skip
		for _, workers := range []int{1, 3} {
			q.Workers, q.Report = workers, new(zukowski.ScanReport)
			err := eng.Run(ctx, q, func(b int, rows []int64, cols [][]T) bool {
				fmt.Fprintln(&out, "block", b, rows, cols)
				return true
			})
			report(fmt.Sprintf("Run skip=%v workers=%d", skip, workers), err, q.Report)
		}
		q.Workers, q.Report = 0, new(zukowski.ScanReport)
		agg, err := eng.RunAggregate(ctx, q, aggCol)
		fmt.Fprintf(&out, "aggregate %+v\n", agg)
		report(fmt.Sprintf("RunAggregate skip=%v", skip), err, q.Report)
		q.Report = new(zukowski.ScanReport)
		pruned, err := eng.Candidates(ctx, q, func(c zukowski.Candidate[T]) bool {
			fmt.Fprintln(&out, "candidate", c.Block, c.Local, c.FirstRow, c.Rows, c.Reads)
			return true
		})
		report(fmt.Sprintf("Candidates skip=%v pruned=%d", skip, pruned), err, q.Report)
	}
	return out.String()
}

// checkPredsForm fails unless q and its tree form answer alike through
// every entry point of eng, exact and degraded.
func checkPredsForm[T zukowski.Integer](t *testing.T, what string, eng scanEngine[T], q zukowski.Query[T], aggCol int) {
	t.Helper()
	if preds, tree := scanTranscript(eng, q, aggCol), scanTranscript(eng, treeForm(q), aggCol); preds != tree {
		t.Fatalf("%s: the Preds form and the tree form answer differently\nPreds:\n%s\ntree:\n%s", what, preds, tree)
	}
}

// TestWideConjunction: a conjunction of any width runs — 65 and 200
// conjuncts, as Preds and as one And — and answers what the oracle does
// through Run (sequential and parallel), RunAggregate and Candidates,
// nested under an Or too. The conjuncts cycle over a sorted key, a PFOR
// column and a PDICT column, each a window around one inner window per
// column: most a little wider, some exactly the inner window, and some
// covering the whole column (decided by every zone map).
func TestWideConjunction(t *testing.T) {
	const n, bv = 20_000, 1024
	rng := rand.New(rand.NewSource(46))
	cols := [][]int64{make([]int64, n), synthColumn(rng, n), make([]int64, n)}
	for i := range n {
		cols[0][i] = int64(i)*3 + rng.Int63n(3)
		cols[2][i] = 10 * rng.Int63n(40)
	}
	crs := make([]*zukowski.ColumnReader[int64], len(cols))
	for c, name := range []string{"pfor-delta", "pfor", "pdict"} {
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		crs[c] = buildSelectColumn(t, codec, bv, cols[c])
	}
	cs, err := zukowski.NewColumnSet(crs...)
	if err != nil {
		t.Fatal(err)
	}
	inner := [][2]int64{{cols[0][n/5], cols[0][4*n/5]}, {100, 3500}, {50, 330}}

	for _, width := range []int{65, 200} {
		preds := make([]zukowski.Pred[int64], width)
		for i := range preds {
			c := i % len(cols)
			p := zukowski.Pred[int64]{Col: c, Lo: inner[c][0] - int64(i%7), Hi: inner[c][1] + int64(i%5)}
			switch i % 11 {
			case 3:
				p.Lo, p.Hi = inner[c][0], inner[c][1]
			case 8:
				p.Lo, p.Hi = slices.Min(cols[c]), slices.Max(cols[c])
			}
			preds[i] = p
		}
		holds := func(i int) bool {
			for _, p := range preds {
				if v := cols[p.Col][i]; v < p.Lo || v > p.Hi {
					return false
				}
			}
			return true
		}
		wantRows, wantVals := exprOracle(cols, func(_ [][]int64, i int) bool { return holds(i) })
		if len(wantRows) == 0 || len(wantRows) == n {
			t.Fatalf("width %d: the conjunction selects %d of %d rows; the test wants some", width, len(wantRows), n)
		}
		var wantAgg zukowski.Aggregate[int64]
		for _, v := range wantVals[1] {
			wantAgg.Merge(zukowski.Aggregate[int64]{Count: 1, Sum: v, Min: v, Max: v})
		}

		asPreds := zukowski.Query[int64]{Preds: preds}
		asTree := treeForm(asPreds)
		// Under an Or beside a branch that selects nothing, the wide AND
		// is a nested node evaluated in union mode.
		nested := zukowski.Query[int64]{Expr: zukowski.Or(asTree.Expr, zukowski.Range[int64](0, 1, 0))}
		for name, q := range map[string]zukowski.Query[int64]{"Preds": asPreds, "And": asTree, "Or(And)": nested} {
			what := fmt.Sprintf("width %d as %s", width, name)
			for _, workers := range []int{1, 4} {
				q.Workers = workers
				var rows []int64
				vals := make([][]int64, len(cols))
				if err := cs.Run(t.Context(), q, func(_ int, r []int64, c [][]int64) bool {
					rows = append(rows, r...)
					for i := range c {
						vals[i] = append(vals[i], c[i]...)
					}
					return true
				}); err != nil {
					t.Fatalf("%s, %d workers: Run: %v", what, workers, err)
				}
				if !slices.Equal(rows, wantRows) || !slices.EqualFunc(vals, wantVals, slices.Equal) {
					t.Fatalf("%s, %d workers: Run answered %d rows, the oracle %d", what, workers, len(rows), len(wantRows))
				}
			}
			if agg, err := cs.RunAggregate(t.Context(), q, 1); err != nil || agg != wantAgg {
				t.Fatalf("%s: RunAggregate = %+v, %v; want %+v", what, agg, err, wantAgg)
			}
			next, candidates := 0, 0
			pruned, err := cs.Candidates(t.Context(), q, func(c zukowski.Candidate[int64]) bool {
				if next < len(wantRows) && wantRows[next] < c.FirstRow {
					t.Fatalf("%s: matching row %d lies in a pruned block before candidate %d", what, wantRows[next], c.Block)
				}
				for next < len(wantRows) && wantRows[next] < c.FirstRow+int64(c.Rows) {
					next++
				}
				candidates++
				return true
			})
			if err != nil || next != len(wantRows) || candidates+pruned != cs.NumBlocks() || pruned == 0 {
				t.Fatalf("%s: Candidates: %v; %d candidates and %d pruned of %d blocks cover %d of %d matching rows",
					what, err, candidates, pruned, cs.NumBlocks(), next, len(wantRows))
			}
		}
		checkPredsForm(t, fmt.Sprintf("width %d", width), cs, asPreds, 1)
	}
}
