package zukowski_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/zukowski"
)

// planTotals are a ScanReport's plan fields.
type planTotals struct {
	planned, pruned int
	rows, values    int64
}

func totalsOf(r *zukowski.ScanReport) planTotals {
	return planTotals{r.BlocksPlanned, r.BlocksPruned, r.RowsPlanned, r.ValuesPlanned}
}

// oracleZone is what a block's own min and max say of [lo, hi]: -1 no
// row matches, 1 every row does, 0 undecided.
func oracleZone(vals []int64, lo, hi int64) int {
	mn, mx := slices.Min(vals), slices.Max(vals)
	switch {
	case lo > hi || mx < lo || mn > hi:
		return -1
	case lo <= mn && mx <= hi:
		return 1
	}
	return 0
}

// TestPlanTotalsAgree: one query, planned by Run, a parallel Run,
// RunAggregate, GroupAggregate, JoinOn and Candidates over an in-memory
// and a file-backed set, fills the same blocks planned, blocks pruned and
// rows planned — those an oracle built from each block's own min and max
// rules in — and as column values the rows of each planned block times
// the columns read there: the predicate's undecided columns plus what the
// entry point materializes. Over the file-backed set, where every planned
// block keeps rows, each column reads exactly those of its frames: runs
// read ahead no frame the plan does not read.
func TestPlanTotalsAgree(t *testing.T) {
	const n, bv = 2000, 64
	cols := make([][]int64, 3)
	for c := range cols {
		cols[c] = make([]int64, n)
	}
	for i := range n {
		cols[0][i] = int64(i)         // sorted: windows prune
		cols[1][i] = int64(i / 7 % 5) // five values, every block spans them
		cols[2][i] = int64(i / bv % 4)
	}
	// Rows 300..1500, then column 1 in [1, 3] or column 2 == 0: the window
	// decides all blocks but the two it cuts, column 1 is left to evaluate
	// everywhere, and column 2's leaf is decided on every block — all or
	// none — so the OR is decided wherever column 2 is 0.
	q := zukowski.Query[int64]{
		Preds: []zukowski.Pred[int64]{{Col: 0, Lo: 300, Hi: 1500}},
		Expr:  zukowski.Or(zukowski.Range[int64](1, 1, 3), zukowski.Range[int64](2, 0, 0)),
	}

	// The oracle: per block, whether it is planned and which columns the
	// predicate reads there.
	var want planTotals
	var predReads [][]bool // per planned block
	var predRows []int64
	var predBlocks []int
	for b0 := 0; b0 < n; b0 += bv {
		b1 := min(b0+bv, n)
		window := oracleZone(cols[0][b0:b1], 300, 1500)
		l1, l2 := oracleZone(cols[1][b0:b1], 1, 3), oracleZone(cols[2][b0:b1], 0, 0)
		or := max(l1, l2) // an OR is all when one leaf is, none when both are
		if window == -1 || or == -1 {
			want.pruned++
			continue
		}
		reads := make([]bool, len(cols))
		reads[0] = window == 0
		if or == 0 {
			reads[1] = l1 == 0
			reads[2] = l2 == 0
		}
		want.planned++
		want.rows += int64(b1 - b0)
		predReads = append(predReads, reads)
		predRows = append(predRows, int64(b1-b0))
		predBlocks = append(predBlocks, b0/bv)
	}
	if want.planned == 0 || want.pruned == 0 {
		t.Fatalf("oracle plans %d blocks and prunes %d; the test wants both", want.planned, want.pruned)
	}
	sets := map[string]*zukowski.ColumnSet[int64]{}
	mem := make([]*zukowski.ColumnReader[int64], len(cols))
	file := make([]*zukowski.ColumnReader[int64], len(cols))
	counters := make([]*countingReaderAt, len(cols))
	for c := range cols {
		var buf bytes.Buffer
		cw, err := zukowski.NewColumnWriter[int64](&buf, zukowski.Auto[int64]{}, bv)
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Write(cols[c]); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		if mem[c], err = zukowski.OpenColumn[int64](buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		counters[c] = &countingReaderAt{r: bytes.NewReader(buf.Bytes())}
		if file[c], err = zukowski.OpenColumnReaderAt[int64](counters[c], int64(buf.Len())); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if sets["in-memory"], err = zukowski.NewColumnSet(mem...); err != nil {
		t.Fatal(err)
	}
	if sets["file-backed"], err = zukowski.NewColumnSet(file...); err != nil {
		t.Fatal(err)
	}

	// withMat is the plan of an entry point materializing mat, and the
	// bytes each file-backed column reads under it.
	withMat := func(mat ...int) (planTotals, []int64) {
		w, frames := want, make([]int64, len(cols))
		for i, reads := range predReads {
			for c, r := range reads {
				if r || slices.Contains(mat, c) {
					w.values += predRows[i]
					info, err := file[c].BlockInfo(predBlocks[i])
					if err != nil {
						t.Fatal(err)
					}
					frames[c] += int64(info.Length)
				}
			}
		}
		return w, frames
	}

	ctx := context.Background()
	jt := zukowski.BuildJoin([]int64{1, 2})
	for name, cs := range sets {
		for _, tc := range []struct {
			entry string
			mat   []int
			dry   bool // reads no frame
			scan  func(q zukowski.Query[int64]) error
		}{
			{"Run", []int{0, 1, 2}, false, func(q zukowski.Query[int64]) error {
				return cs.Run(ctx, q, func(int, []int64, [][]int64) bool { return true })
			}},
			{"Run Cols [2]", []int{2}, false, func(q zukowski.Query[int64]) error {
				q.Cols = []int{2}
				return cs.Run(ctx, q, func(int, []int64, [][]int64) bool { return true })
			}},
			{"Run Workers 4", []int{0, 1, 2}, false, func(q zukowski.Query[int64]) error {
				q.Workers = 4
				return cs.Run(ctx, q, func(int, []int64, [][]int64) bool { return true })
			}},
			{"RunAggregate", []int{2}, false, func(q zukowski.Query[int64]) error {
				_, err := cs.RunAggregate(ctx, q, 2)
				return err
			}},
			{"GroupAggregate", []int{1}, false, func(q zukowski.Query[int64]) error {
				_, err := cs.GroupAggregate(q, []int{1}, []zukowski.AggSpec[int64]{{Kind: zukowski.AggCount}})
				return err
			}},
			{"GroupAggregate count", nil, false, func(q zukowski.Query[int64]) error {
				_, err := cs.GroupAggregate(q, nil, []zukowski.AggSpec[int64]{{Kind: zukowski.AggCount}})
				return err
			}},
			{"JoinOn", []int{1}, false, func(q zukowski.Query[int64]) error {
				return cs.JoinOn(q, 1, jt, func([]int64, []int32) bool { return true })
			}},
			{"Candidates", nil, true, func(q zukowski.Query[int64]) error {
				_, err := cs.Candidates(ctx, q, func(zukowski.Candidate[int64]) bool { return true })
				return err
			}},
			{"Candidates stopped", nil, true, func(q zukowski.Query[int64]) error {
				_, err := cs.Candidates(ctx, q, func(zukowski.Candidate[int64]) bool { return false })
				return err
			}},
		} {
			rep := new(zukowski.ScanReport)
			qq := q
			qq.Report = rep
			before := make([]int64, len(cols))
			for c := range counters {
				before[c] = counters[c].bytes.Load()
			}
			if err := tc.scan(qq); err != nil {
				t.Fatalf("%s %s: %v", name, tc.entry, err)
			}
			want, frames := withMat(tc.mat...)
			if tc.dry {
				clear(frames)
			}
			if got := totalsOf(rep); got != want {
				t.Fatalf("%s %s: plan totals %+v, want %+v", name, tc.entry, got, want)
			}
			for c := range counters {
				if got := counters[c].bytes.Load() - before[c]; name == "file-backed" && got != frames[c] {
					t.Fatalf("%s %s: column %d read %d bytes, its planned frames hold %d", name, tc.entry, c, got, frames[c])
				}
			}
			if rep.Degraded() {
				t.Fatalf("%s %s: a healthy scan reports losses: %+v", name, tc.entry, rep)
			}
		}

		// A trivially empty conjunction plans nothing and prunes every block.
		rep := new(zukowski.ScanReport)
		empty := zukowski.Query[int64]{Preds: []zukowski.Pred[int64]{{Col: 1, Lo: 1, Hi: 0}}, Report: rep}
		if err := cs.Run(ctx, empty, func(int, []int64, [][]int64) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if got, w := totalsOf(rep), (planTotals{pruned: cs.NumBlocks()}); got != w {
			t.Fatalf("%s: empty conjunction's plan %+v, want %+v", name, got, w)
		}
		// A query that fails its checks plans nothing.
		rep = new(zukowski.ScanReport)
		bad := zukowski.Query[int64]{Cols: []int{7}, Report: rep}
		if err := cs.Run(ctx, bad, func(int, []int64, [][]int64) bool { return true }); err == nil {
			t.Fatalf("%s: a query naming column 7 ran", name)
		}
		if got := totalsOf(rep); got != (planTotals{}) {
			t.Fatalf("%s: a refused query recorded a plan: %+v", name, got)
		}
	}
}
