package zktable_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/zktable"
	"repro/zukowski"
)

// oracleCandidate is one block an oracle built from the block's own
// values keeps, with the columns the predicate leaves undecided there.
type oracleCandidate struct {
	block    int
	firstRow int64
	rows     int
	reads    []bool
}

// conjunctionOracle plans preds over segs, each cut into testBV-row
// blocks numbered across the table, from each block's min and max alone:
// a block some conjunct rules out is pruned, any other is a candidate
// reading the columns whose conjuncts it leaves undecided. Segments whose
// index is in skip are out of service: their blocks are numbered but
// neither candidates nor pruned.
func conjunctionOracle(segs [][][]int64, preds []zukowski.Pred[int64], skip ...int) (cands []oracleCandidate, pruned int) {
	block, row := 0, int64(0)
	for si, seg := range segs {
		n := len(seg[0])
		for b0 := 0; b0 < n; b0 += testBV {
			b1 := min(b0+testBV, n)
			c := oracleCandidate{block: block, firstRow: row + int64(b0), rows: b1 - b0, reads: make([]bool, len(seg))}
			block++
			if slices.Contains(skip, si) {
				continue
			}
			none := false
			for _, p := range preds {
				vals := seg[p.Col][b0:b1]
				mn, mx := slices.Min(vals), slices.Max(vals)
				switch {
				case p.Lo > p.Hi || mx < p.Lo || mn > p.Hi:
					none = true
				case p.Lo > mn || mx > p.Hi:
					c.reads[p.Col] = true
				}
			}
			if none {
				pruned++
				continue
			}
			cands = append(cands, c)
		}
		row += int64(n)
	}
	return cands, pruned
}

// TestCandidatesSkipQuarantinedSegment: over three segments, the middle
// one quarantined, an exact Candidates fails with ErrSegmentQuarantined,
// and under SkipCorrupt it hands out exactly the oracle's candidates of
// the two healthy segments, block for block, counts exactly their pruned
// blocks, and reports that plan and the middle segment's loss.
func TestCandidatesSkipQuarantinedSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	segs := [][][]int64{synthCols(130, 1800), synthCols(131, 1300), synthCols(132, 1100)}
	for _, seg := range segs {
		mustAppend(t, tb, seg)
	}
	tb.Close()
	victim := filepath.Join(dir, "seg-00000002-d.zkc")
	st, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, st.Size()-200); err != nil {
		t.Fatal(err)
	}
	tb2, rep, err := zktable.Open[int64](dir, zktable.Options{Salvage: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer tb2.Close()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Seg != 2 {
		t.Fatalf("Quarantined = %+v, want segment 2", rep.Quarantined)
	}

	// A key window (every segment's keys climb from 0) that prunes each
	// segment's first and last blocks, and a payload range most blocks
	// straddle.
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: segs[0][0][600], Hi: segs[0][0][1000]}, {Col: 1, Lo: 100, Hi: 899}}
	walk := func(q zukowski.Query[int64]) (got []oracleCandidate, pruned int, err error) {
		pruned, err = tb2.Candidates(bg, q, func(c zukowski.Candidate[int64]) bool {
			got = append(got, oracleCandidate{c.Block, c.FirstRow, c.Rows, slices.Clone(c.Reads)})
			return true
		})
		return got, pruned, err
	}
	if _, _, err := walk(where(preds...)); !errors.Is(err, zktable.ErrSegmentQuarantined) {
		t.Fatalf("exact Candidates = %v, want ErrSegmentQuarantined", err)
	}

	want, wantPruned := conjunctionOracle(segs, preds, 1)
	if len(want) == 0 || wantPruned == 0 {
		t.Fatalf("oracle: %d candidates, %d pruned; the test wants both", len(want), wantPruned)
	}
	srep := new(zukowski.ScanReport)
	q := where(preds...)
	q.SkipCorrupt, q.Report = true, srep
	got, pruned, err := walk(q)
	if err != nil {
		t.Fatalf("degraded Candidates: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d candidates, oracle %d", len(got), len(want))
	}
	var rows, values int64
	for i := range want {
		g, w := got[i], want[i]
		if g.block != w.block || g.firstRow != w.firstRow || g.rows != w.rows || !slices.Equal(g.reads, w.reads) {
			t.Fatalf("candidate %d = %+v, oracle %+v", i, g, w)
		}
		rows += int64(w.rows)
		for _, r := range w.reads {
			if r {
				values += int64(w.rows)
			}
		}
	}
	if pruned != wantPruned {
		t.Fatalf("pruned %d, oracle %d", pruned, wantPruned)
	}
	lost := (1300 + testBV - 1) / testBV
	if srep.BlocksPlanned != len(want) || srep.BlocksPruned != wantPruned || srep.RowsPlanned != rows || srep.ValuesPlanned != values {
		t.Fatalf("report plans %d blocks (%d pruned), %d rows, %d values; oracle %d (%d), %d, %d",
			srep.BlocksPlanned, srep.BlocksPruned, srep.RowsPlanned, srep.ValuesPlanned, len(want), wantPruned, rows, values)
	}
	if srep.BlocksSkipped != lost || srep.RowsLost != 1300 || !errors.Is(srep.FirstErr, zktable.ErrSegmentQuarantined) {
		t.Fatalf("report lost %d blocks, %d rows (%v); want %d, 1300, the quarantine", srep.BlocksSkipped, srep.RowsLost, srep.FirstErr, lost)
	}
}
