package zukowski_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/zktable"
	"repro/zukowski"
)

// fuzzNode is the fuzzer's own expression representation, built from the
// fuzz byte stream and lowered to both a zukowski.Expr and a per-row
// oracle — the two must agree exactly on every dataset.
type fuzzNode struct {
	op   byte // 0 range, 1 in, 2 and, 3 or, 4 the zero Expr
	col  int
	lo   int64
	hi   int64
	vals []int64
	kids []fuzzNode
}

// fuzzByteReader doles out tree-shape bytes, repeating the last stretch
// when the stream runs dry so every input terminates.
type fuzzByteReader struct {
	data []byte
	pos  int
}

func (r *fuzzByteReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.pos%len(r.data)]
	r.pos++
	return b
}

// genNode builds a random tree of bounded depth. Leaf windows come from
// the column's own quantiles so predicates hit real data, with the
// occasional inverted or out-of-domain window kept on purpose — or from
// the zone maps themselves: a window from the minimum of one
// blockValues-row block to the maximum of a block up to two further on,
// each end moved by -1, 0 or +1, so that the block verdict falls on every
// side of "no row", "every row" and "some rows" (on a sorted column the
// blocks in between are covered whole). A child may be the zero Expr.
func genNode(r *fuzzByteReader, cols [][]int64, blockValues, depth int) fuzzNode {
	op := r.next() % 5
	if op == 4 && depth == 0 {
		op = 3 // the zero Expr only as a child: the root is what the caller filters by
	}
	if (depth >= 3 || r.pos > 64) && op < 4 {
		op %= 2 // force a leaf
	}
	if op == 4 {
		return fuzzNode{op: 4}
	}
	ci := int(r.next()) % len(cols)
	vals := cols[ci]
	quantile := func(sel byte) int64 {
		if len(vals) == 0 {
			return int64(sel)
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		return sorted[int(sel)*len(sorted)/256]
	}
	// zone returns the min and max of block b (taken modulo the block count).
	zone := func(b int) (int64, int64) {
		b %= (len(vals) + blockValues - 1) / blockValues
		blk := vals[b*blockValues : min(len(vals), (b+1)*blockValues)]
		return slices.Min(blk), slices.Max(blk)
	}
	switch op {
	case 0:
		lo, hi := quantile(r.next()), quantile(r.next())
		switch how := r.next() % 8; how {
		case 0:
			lo, hi = hi+1, lo-1 // sometimes inverted/empty
		case 1, 2, 3:
			first, nudge := int(r.next()), r.next()
			lo, _ = zone(first)
			_, hi = zone(first + int(how) - 1)
			lo += int64(nudge%3) - 1
			hi += int64(nudge/3%3) - 1
		}
		return fuzzNode{op: 0, col: ci, lo: lo, hi: hi}
	case 1:
		n := int(r.next()) % 5
		vals := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			if sel := r.next(); sel%4 == 0 {
				// A block's minimum: all of the block when it holds one value.
				v, _ := zone(int(sel / 4))
				vals = append(vals, v)
			} else {
				vals = append(vals, quantile(sel))
			}
		}
		return fuzzNode{op: 1, col: ci, vals: vals}
	default:
		n := int(r.next())%3 + 1
		kids := make([]fuzzNode, 0, n)
		for i := 0; i < n; i++ {
			kids = append(kids, genNode(r, cols, blockValues, depth+1))
		}
		return fuzzNode{op: op, kids: kids}
	}
}

func (n *fuzzNode) expr() zukowski.Expr[int64] {
	switch n.op {
	case 0:
		return zukowski.Range[int64](n.col, n.lo, n.hi)
	case 1:
		return zukowski.In[int64](n.col, n.vals...)
	case 4:
		return zukowski.Expr[int64]{}
	default:
		kids := make([]zukowski.Expr[int64], len(n.kids))
		for i := range n.kids {
			kids[i] = n.kids[i].expr()
		}
		if n.op == 2 {
			return zukowski.And(kids...)
		}
		return zukowski.Or(kids...)
	}
}

func (n *fuzzNode) eval(cols [][]int64, i int) bool {
	switch n.op {
	case 0:
		v := cols[n.col][i]
		return v >= n.lo && v <= n.hi
	case 1:
		for _, w := range n.vals {
			if cols[n.col][i] == w {
				return true
			}
		}
		return false
	case 2:
		for k := range n.kids {
			if !n.kids[k].eval(cols, i) {
				return false
			}
		}
		return true
	case 3:
		for k := range n.kids {
			if n.kids[k].eval(cols, i) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// What a block's zone maps can prove about a predicate, in the oracle's
// own terms: taken from the min and max of the rows themselves.
const (
	zoneSome = iota
	zoneNone
	zoneAll
)

func zoneRange(vals []int64, lo, hi int64) int {
	bmin, bmax := slices.Min(vals), slices.Max(vals)
	switch {
	case lo > hi || bmax < lo || bmin > hi:
		return zoneNone
	case lo <= bmin && bmax <= hi:
		return zoneAll
	}
	return zoneSome
}

// zone is the verdict min/max statistics allow on n over rows [r0, r1).
func (n *fuzzNode) zone(cols [][]int64, r0, r1 int) int {
	switch n.op {
	case 0:
		return zoneRange(cols[n.col][r0:r1], n.lo, n.hi)
	case 1:
		out := zoneNone
		for _, v := range n.vals {
			switch zoneRange(cols[n.col][r0:r1], v, v) {
			case zoneAll:
				return zoneAll
			case zoneSome:
				out = zoneSome
			}
		}
		return out
	case 2, 3:
		// AND: none wins, then some; OR: all wins, then some.
		wins, loses := zoneNone, zoneAll
		if n.op == 3 {
			wins, loses = zoneAll, zoneNone
		}
		out := loses
		for k := range n.kids {
			switch n.kids[k].zone(cols, r0, r1) {
			case wins:
				return wins
			case zoneSome:
				out = zoneSome
			}
		}
		return out
	default:
		return zoneAll
	}
}

// reads marks the columns whose values evaluating n over rows [r0, r1)
// needs: the leaves still undecided outside every decided subtree.
func (n *fuzzNode) reads(cols [][]int64, r0, r1 int, out []bool) {
	if n.zone(cols, r0, r1) != zoneSome {
		return
	}
	if n.op < 2 {
		out[n.col] = true
		return
	}
	for k := range n.kids {
		n.kids[k].reads(cols, r0, r1, out)
	}
}

// shuffledPDict is a PDICT codec with a fixed dictionary of up to 16 of
// vals' distinct values, spread over their range, in shuffled order: code
// order is then neither value order nor frequency order, as in a frame
// from before dictionaries were written ascending or one compressed
// against a caller's own dictionary, and a range predicate has to take
// the per-code bitmap path.
func shuffledPDict(vals []int64, seed uint8) zukowski.PDict[int64] {
	distinct := slices.Clone(vals)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	dict := make([]int64, 0, 16)
	for i := 0; i < 16 && i < len(distinct); i++ {
		dict = append(dict, distinct[i*len(distinct)/min(16, len(distinct))])
	}
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
	return zukowski.PDict[int64]{Dict: dict, Width: 4}
}

// checkQueryEngine runs q (tree, Preds and Cols together) through all
// three entry points of eng against the scalar oracle's answer: the same
// global row ids and projected values from Run, the same fold from
// RunAggregate over column aggCol, and from Candidates a strictly
// ascending walk that accounts for every one of the blocks blocks, leaves
// no matching row outside a candidate, hands out no block whose own min
// and max rule it out, and names as read exactly the columns that
// q.Preds[0] and the tree node (q.Expr, in the oracle's form) leave
// undecided over the block's rows of cols. Each entry point's plan totals
// (Query.Report) are that walk's: its candidates, its pruned blocks, their
// rows, and per candidate its rows times the columns read — the oracle's,
// plus q.Cols for Run and aggCol for RunAggregate; checkQueryEngine
// returns them. Spelled as one tree (treeForm), q answers the same,
// exact and degraded.
func checkQueryEngine(t *testing.T, what string, eng scanEngine[int64], q zukowski.Query[int64], blocks int,
	wantRows []int64, wantVals [][]int64, aggCol int, wantAgg zukowski.Aggregate[int64],
	cols [][]int64, node *fuzzNode) [3]planTotals {
	t.Helper()
	reps := [3]zukowski.ScanReport{} // Run, RunAggregate, Candidates
	var gotRows []int64
	gotVals := make([][]int64, len(q.Cols))
	lastBlock := -1
	q.Report = &reps[0]
	if err := eng.Run(t.Context(), q, func(b int, r []int64, bc [][]int64) bool {
		if b <= lastBlock || b >= blocks {
			t.Fatalf("%s: Run delivered block %d after %d (of %d)", what, b, lastBlock, blocks)
		}
		lastBlock = b
		gotRows = append(gotRows, r...)
		for c := range bc {
			gotVals[c] = append(gotVals[c], bc[c]...)
		}
		return true
	}); err != nil {
		t.Fatalf("%s: Run: %v", what, err)
	}
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("%s: Run disagrees with oracle: got %d rows, want %d", what, len(gotRows), len(wantRows))
	}
	for c := range gotVals {
		if !slices.Equal(gotVals[c], wantVals[c]) {
			t.Fatalf("%s: Run output column %d disagrees with oracle", what, c)
		}
	}

	q.Report = &reps[1]
	if agg, err := eng.RunAggregate(t.Context(), q, aggCol); err != nil || agg != wantAgg {
		t.Fatalf("%s: RunAggregate = %+v, %v; want %+v", what, agg, err, wantAgg)
	}

	candidates, lastBlock, next := 0, -1, 0 // next indexes wantRows
	wantReads := make([]bool, len(cols))
	var wantPlans [3]planTotals
	q.Report = &reps[2]
	pruned, err := eng.Candidates(t.Context(), q, func(c zukowski.Candidate[int64]) bool {
		b, firstRow, rows := c.Block, c.FirstRow, c.Rows
		if b <= lastBlock || b >= blocks {
			t.Fatalf("%s: candidate block %d after %d (of %d)", what, b, lastBlock, blocks)
		}
		if info, err := c.Cols[0].BlockInfo(c.Local); err != nil || info.Count != rows {
			t.Fatalf("%s: candidate %d is local block %d of %d rows, whose reader says %+v, %v", what, b, c.Local, rows, info, err)
		}
		r0, r1 := int(firstRow), int(firstRow)+rows
		p := q.Preds[0]
		window := zoneRange(cols[p.Col][r0:r1], p.Lo, p.Hi)
		if window == zoneNone || node.zone(cols, r0, r1) == zoneNone {
			t.Fatalf("%s: candidate %d (rows %d..%d) is ruled out by its own min and max", what, b, r0, r1)
		}
		clear(wantReads)
		wantReads[p.Col] = window == zoneSome
		node.reads(cols, r0, r1, wantReads)
		if !slices.Equal(c.Reads, wantReads) {
			t.Fatalf("%s: candidate %d (rows %d..%d): the predicate reads columns %v, want %v", what, b, r0, r1, c.Reads, wantReads)
		}
		for i, mat := range [3][]int{q.Cols, {aggCol}, nil} {
			wantPlans[i].planned++
			wantPlans[i].rows += int64(rows)
			for col, r := range wantReads {
				if r || slices.Contains(mat, col) {
					wantPlans[i].values += int64(rows)
				}
			}
		}
		if next < len(wantRows) && wantRows[next] < firstRow {
			t.Fatalf("%s: matching row %d lies in a pruned block before candidate %d", what, wantRows[next], b)
		}
		for next < len(wantRows) && wantRows[next] < firstRow+int64(rows) {
			next++
		}
		lastBlock = b
		candidates++
		return true
	})
	if err != nil {
		t.Fatalf("%s: Candidates: %v", what, err)
	}
	if next != len(wantRows) {
		t.Fatalf("%s: matching row %d lies in a pruned block", what, wantRows[next])
	}
	if candidates+pruned != blocks {
		t.Fatalf("%s: %d candidates + %d pruned != %d blocks", what, candidates, pruned, blocks)
	}
	for i, entry := range []string{"Run", "RunAggregate", "Candidates"} {
		wantPlans[i].pruned = pruned
		if got := totalsOf(&reps[i]); got != wantPlans[i] {
			t.Fatalf("%s: %s planned %+v, want %+v", what, entry, got, wantPlans[i])
		}
	}
	checkPredsForm(t, what, eng, q, aggCol)
	return wantPlans
}

// FuzzExprScan is the differential fuzzer of the expression scan: random
// AND/OR/In/Range trees over two or three columns of fuzzed codecs — the
// first sorted when codecB's top bit is set, so that windows cover blocks
// whole — must agree exactly with the decode-then-filter oracle through
// Run (fresh and preds-refined paths) and RunAggregate — and then,
// composed with a Preds window and a Cols projection, through Run,
// RunAggregate and Candidates of the ColumnSet and of a three-segment
// zktable cut from the same columns (once on a block boundary, once inside
// a block), before and after Compact, where the query spelled as one tree
// answers exactly as the Preds form does.
func FuzzExprScan(f *testing.F) {
	f.Add([]byte{}, []byte{0}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []byte{3, 0, 1, 2, 9, 4}, uint8(1), uint8(2), uint8(3), uint8(1))
	f.Add(bytes.Repeat([]byte{7, 9}, 40), []byte{2, 2, 0, 0, 10, 20, 1, 1, 3}, uint8(4), uint8(0), uint8(2), uint8(5))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<40), []byte{3, 1, 5, 0, 128, 255, 2}, uint8(2), uint8(3), uint8(1), uint8(0))
	// 400 ascending values at 64-row blocks: several blocks per table
	// segment, with zone maps that genuinely prune.
	var ramp []byte
	for i := 0; i < 400; i++ {
		ramp = binary.LittleEndian.AppendUint64(ramp, uint64(i*13))
	}
	f.Add(ramp, []byte{3, 0, 0, 40, 90, 1, 2, 0, 1, 200, 230, 1}, uint8(0), uint8(150), uint8(2), uint8(0))

	names := zukowski.Codecs()
	// Two columns under PDICT with a shuffled dictionary (see shuffledPDict).
	shuffled := uint8(slices.Index(names, "pdict") + len(names))
	f.Add(bytes.Repeat([]byte{7, 9, 3, 200, 41}, 60), []byte{3, 1, 20, 200, 0, 0, 0, 90, 250, 1}, shuffled, shuffled, uint8(1), uint8(1))
	// The ramp again, sorted, under windows snapped to block bounds: an OR
	// of an AND (a window covering blocks 1..3 whole, a zero Expr, a window
	// on an unsorted column) with a window ending one short of a block's
	// maximum; then the same under an AND root with a membership leaf.
	f.Add(ramp, []byte{3, 1, 2, 2, 0, 0, 0, 3, 1, 4, 4, 0, 1, 0, 0, 2, 5, 3, 0, 0, 0, 1, 4, 3}, uint8(0), uint8(128+30), uint8(2), uint8(0))
	f.Add(ramp, []byte{2, 1, 0, 0, 0, 0, 2, 2, 4, 1, 0, 3, 4, 8, 200, 3, 1, 0, 0, 10, 200, 1, 0, 5}, uint8(1), uint8(128+77), uint8(3), uint8(1))
	// Plateaus: every 64-row block holds one value, so a membership leaf
	// naming it selects the block whole.
	var steps []byte
	for i := 0; i < 400; i++ {
		steps = binary.LittleEndian.AppendUint64(steps, uint64(i/64*13))
	}
	f.Add(steps, []byte{3, 1, 1, 0, 3, 8, 40, 12, 7, 0, 0, 30, 200, 4, 2, 1, 1, 4, 4, 0, 0, 0, 2, 4}, uint8(2), uint8(128+100), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data, tree []byte, codecA, codecB, codecC, blockSel uint8) {
		var valsA []int64
		for chunk := data; len(chunk) > 0; {
			var tail [8]byte
			n := copy(tail[:], chunk)
			valsA = append(valsA, int64(uint32(binary.LittleEndian.Uint64(tail[:]))))
			chunk = chunk[n:]
		}
		if len(valsA) == 0 {
			t.Skip()
		}
		if codecB&0x80 != 0 {
			slices.Sort(valsA)
		}
		ncols := 2 + int(blockSel)%2
		cols := make([][]int64, ncols)
		cols[0] = valsA
		for c := 1; c < ncols; c++ {
			cols[c] = make([]int64, len(valsA))
			for i := range cols[c] {
				j := (i*7 + c) % len(valsA)
				cols[c][i] = valsA[j]%97*int64(c+2) + int64(i%11)
			}
		}

		blockValues := 64 + int(blockSel)*97
		node := genNode(&fuzzByteReader{data: tree}, cols, blockValues, 0)
		checkExprScan(t, cols, blockValues, &node, [3]uint8{codecA, codecB, codecC})
	})
}

// checkExprScan holds every scan of tree node over cols — written with
// the codecs codecSel picks, at blockValues rows a block — to the scalar
// oracle: Run fresh and refined by a conjunction, RunAggregate, and then
// tree, Preds window (its upper bound column 0's value at row codecSel[1])
// and Cols projection together through the ColumnSet and through a
// three-segment zktable before and after Compact.
func checkExprScan(t *testing.T, cols [][]int64, blockValues int, node *fuzzNode, codecSel [3]uint8) {
	names := zukowski.Codecs()
	ncols := len(cols)
	crs := make([]*zukowski.ColumnReader[int64], ncols)
	for c := range crs {
		name := names[int(codecSel[c])%len(names)]
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			t.Skip()
		}
		if name == "pdict" && int(codecSel[c])/len(names)%2 == 1 {
			codec = shuffledPDict(cols[c], codecSel[c])
		}
		var buf bytes.Buffer
		cw, err := zukowski.NewColumnWriter[int64](&buf, codec, blockValues)
		if err != nil {
			t.Fatalf("NewColumnWriter: %v", err)
		}
		if err := cw.Write(cols[c]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := cw.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if crs[c], err = zukowski.OpenColumn[int64](buf.Bytes()); err != nil {
			t.Fatalf("OpenColumn: %v", err)
		}
	}
	cs, err := zukowski.NewColumnSet(crs...)
	if err != nil {
		t.Fatalf("NewColumnSet: %v", err)
	}

	expr := node.expr()

	var wantRows []int64
	wantVals := make([][]int64, ncols)
	for i := range cols[0] {
		if !node.eval(cols, i) {
			continue
		}
		wantRows = append(wantRows, int64(i))
		for c := range cols {
			wantVals[c] = append(wantVals[c], cols[c][i])
		}
	}

	var gotRows []int64
	gotVals := make([][]int64, ncols)
	err = cs.Run(t.Context(), zukowski.Query[int64]{Expr: expr}, func(_ int, r []int64, bc [][]int64) bool {
		gotRows = append(gotRows, r...)
		for c := range bc {
			gotVals[c] = append(gotVals[c], bc[c]...)
		}
		return true
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("Run disagrees with oracle: got %d rows, want %d", len(gotRows), len(wantRows))
	}
	for c := range gotVals {
		if !slices.Equal(gotVals[c], wantVals[c]) {
			t.Fatalf("Run column %d values disagree with oracle", c)
		}
	}

	// The refine path: the same expression under an all-covering pred —
	// which the zone maps decide, so the tree still evaluates fresh —
	// and under the upper half of the last, unsorted column, which most
	// blocks straddle, so the tree refines the conjunction's bitmap.
	last := cols[ncols-1]
	sortedLast := slices.Clone(last)
	slices.Sort(sortedLast)
	for _, p := range []zukowski.Pred[int64]{
		{Col: 0, Lo: slices.Min(cols[0]), Hi: slices.Max(cols[0])},
		{Col: ncols - 1, Lo: sortedLast[len(last)/2], Hi: sortedLast[len(last)-1]},
	} {
		var wantUnder []int64
		for _, r := range wantRows {
			if v := cols[p.Col][r]; v >= p.Lo && v <= p.Hi {
				wantUnder = append(wantUnder, r)
			}
		}
		gotRows = gotRows[:0]
		q := zukowski.Query[int64]{Preds: []zukowski.Pred[int64]{p}, Expr: expr}
		if err := cs.Run(t.Context(), q, func(_ int, r []int64, _ [][]int64) bool {
			gotRows = append(gotRows, r...)
			return true
		}); err != nil {
			t.Fatalf("Run (preds+expr): %v", err)
		}
		if !slices.Equal(gotRows, wantUnder) {
			t.Fatalf("Run refined by a pred on column %d disagrees with oracle: got %d rows, want %d", p.Col, len(gotRows), len(wantUnder))
		}
	}

	agg, err := cs.RunAggregate(t.Context(), zukowski.Query[int64]{Expr: expr}, ncols-1)
	if err != nil {
		t.Fatalf("RunAggregate: %v", err)
	}
	var want zukowski.Aggregate[int64]
	for _, v := range wantVals[ncols-1] {
		if want.Count == 0 {
			want.Min, want.Max = v, v
		} else {
			want.Min, want.Max = min(want.Min, v), max(want.Max, v)
		}
		want.Count++
		want.Sum += v
	}
	if agg != want {
		t.Fatalf("RunAggregate = %+v, want %+v", agg, want)
	}

	// Tree, Preds and Cols together, through every engine that speaks
	// Query. The window's upper bound is a fuzzed value of column 0.
	q := zukowski.Query[int64]{
		Expr:  expr,
		Preds: []zukowski.Pred[int64]{{Col: 0, Lo: slices.Min(cols[0]), Hi: cols[0][int(codecSel[1])%len(cols[0])]}},
		Cols:  []int{ncols - 1, 0},
	}
	wantRows, want = wantRows[:0], zukowski.Aggregate[int64]{}
	wantOut := make([][]int64, len(q.Cols))
	for i := range cols[0] {
		if cols[0][i] > q.Preds[0].Hi || !node.eval(cols, i) {
			continue
		}
		wantRows = append(wantRows, int64(i))
		for k, c := range q.Cols {
			wantOut[k] = append(wantOut[k], cols[c][i])
		}
		want.Merge(zukowski.Aggregate[int64]{Count: 1, Sum: cols[1][i], Min: cols[1][i], Max: cols[1][i]})
	}
	setPlans := checkQueryEngine(t, "ColumnSet", cs, q, cs.NumBlocks(), wantRows, wantOut, 1, want, cols, node)

	n := len(cols[0])
	if n < 3 {
		return
	}
	// Every commit fsyncs, which on a disk-backed temp dir costs the
	// fuzzer two orders of magnitude in exec rate; prefer RAM-backed
	// scratch where the platform has it.
	scratch := ""
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		scratch = "/dev/shm"
	}
	dir, err := os.MkdirTemp(scratch, "zkfuzz-*")
	if err != nil {
		t.Fatalf("MkdirTemp: %v", err)
	}
	defer os.RemoveAll(dir)
	colNames := []string{"a", "b", "c"}[:ncols]
	tb, err := zktable.Create[int64](filepath.Join(dir, "tbl"), colNames, blockValues,
		zktable.Options{Codec: names[int(codecSel[0])%len(names)]})
	if err != nil {
		t.Fatalf("zktable.Create: %v", err)
	}
	defer tb.Close()
	// The first cut falls on a block boundary where the table has one,
	// so Compact copies the frames in front of the second segment's
	// short last block and encodes the rest anew.
	c1 := n / 3
	if n > blockValues+1 {
		c1 = max(c1-c1%blockValues, blockValues)
	}
	c2 := c1 + (n-c1)/2
	blocks := 0
	for _, cut := range [][2]int{{0, c1}, {c1, c2}, {c2, n}} {
		seg := make([][]int64, ncols)
		for c := range seg {
			seg[c] = cols[c][cut[0]:cut[1]]
		}
		if _, err := tb.Append(seg); err != nil {
			t.Fatalf("Append: %v", err)
		}
		blocks += (cut[1] - cut[0] + blockValues - 1) / blockValues
	}
	checkQueryEngine(t, "3-segment table", tb, q, blocks, wantRows, wantOut, 1, want, cols, node)
	if _, err := tb.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Compacted, the table is the ColumnSet's blocks in one segment, and
	// plans exactly what the ColumnSet plans.
	if plans := checkQueryEngine(t, "compacted table", tb, q, cs.NumBlocks(), wantRows, wantOut, 1, want, cols, node); plans != setPlans {
		t.Fatalf("the compacted table planned %+v, the ColumnSet %+v", plans, setPlans)
	}
}
