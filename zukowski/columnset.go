package zukowski

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/core"
)

// Multi-predicate selection-vector composition: the selection the paper's
// RAM-CPU pipeline runs on compressed vectors. A ColumnSet groups columns
// that share block geometry (same rows, same block boundaries — the
// layout one ColumnWriter configuration produces for every column of a
// table), so a selection bitmap computed over one column's block applies
// row-for-row to every other column's same-numbered block. Run evaluates
// a Query's predicate tree (see Expr) one bitmap step at a time: inside a
// conjunction the most selective child (estimated per block from the zone
// maps) builds the block's bitmap with DecompressMask, each further child
// narrows it with RefineMask — skipping 128-row groups the running bitmap
// has already emptied, without extracting a single code — and only the
// rows that survive are materialized, from each column, by
// DecompressSelected. A predicate a block's zone map already decides is
// not evaluated at all — its column is not even fetched — and a block
// every row of which is selected is decoded whole. Where few rows of a
// 128-value group survive, nothing the predicate rejects is decoded into
// a value; where many do, the group is decoded whole and the survivors
// compacted out of it, which is cheaper than picking them one by one
// (core.DecompressSelected).

// Pred is one conjunct of Query.Preds: the inclusive value range
// [Lo, Hi] over column Col of a ColumnSet, exactly Range(Col, Lo, Hi). A
// Pred with Lo > Hi selects nothing (and therefore empties the whole
// conjunction).
type Pred[T Integer] struct {
	Col    int
	Lo, Hi T
}

// ColumnSet scans several same-geometry columns as one unit, composing
// per-column selection bitmaps before any row is materialized. A
// ColumnSet is safe for concurrent use whenever its ColumnReaders are;
// scan scratch lives in an internal pool, one state per running scan (or
// per worker, for the parallel form).
type ColumnSet[T Integer] struct {
	cols   []*ColumnReader[T]
	states sync.Pool
}

// NewColumnSet groups columns for conjunctive scans. Every column must
// hold the same number of rows split at the same block boundaries;
// anything else returns ErrColumnSetMismatch — a bitmap composed over
// mismatched blocks would silently pair values of different rows.
func NewColumnSet[T Integer](cols ...*ColumnReader[T]) (*ColumnSet[T], error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: a column set needs at least one column", ErrColumnSetMismatch)
	}
	first := cols[0]
	for i, cr := range cols[1:] {
		if cr.Len() != first.Len() {
			return nil, fmt.Errorf("%w: column 0 holds %d rows, column %d holds %d",
				ErrColumnSetMismatch, first.Len(), i+1, cr.Len())
		}
		if cr.NumBlocks() != first.NumBlocks() {
			return nil, fmt.Errorf("%w: column 0 has %d blocks, column %d has %d",
				ErrColumnSetMismatch, first.NumBlocks(), i+1, cr.NumBlocks())
		}
		for b := range cr.blocks {
			if cr.blocks[b].count != first.blocks[b].count {
				return nil, fmt.Errorf("%w: block %d holds %d rows in column %d but %d in column 0",
					ErrColumnSetMismatch, b, cr.blocks[b].count, i+1, first.blocks[b].count)
			}
		}
	}
	return &ColumnSet[T]{cols: cols}, nil
}

// Columns returns the number of columns in the set.
func (cs *ColumnSet[T]) Columns() int { return len(cs.cols) }

// Column returns column i's reader.
func (cs *ColumnSet[T]) Column(i int) *ColumnReader[T] { return cs.cols[i] }

// Len returns the number of rows (shared by every column).
func (cs *ColumnSet[T]) Len() int { return cs.cols[0].Len() }

// NumBlocks returns the number of blocks (shared by every column).
func (cs *ColumnSet[T]) NumBlocks() int { return cs.cols[0].NumBlocks() }

// setColState is one column's share of a scan state: the column's decode
// scratch and run plus a memo of what has already been computed for the
// block the scan is currently evaluating, so a column whose block was
// parsed for predicate masking is not re-parsed for materialization.
type setColState[T Integer] struct {
	decodeState[T]
	// cur is the parsed block in use: blk, the scratch the frame was
	// parsed into, or a kept form — resident in the cache beside its
	// frame, or in an in-memory reader's slot — which every scan shares
	// and none may write.
	cur  *core.Block[T]
	gath []T   // materialized output buffer of this column
	form uint8 // what the state holds for the current block
}

const (
	colNone uint8 = iota // nothing prepared for this block yet
	colSeg               // cur is the parsed patched segment
	colVals              // vals holds the fully decoded raw block
)

// setState is the per-scan (per-worker) scratch of a ColumnSet scan.
type setState[T Integer] struct {
	cols []setColState[T]
	sv   core.SelectionVector
	rows []int64
	out  [][]T // out[i] aliases cols[i].gath after materialization

	// kids holds the children of the AND node Query.Preds folds into (see
	// foldPreds), reused across scans.
	kids []Expr[T]

	// svPool holds scratch selection vectors for nested expression
	// subtrees (see pushSV), one per active depth, reused across blocks.
	svPool  []*core.SelectionVector
	svDepth int

	// ord and est hold evalAnd's ordering scratch, one pair per active AND
	// depth (see pushOrder), reused across blocks.
	ord      [][]int
	est      [][]float64
	ordDepth int

	// codes is the per-block dictionary-code scratch of GroupAggregate's
	// code-space path, one slice per group column.
	codes [][]int32

	// plan is the scan's block plan (see planScan), and at the entry the
	// sequential walk is evaluating. A worker of the parallel form plans
	// nothing: its plan is empty, so its runs read one frame each.
	plan blockPlan
	at   int
}

func (cs *ColumnSet[T]) getState() *setState[T] {
	if st, ok := cs.states.Get().(*setState[T]); ok {
		return st
	}
	return &setState[T]{
		cols: make([]setColState[T], len(cs.cols)),
		out:  make([][]T, len(cs.cols)),
	}
}

// putState returns st to the pool. It hands the state's run buffers back
// to the shared pool, forgets its plan and lets go of the parsed blocks
// the state last used and of the predicate it folded, so a pooled state
// pins no block the cache has evicted, no caller's tree, and plans nothing
// for its next scan.
func (cs *ColumnSet[T]) putState(st *setState[T]) {
	for i := range st.cols {
		st.cols[i].cur = nil
		st.cols[i].run.release()
	}
	st.plan.entries = st.plan.entries[:0]
	clear(st.kids)
	st.kids = st.kids[:0]
	cs.states.Put(st)
}

// blockPlan is one scan's answer to "which blocks, with which verdict,
// reading which columns", built once from the zone maps before any frame
// is read (planScan) and walked by every executor of the scan: the
// sequential loop (visitBlocks), Run's workers, Candidates and the
// sequential read-ahead (ColumnReader.frame).
type blockPlan struct {
	entries []planEntry // the blocks no zone map rules out, ascending
	reads   []bool      // reads[i*ncols+c]: entry i fetches column c
	ncols   int
	pruned  int   // blocks the zone maps rule out
	rows    int64 // rows of the planned blocks
	values  int64 // rows × columns fetched, summed over the entries
}

// planEntry is one planned block.
type planEntry struct {
	block   int
	first   int64   // the block's first row
	rows    int     // rows in the block
	verdict verdict // verdictSome or verdictAll
}

// colReads returns which columns entry i fetches, indexed by column.
func (p *blockPlan) colReads(i int) []bool { return p.reads[i*p.ncols : (i+1)*p.ncols] }

// planScan folds q.Preds into q.Expr (foldPreds), validates q and plans
// its scan into st.plan: every block whose verdict is not none, with the
// columns the scan fetches there — those markReads names for the
// predicate and the materialized columns mat (nil: every column). It is
// the one place a scan asks the zone maps; the plan's totals go to
// q.Report, once per scan. q is the scan's own copy, and every executor
// after planScan sees only its tree.
func (cs *ColumnSet[T]) planScan(st *setState[T], q *Query[T], mat []int) error {
	st.foldPreds(q)
	if err := cs.checkQuery(q); err != nil {
		return err
	}
	first := cs.cols[0]
	nb, nc := len(first.blocks), len(cs.cols)
	p := &st.plan
	if cap(p.reads) < nb*nc {
		p.reads = make([]bool, nb*nc)
	}
	p.entries, p.reads, p.ncols = p.entries[:0], p.reads[:nb*nc], nc
	p.pruned, p.rows, p.values = 0, 0, 0
	for b := range first.blocks {
		v := cs.verdict(&q.Expr, b)
		if v == verdictNone {
			p.pruned++
			continue
		}
		e := planEntry{block: b, first: int64(first.starts[b]), rows: int(first.blocks[b].count), verdict: v}
		reads := p.colReads(len(p.entries))
		clear(reads)
		cs.markReads(&q.Expr, b, reads)
		if mat == nil {
			for c := range reads {
				reads[c] = true
			}
		}
		for _, c := range mat {
			reads[c] = true
		}
		for _, r := range reads {
			if r {
				p.values += int64(e.rows)
			}
		}
		p.rows += int64(e.rows)
		p.entries = append(p.entries, e)
	}
	q.Report.addPlan(p)
	return nil
}

// block returns column ci's block b for the scan st, parsed or raw (see
// ColumnReader.block), through the column's run: it reads ahead the
// column's next frames that st's plan reads, and none when st plans
// nothing.
func (cs *ColumnSet[T]) block(st *setState[T], ci, b int) (*core.Block[T], []byte, error) {
	cst := &st.cols[ci]
	return cs.cols[ci].block(&cst.run, b, planned{&st.plan, st.at, ci}, &cst.blk)
}

// planned is column col's view of a plan from entry at on, for the
// column's read-ahead.
type planned struct {
	p       *blockPlan
	at, col int
}

// has reports whether the scan fetches the column's block k, for k at or
// after entry at's block: never for a zero planned or an empty plan.
// Entries ascend without repeats, so block k can only be entry at+(k-block)
// — and is exactly when every block between them is planned too.
func (v planned) has(k int) bool {
	if v.p == nil || v.at >= len(v.p.entries) {
		return false
	}
	j := v.at + k - v.p.entries[v.at].block
	return j < len(v.p.entries) && v.p.entries[j].block == k && v.p.reads[j*v.p.ncols+v.col]
}

// begin invalidates the per-block memos before evaluating a new block.
func (st *setState[T]) begin() {
	for i := range st.cols {
		st.cols[i].form = colNone
	}
}

// prepare fetches column ci's block b into the scan state st, memoized
// per block iteration: patched frames are parsed once (sections only,
// nothing decoded) — or not at all, when the reader keeps the block's
// parsed form (see ColumnReader.block) — and raw frames are decoded once
// into st.vals. It reports whether the block is patched-compressed, i.e.
// whether the compressed-domain mask kernels apply.
func (cs *ColumnSet[T]) prepare(scan *setState[T], ci, b int) (patched bool, err error) {
	st := &scan.cols[ci]
	switch st.form {
	case colSeg:
		return true, nil
	case colVals:
		return false, nil
	}
	blk, frame, err := cs.block(scan, ci, b)
	if err != nil {
		return false, err
	}
	if blk != nil {
		st.cur = blk
		st.form = colSeg
		return true, nil
	}
	dec, err := rawAppend[T](st.vals[:0], frame)
	if err != nil {
		return false, fmt.Errorf("block %d: %w", b, err)
	}
	st.vals = dec
	st.form = colVals
	return false, nil
}

func b2u32(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

// maskCol evaluates [lo, hi] over column ci's block b into sv: a fresh
// bitmap (maskFresh), an intersection with the running bitmap
// (maskRefine), or a union into it (maskUnion). Patched frames stay in
// the compressed code domain; raw frames compare decoded values (fetched
// once per block thanks to the prepare memo).
func (cs *ColumnSet[T]) maskCol(scan *setState[T], ci, b int, lo, hi T, sv *core.SelectionVector, mode uint8) error {
	patched, err := cs.prepare(scan, ci, b)
	if err != nil {
		return err
	}
	st := &scan.cols[ci]
	if patched {
		switch mode {
		case maskRefine:
			st.dec.RefineMask(st.cur, lo, hi, sv)
		case maskUnion:
			st.dec.UnionMask(st.cur, lo, hi, sv)
		default:
			st.dec.DecompressMask(st.cur, lo, hi, sv)
		}
		return nil
	}
	vals := st.vals
	switch mode {
	case maskRefine:
		words := sv.Words()
		for w, m := range words {
			if m == 0 {
				continue
			}
			vb := w << 5
			lim := min(32, len(vals)-vb)
			var match uint32
			for j := 0; j < lim; j++ {
				v := vals[vb+j]
				match |= b2u32(v >= lo && v <= hi) << j
			}
			words[w] = m & match
		}
	case maskUnion:
		if lo > hi {
			return nil
		}
		words := sv.Words()
		for w := range words {
			vb := w << 5
			lim := min(32, len(vals)-vb)
			var m uint32
			for j := 0; j < lim; j++ {
				v := vals[vb+j]
				m |= b2u32(v >= lo && v <= hi) << j
			}
			words[w] |= m
		}
	default:
		sv.Reset(len(vals))
		words := sv.Words()
		for w := range words {
			vb := w << 5
			lim := min(32, len(vals)-vb)
			var m uint32
			for j := 0; j < lim; j++ {
				v := vals[vb+j]
				m |= b2u32(v >= lo && v <= hi) << j
			}
			words[w] = m
		}
	}
	return nil
}

// gatherCol materializes column ci's values at the rows block b's bitmap
// (st.sv) selects, into the column's reusable buffer, behind the
// crafted-frame panic guard.
func (cs *ColumnSet[T]) gatherCol(st *setState[T], b, ci int) (out []T, err error) {
	defer guardSegment(&err)
	patched, err := cs.prepare(st, ci, b)
	if err != nil {
		return nil, err
	}
	cst := &st.cols[ci]
	if patched {
		cst.gath = cst.dec.DecompressSelected(cst.cur, &st.sv, cst.gath[:0])
		return cst.gath, nil
	}
	out = cst.gath[:0]
	vals := cst.vals
	for w, m := range st.sv.Words() {
		vb := w << 5
		for ; m != 0; m &= m - 1 {
			out = append(out, vals[vb+bits.TrailingZeros32(m)])
		}
	}
	cst.gath = out
	return out, nil
}

// blockMask composes planned block e's bitmap for q into st.sv and
// reports whether any row survives. A block the plan's verdict selects
// whole costs one Fill; otherwise q's tree is evaluated, the conjuncts and
// subtrees the block's zone maps decide skipped (see evalSome).
func (cs *ColumnSet[T]) blockMask(st *setState[T], e planEntry, q *Query[T]) (any bool, err error) {
	defer guardSegment(&err)
	st.begin()
	if e.verdict == verdictAll {
		st.sv.Fill(e.rows)
	} else if err := cs.evalSome(st, &q.Expr, e.block, e.rows, &st.sv, maskFresh); err != nil {
		return false, err
	}
	return st.sv.Any(), nil
}

// gatherBlock turns block b's composed bitmap (st.sv) into q's output:
// global row numbers and the requested columns' values at those rows (all
// columns when q.Cols is nil).
func (cs *ColumnSet[T]) gatherBlock(st *setState[T], b int, q *Query[T]) (rows []int64, out [][]T, err error) {
	st.rows = st.sv.AppendRows(st.rows[:0], int64(cs.cols[0].starts[b]))
	if q.Cols == nil {
		for ci := range cs.cols {
			vals, err := cs.gatherCol(st, b, ci)
			if err != nil {
				return nil, nil, err
			}
			st.out[ci] = vals
		}
		return st.rows, st.out, nil
	}
	out = st.out[:len(q.Cols)]
	for i, ci := range q.Cols {
		vals, err := cs.gatherCol(st, b, ci)
		if err != nil {
			return nil, nil, err
		}
		out[i] = vals
	}
	return st.rows, out, nil
}

// visitBlocks is the engine's one sequential block loop; every sequential
// scan — Run, RunAggregate, GroupAggregate and JoinOn — is a visit function
// under it, and mat names the columns its visit materializes on a block
// with surviving rows (nil: every column). It holds one pooled state for
// the whole pass, plans the pass into it (planScan) and walks the plan:
// per planned block it consults ctx (the natural preemption point: one
// block is one bounded quantum of decode work; context.Background() never
// fires and costs one predictable branch), composes q's bitmap into st.sv
// and, when a row survives, calls visit to materialize what it needs from
// st. Over file-backed columns a missed frame is fetched with the run of
// adjacent frames the plan reads next. visit returning false stops the
// scan; an error from the bitmap or the visit is skipped and accounted
// when q runs degraded and it is a fault of the data, and ends the scan
// otherwise. visit runs outside any panic guard: a panic in caller code
// reaches the caller.
func (cs *ColumnSet[T]) visitBlocks(ctx context.Context, q *Query[T], mat []int, visit func(st *setState[T], b int) (more bool, err error)) error {
	st := cs.getState()
	defer cs.putState(st)
	if err := cs.planScan(st, q, mat); err != nil {
		return err
	}
	for i, e := range st.plan.entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.at = i
		more := true
		any, err := cs.blockMask(st, e, q)
		if err == nil && any {
			more, err = visit(st, e.block)
		}
		if err != nil {
			if q.skipBlock(e.rows, err) {
				continue
			}
			return err
		}
		if !more {
			return nil
		}
	}
	return nil
}

// runSeq is Run's sequential form.
func (cs *ColumnSet[T]) runSeq(ctx context.Context, q *Query[T], fn func(block int, rows []int64, cols [][]T) bool) error {
	return cs.visitBlocks(ctx, q, q.Cols, func(st *setState[T], b int) (bool, error) {
		rows, out, err := cs.gatherBlock(st, b, q)
		if err != nil {
			return true, err
		}
		return fn(b, rows, out), nil
	})
}

// foldValues aggregates one block's materialized survivors: a sum pass and
// a min/max pass, neither carrying a first-value branch per element.
func foldValues[T Integer](vals []T) Aggregate[T] {
	if len(vals) == 0 {
		return Aggregate[T]{}
	}
	var sum int64
	for _, v := range vals {
		sum += int64(v)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return Aggregate[T]{Count: int64(len(vals)), Sum: sum, Min: lo, Max: hi}
}

// selectedCodes is DecompressSelectedCodes over the PDICT block cst holds,
// behind the crafted-frame panic guard.
func selectedCodes[T Integer](cst *setColState[T], sv *core.SelectionVector, dst []int32) (codes []int32, err error) {
	defer guardSegment(&err)
	return cst.dec.DecompressSelectedCodes(cst.cur, sv, dst), nil
}
