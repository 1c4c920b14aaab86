package zukowski

import (
	"context"
	"fmt"
)

// Query is the one way a scan is expressed, at every layer: what to
// filter on, what to materialize, and how to run. ColumnSet executes it
// over one set of columns, zktable.Table over every segment of a table
// with global row and block numbering, and zkserve translates each wire
// request into one.
//
// The zero Query selects every row of every column, sequentially, with
// the fail-stop error contract.
type Query[T Integer] struct {
	// Expr filters rows with a predicate tree built from And, Or, Range
	// and In, evaluated in the compressed code domain with zone-map
	// pruning of whole AND-branches. The zero Expr selects every row.
	Expr Expr[T]

	// Preds is shorthand for a conjunction of ranges: a scan runs
	// And(Range(p.Col, p.Lo, p.Hi)…, Expr), and nothing else sees Preds.
	// An empty Preds with a zero Expr selects every row.
	Preds []Pred[T]

	// Cols names the columns to materialize, by set index, in the order
	// given: fn's cols[i] holds column Cols[i]. nil materializes every
	// column of the set (cols[i] is set column i). Columns only used by
	// predicates need not appear — filtering never materializes them.
	Cols []int

	// Workers sets Run's block-level parallelism: up to Workers
	// goroutines evaluate blocks at once. Values below 2 run the scan
	// sequentially on the calling goroutine. RunAggregate, Candidates,
	// GroupAggregate and JoinOn are sequential and ignore it.
	Workers int

	// SkipCorrupt runs the scan degraded: block-level data faults are
	// skipped — and accounted in Report when non-nil — instead of
	// failing the scan (see ScanReport). Every scan that takes a Query
	// honours it.
	SkipCorrupt bool

	// Report receives what the scan planned and, when SkipCorrupt is set,
	// what it skipped (see ScanReport). May be nil to account nothing.
	Report *ScanReport
}

// foldPreds rewrites q — the scan's own copy — into its one tree form,
// And(Range(p.Col, p.Lo, p.Hi)…, q.Expr), and clears q.Preds. The AND
// node's children live in st's pooled scratch, so a warmed scan folds
// without allocating; they stay valid until st goes back to the pool.
func (st *setState[T]) foldPreds(q *Query[T]) {
	if len(q.Preds) == 0 {
		return
	}
	kids := st.kids[:0]
	for _, p := range q.Preds {
		kids = append(kids, Range(p.Col, p.Lo, p.Hi))
	}
	if !q.Expr.isZero() {
		kids = append(kids, q.Expr)
	}
	st.kids = kids
	q.Expr, q.Preds = And(kids...), nil
}

// checkQuery validates every column reference in q.
func (cs *ColumnSet[T]) checkQuery(q *Query[T]) error {
	if err := q.Expr.check(len(cs.cols)); err != nil {
		return err
	}
	for _, ci := range q.Cols {
		if ci < 0 || ci >= len(cs.cols) {
			return fmt.Errorf("%w: output column %d not in [0,%d)",
				ErrIndexOutOfRange, ci, len(cs.cols))
		}
	}
	return nil
}

// Run executes q, invoking fn once per block with at least one surviving
// row: the global row numbers and, per requested column, the values of
// those rows. The slices are reused between calls; fn must copy what it
// keeps. fn returning false stops the scan early (still returning nil).
//
// Blocks are delivered in ascending order, one call at a time, whatever
// Workers is. Sequential runs (Workers < 2) consult ctx once per block,
// returning ctx.Err() before starting another; a warmed sequential Run
// performs no heap allocation of its own — the scan holds one pooled
// state (per-column decode scratch, the bitmap, the output buffers) for
// its whole pass. fn escapes, so a closure that captures variables costs
// one allocation where it is built. Parallel runs stop claiming blocks
// once ctx is done, and in-flight blocks are discarded undelivered. A
// panic in fn reaches the caller either way.
func (cs *ColumnSet[T]) Run(ctx context.Context, q Query[T], fn func(block int, rows []int64, cols [][]T) bool) error {
	if q.Workers > 1 {
		// The worker closures outlive this frame's escape analysis; a
		// copy made only on this branch keeps the sequential path's q on
		// the stack, and with it the zero-allocation contract.
		pq := q
		return cs.runParallel(ctx, &pq, fn)
	}
	return cs.runSeq(ctx, &q, fn)
}

// RunAggregate computes Count, Sum, Min and Max over column col's values
// at the rows q selects, without materializing any other column. The
// bitmap composes exactly as in Run; q.Cols is ignored, and so is
// q.Workers: the fold is one sequential pass on the calling
// goroutine, consulting ctx once per block. A warmed RunAggregate performs
// no heap allocation.
func (cs *ColumnSet[T]) RunAggregate(ctx context.Context, q Query[T], col int) (Aggregate[T], error) {
	var agg Aggregate[T]
	if col < 0 || col >= len(cs.cols) {
		return agg, fmt.Errorf("%w: aggregate column %d not in [0,%d)", ErrIndexOutOfRange, col, len(cs.cols))
	}
	mat := [1]int{col}
	err := cs.visitBlocks(ctx, &q, mat[:], func(st *setState[T], b int) (bool, error) {
		vals, err := cs.gatherCol(st, b, col)
		if err != nil {
			return true, err
		}
		agg.Merge(foldValues(vals))
		return true, nil
	})
	if err != nil {
		return Aggregate[T]{}, err
	}
	return agg, nil
}

// Aggregate is the result of RunAggregate. Sum is the two's-complement
// (wrapping) sum of int64(v) over the selected values; Min and Max are
// only meaningful when Count > 0.
type Aggregate[T Integer] struct {
	Count int64
	Sum   int64
	Min   T
	Max   T
}

// Merge folds b — another block's, segment's or shard's aggregate over
// disjoint rows — into a. Min and Max fold only when b matched rows.
func (a *Aggregate[T]) Merge(b Aggregate[T]) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		a.Min, a.Max = b.Min, b.Max
	} else {
		a.Min, a.Max = min(a.Min, b.Min), max(a.Max, b.Max)
	}
	a.Count += b.Count
	a.Sum += b.Sum
}

// Candidate is one block of a Candidates walk: a block the zone maps
// cannot exclude, and what running the query over it would read.
type Candidate[T Integer] struct {
	// Block is the block's index in the engine's numbering and Local its
	// index within Cols — for a ColumnSet the same number; a multi-segment
	// table numbers Block globally and Local within the segment.
	Block, Local int
	FirstRow     int64 // the block's first row, in the engine's numbering
	Rows         int   // rows in the block
	// Cols are the readers holding the block, in set order — enough to
	// ship its frames (ColumnReader.FrameBytes(Local)) without decoding.
	Cols []*ColumnReader[T]
	// Reads[i] reports whether evaluating the predicate over this block
	// fetches column i: false for a column the predicate does not mention
	// and for one whose every conjunct the block's zone maps already decide
	// (every row matches, or the branch holding it cannot). A run reads
	// these columns and the ones it materializes, no others. The slice is
	// reused between calls.
	Reads []bool
}

// Candidates is the dry run of q: it walks the blocks q's zone-map
// analysis cannot exclude — exactly the blocks Run would evaluate —
// reading directory metadata only, and returns how many blocks were
// pruned. It plans the scan as Run does, materializing nothing, and
// records the plan in q.Report. fn returning false stops the walk; ctx is
// consulted once per candidate.
func (cs *ColumnSet[T]) Candidates(ctx context.Context, q Query[T], fn func(c Candidate[T]) bool) (pruned int, err error) {
	st := cs.getState()
	defer cs.putState(st)
	if err := cs.planScan(st, &q, []int{}); err != nil {
		return 0, err
	}
	c := Candidate[T]{Cols: cs.cols, Reads: make([]bool, len(cs.cols))}
	for i, e := range st.plan.entries {
		if err := ctx.Err(); err != nil {
			return st.plan.pruned, err
		}
		copy(c.Reads, st.plan.colReads(i))
		c.Block, c.Local, c.FirstRow, c.Rows = e.block, e.block, e.first, e.rows
		if !fn(c) {
			break
		}
	}
	return st.plan.pruned, nil
}

// Project materializes the named columns at every row expr selects, in
// one pass: rows holds the global row numbers, vals[i] the values of
// column cols[i] at those rows. No cols materializes every column. The
// returned slices are freshly built and owned by the caller — Project is
// the collecting form of Run for result-set-sized outputs.
func (cs *ColumnSet[T]) Project(expr Expr[T], cols ...int) (rows []int64, vals [][]T, err error) {
	q := Query[T]{Expr: expr, Cols: cols}
	n := len(cols)
	if cols == nil {
		n = len(cs.cols)
	}
	vals = make([][]T, n)
	err = cs.Run(context.Background(), q, func(_ int, r []int64, c [][]T) bool {
		rows = append(rows, r...)
		for i := range c {
			vals[i] = append(vals[i], c[i]...)
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, vals, nil
}
