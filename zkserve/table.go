package zkserve

import (
	"context"
	"fmt"
	"slices"

	"repro/zukowski"
)

// Query planning. A scanPlan is a validated request against one table:
// resolved output columns, resolved predicates in the wire (int64)
// domain, and a worker count. The table's backend binds it — once per
// request — to the typed engine that will run it: the plan becomes one
// zukowski.Query (the conjunction as Preds, any any_of disjunction as an
// expression tree, the outputs as Query.Cols), and the three response
// modes are the engine's own three entry points — Run for rows,
// RunAggregate for aggregates, Candidates for raw frames and for the
// prune statistics. The engine is a per-request zukowski.ColumnSet for a
// flat table and the zktable handle for a sharded one; the serving layer
// decides nothing about pruning or segment composition itself, it only
// translates between the wire and the typed domain.

// predSpec is one resolved conjunct in the wire domain.
type predSpec struct {
	col    int // index into the table's columns
	lo, hi int64
}

// scanPlan is a validated scan against one table.
type scanPlan struct {
	table   *Table
	out     []int // output column indices, in request order
	preds   []predSpec
	workers int

	// orGroups is the resolved any_of disjunction: a row must satisfy
	// every preds conjunct AND all conjuncts of at least one group. Empty
	// means no disjunction.
	orGroups [][]predSpec

	// skip makes the scan degraded: corrupt or quarantined blocks are
	// dropped and accounted in report instead of failing the request.
	skip   bool
	report *zukowski.ScanReport
}

// predCols returns the deduplicated predicate columns in
// first-appearance order.
func (p *scanPlan) predCols() []int {
	var cols []int
	add := func(specs []predSpec) {
		for _, ps := range specs {
			if !slices.Contains(cols, ps.col) {
				cols = append(cols, ps.col)
			}
		}
	}
	add(p.preds)
	for _, g := range p.orGroups {
		add(g)
	}
	return cols
}

// involved returns the deduplicated union of output and predicate
// columns, preserving first-appearance order (outputs first).
func (p *scanPlan) involved() []int {
	var inv []int
	for _, ci := range append(slices.Clone(p.out), p.predCols()...) {
		if !slices.Contains(inv, ci) {
			inv = append(inv, ci)
		}
	}
	return inv
}

// AggResult is an aggregate in the wire domain. Min and Max are only
// meaningful when Count > 0; Sum wraps in int64 like the engine's.
type AggResult struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// runner is a plan bound to the engine that executes it — the
// width-erased face of bound[T].
type runner interface {
	// rows executes row mode: emit receives, once per block with
	// surviving rows, the global row numbers and per requested output
	// column the widened values (vals[i][j] is output column i's value at
	// rows[j]). The slices are reused between calls. emit returning false
	// stops the scan cleanly (nil); context death returns ctx.Err().
	rows(ctx context.Context, emit func(rows []int64, vals [][]int64) bool) error
	// aggregate folds the plan's aggregate column over the selected rows.
	aggregate(ctx context.Context) (AggResult, error)
	// blocks executes frame mode: for every block the predicate's zone
	// maps cannot exclude, emit receives the global block index, its
	// first global row, its row count, and the raw (still compressed)
	// frame of every output column. The frames alias registry memory or a
	// fresh per-block read; emit must not modify them.
	blocks(ctx context.Context, emit func(b int, firstRow int64, count int, frames [][]byte) bool) error
	// stats walks directory metadata only: how many blocks the predicate
	// prunes, how many survive, and the raw (uncompressed) bytes of the
	// survivors across the columns the scan read — every output column,
	// and a predicate-only column where the engine says the block's zone
	// maps left a conjunct on it to evaluate. These are the denominators of
	// the bytes-scanned and prune-rate metrics. Blocks out of service are
	// neither.
	stats(ctx context.Context) (scanned, pruned int, rawBytes int64)
}

// engine is the scan surface a zukowski.ColumnSet and a zktable.Table
// share; everything below runs against either.
type engine[T zukowski.Integer] interface {
	Run(ctx context.Context, q zukowski.Query[T], fn func(block int, rows []int64, cols [][]T) bool) error
	RunAggregate(ctx context.Context, q zukowski.Query[T], col int) (zukowski.Aggregate[T], error)
	Candidates(ctx context.Context, q zukowski.Query[T], fn func(c zukowski.Candidate[T]) bool) (int, error)
}

// bound is the generic runner: one request's Query over one engine.
type bound[T zukowski.Integer] struct {
	eng  engine[T]
	q    zukowski.Query[T]
	agg  int // aggregate column, in the engine's column space
	nout int // output columns per frame-mode block

	// What one row of a candidate block costs in raw bytes: outBytes across
	// the output columns, read in every candidate; predOnly the columns
	// only the predicate names, read where the engine reports a conjunct
	// left to evaluate (zukowski.Candidate.Reads) — never in frame mode,
	// which ships blocks whole and evaluates nothing.
	outBytes int64
	predOnly []predCol

	// frame fetches output column i's raw frame of a candidate block:
	// from the readers the engine hands out when they hold every output
	// column (sharded), from the table's width-erased handles when the
	// outputs may be of other widths than the engine's set (flat).
	frame func(cols []*zukowski.ColumnReader[T], i, local int) ([]byte, error)
}

// predCol is a predicate-only column: its index in the engine's column
// space and its element width.
type predCol struct {
	idx   int
	width int64
}

// bindEngine translates p into eng's vocabulary. idx maps a table column index
// to the engine's column space and width gives its element width. Row and
// aggregate mode materialize through the engine, so their outputs become
// Query.Cols; frame mode ships frames and leaves Cols alone.
func bindEngine[T zukowski.Integer](p *scanPlan, eng engine[T], idx, width func(ci int) int, frames bool, aggCol int) *bound[T] {
	b := &bound[T]{eng: eng, nout: len(p.out)}
	b.q = zukowski.Query[T]{SkipCorrupt: p.skip, Report: p.report}
	for _, ci := range p.out {
		b.outBytes += int64(width(ci))
	}
	if !frames {
		for _, ci := range p.predCols() {
			if !slices.Contains(p.out, ci) {
				b.predOnly = append(b.predOnly, predCol{idx: idx(ci), width: int64(width(ci))})
			}
		}
	}
	if p.workers > 1 {
		b.q.Workers, b.q.InOrder = p.workers, true
	}
	if !frames {
		b.q.Cols = make([]int, len(p.out))
		for i, ci := range p.out {
			b.q.Cols[i] = idx(ci)
		}
	}
	if aggCol >= 0 {
		b.agg = idx(aggCol)
	}
	for _, ps := range p.preds {
		tlo, thi, ok := clampRange[T](ps.lo, ps.hi)
		if !ok {
			// No image in T's domain: the engine's trivially empty
			// conjunct, which selects no row and prunes every block.
			tlo, thi = 1, 0
		}
		b.q.Preds = append(b.q.Preds, zukowski.Pred[T]{Col: idx(ps.col), Lo: tlo, Hi: thi})
	}
	if len(p.orGroups) == 0 {
		return b
	}
	// An alternative with an unrepresentable conjunct can never hold and
	// is dropped; the others still apply. Or() of nothing selects nothing.
	var branches []zukowski.Expr[T]
	for _, g := range p.orGroups {
		var branch []zukowski.Expr[T]
		for _, ps := range g {
			tlo, thi, ok := clampRange[T](ps.lo, ps.hi)
			if !ok {
				branch = nil
				break
			}
			branch = append(branch, zukowski.Range[T](idx(ps.col), tlo, thi))
		}
		switch len(branch) {
		case 0:
		case 1:
			branches = append(branches, branch[0])
		default:
			branches = append(branches, zukowski.And(branch...))
		}
	}
	b.q.Expr = zukowski.Or(branches...)
	return b
}

func (b *bound[T]) rows(ctx context.Context, emit func(rows []int64, vals [][]int64) bool) error {
	widened := make([][]int64, len(b.q.Cols))
	return b.eng.Run(ctx, b.q, func(_ int, rows []int64, cols [][]T) bool {
		for i := range cols {
			w := widened[i][:0]
			for _, v := range cols[i] {
				w = append(w, int64(v))
			}
			widened[i] = w
		}
		return emit(rows, widened)
	})
}

func (b *bound[T]) aggregate(ctx context.Context) (AggResult, error) {
	agg, err := b.eng.RunAggregate(ctx, b.q, b.agg)
	if err != nil {
		return AggResult{}, err
	}
	return AggResult{Count: agg.Count, Sum: agg.Sum, Min: int64(agg.Min), Max: int64(agg.Max)}, nil
}

func (b *bound[T]) blocks(ctx context.Context, emit func(blk int, firstRow int64, count int, frames [][]byte) bool) error {
	frames := make([][]byte, b.nout)
	var fetchErr error
	_, err := b.eng.Candidates(ctx, b.q, func(c zukowski.Candidate[T]) bool {
		for i := range frames {
			if frames[i], fetchErr = b.frame(c.Cols, i, c.Local); fetchErr != nil {
				// Degraded mode drops the whole block (all columns) when any
				// column's frame is a data fault; other failures propagate.
				if b.q.SkipCorrupt && zukowski.IsDataFault(fetchErr) {
					b.q.Report.Record(c.Rows, fetchErr)
					fetchErr = nil
					return true
				}
				return false
			}
		}
		return emit(c.Block, c.FirstRow, c.Rows, frames)
	})
	if fetchErr != nil {
		return fetchErr
	}
	return err
}

func (b *bound[T]) stats(ctx context.Context) (scanned, pruned int, rawBytes int64) {
	// The dry run must neither fail on nor re-record what the scan itself
	// already skipped and accounted.
	q := b.q
	q.SkipCorrupt, q.Report = true, nil
	pruned, _ = b.eng.Candidates(ctx, q, func(c zukowski.Candidate[T]) bool {
		scanned++
		rowBytes := b.outBytes
		for _, pc := range b.predOnly {
			if c.Reads[pc.idx] {
				rowBytes += pc.width
			}
		}
		rawBytes += int64(c.Rows) * rowBytes
		return true
	})
	return scanned, pruned, rawBytes
}

// flatTable is the backend of a table registered column by column: one
// container per column, validated individually, so whether a particular
// subset can be scanned together is checked per request.
type flatTable struct {
	cols []colHandle
}

func (f *flatTable) colWidth(i int) int { return f.cols[i].widthBytes() }

func (f *flatTable) setCache(c zukowski.BlockCache) {
	for _, h := range f.cols {
		h.setCache(c)
	}
}

func (f *flatTable) fillMeta(m *TableMeta) {
	if len(f.cols) > 0 {
		m.Rows = f.cols[0].rows()
	}
	for _, h := range f.cols {
		m.Columns = append(m.Columns, h.meta())
	}
}

// checkGeometry verifies the involved columns agree on rows and block
// boundaries — the invariant that lets one block's selection bitmap (or
// one block index, in frame mode) apply across all of them.
func (f *flatTable) checkGeometry(involved []int) error {
	first := f.cols[involved[0]]
	for _, ci := range involved[1:] {
		c := f.cols[ci]
		if c.rows() != first.rows() {
			return fmt.Errorf("%w: column %q holds %d rows, column %q holds %d",
				ErrMismatch, first.colName(), first.rows(), c.colName(), c.rows())
		}
		if c.numBlocks() != first.numBlocks() {
			return fmt.Errorf("%w: column %q has %d blocks, column %q has %d",
				ErrMismatch, first.colName(), first.numBlocks(), c.colName(), c.numBlocks())
		}
		for b := 0; b < c.numBlocks(); b++ {
			if c.blockCount(b) != first.blockCount(b) {
				return fmt.Errorf("%w: block %d holds %d rows in column %q but %d in column %q",
					ErrMismatch, b, c.blockCount(b), c.colName(), first.blockCount(b), first.colName())
			}
		}
	}
	return nil
}

// bind runs every check that must pass before the response header is
// committed (mapped to 422 by the HTTP layer) and assembles the
// per-request ColumnSet: geometry agreement across every involved
// column, and one element width across the columns that flow through the
// typed set — all of them in row and aggregate mode, the predicate
// columns in frame mode, whose output frames ship side by side whatever
// their widths.
func (f *flatTable) bind(p *scanPlan, frames bool, aggCol int) (runner, error) {
	involved := p.involved()
	if err := f.checkGeometry(involved); err != nil {
		return nil, err
	}
	set := involved
	if frames {
		if set = p.predCols(); len(set) == 0 {
			set = involved[:1]
		}
	}
	w := f.cols[set[0]].widthBytes()
	for _, ci := range set[1:] {
		if cw := f.cols[ci].widthBytes(); cw != w {
			return nil, fmt.Errorf("%w: column %q is %d bytes wide, column %q is %d (columns evaluated or materialized together need one width; only frame-mode outputs may mix)",
				ErrMismatch, f.cols[set[0]].colName(), w, f.cols[ci].colName(), cw)
		}
	}
	switch w {
	case 1:
		return bindFlat[int8](f, p, set, frames, aggCol)
	case 2:
		return bindFlat[int16](f, p, set, frames, aggCol)
	case 4:
		return bindFlat[int32](f, p, set, frames, aggCol)
	default:
		return bindFlat[int64](f, p, set, frames, aggCol)
	}
}

func bindFlat[T zukowski.Integer](f *flatTable, p *scanPlan, set []int, frames bool, aggCol int) (runner, error) {
	readers := make([]*zukowski.ColumnReader[T], len(set))
	setIdx := make(map[int]int, len(set))
	for i, ci := range set {
		readers[i] = f.cols[ci].reader().(*zukowski.ColumnReader[T])
		setIdx[ci] = i
	}
	cs, err := zukowski.NewColumnSet(readers...)
	if err != nil {
		return nil, err
	}
	b := bindEngine[T](p, cs, func(ci int) int { return setIdx[ci] }, f.colWidth, frames, aggCol)
	b.frame = func(_ []*zukowski.ColumnReader[T], i, local int) ([]byte, error) {
		return f.cols[p.out[i]].frameBytes(local)
	}
	return b, nil
}
