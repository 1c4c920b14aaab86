package zkserve

import (
	"context"

	"repro/zktable"
	"repro/zukowski"
)

// Query planning. A scanPlan is a validated request against one table:
// resolved output columns, resolved predicates in the wire (int64)
// domain, and a worker count. The table's backend binds it — once per
// request — to the typed zktable handle that will run it: the plan
// becomes one zukowski.Query (the predicate as one expression tree,
// And(Range…, Or(branches…)), the outputs as Query.Cols), and the
// three response modes are the table's own three entry points — Run for
// rows, RunAggregate for aggregates, Candidates for raw frames. The prune
// statistics are the block plans the engine records in the plan's report
// as the scan runs. The serving layer decides nothing about pruning or
// segment composition itself, it only translates between the wire and
// the typed domain.

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
	skip bool
	// report receives the scan's plan totals and, under skip, its losses.
	report *zukowski.ScanReport
}

// AggResult is an aggregate in the wire domain. Min and Max are only
// meaningful when Count > 0; Sum wraps in int64 like the engine's.
type AggResult struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// runner is a plan bound to the table that executes it — the
// width-erased face of bound[T]. Each mode records its block plans in the
// plan's report.
type runner interface {
	// rows executes row mode: emit receives, once per block with
	// surviving rows, the global row numbers and per requested output
	// column the values as little-endian bytes at the table's width
	// (appendLE). The slices are reused between calls. emit returning false
	// stops the scan cleanly (nil); context death returns ctx.Err().
	rows(ctx context.Context, emit func(rows []int64, cols [][]byte) bool) error
	// aggregate folds the plan's aggregate column over the selected rows.
	aggregate(ctx context.Context) (AggResult, error)
	// blocks executes frame mode: for every block the predicate's zone
	// maps cannot exclude, emit receives the global block index, its
	// first global row, its row count, and the raw (still compressed)
	// frame of every output column. The frames alias the block cache or a
	// fresh per-block read; emit must not modify them.
	blocks(ctx context.Context, emit func(b int, firstRow int64, count int, frames [][]byte) bool) error
}

// bound is the generic runner: one request's Query over one table.
type bound[T zukowski.Integer] struct {
	tbl *zktable.Table[T]
	q   zukowski.Query[T]
	agg int   // aggregate column
	out []int // output columns, in request order; frame mode ships their frames
}

// bind translates p into the table's vocabulary. A zktable's columns
// share geometry and width by construction, so nothing is left to
// validate, and table column indices are the engine's own. Row and
// aggregate mode materialize through the engine, so their outputs become
// Query.Cols; frame mode ships frames and leaves Cols alone.
func (s *shard[T]) bind(p *scanPlan, frames bool, aggCol int) runner {
	b := &bound[T]{tbl: s.Table, agg: aggCol, out: p.out}
	b.q = zukowski.Query[T]{Workers: p.workers, SkipCorrupt: p.skip, Report: p.report}
	if !frames {
		b.q.Cols = p.out
	}
	var conj []zukowski.Expr[T]
	for _, ps := range p.preds {
		tlo, thi, ok := clampRange[T](ps.lo, ps.hi)
		if !ok {
			// No image in T's domain: the engine's trivially empty
			// conjunct, which selects no row and prunes every block.
			tlo, thi = 1, 0
		}
		conj = append(conj, zukowski.Range[T](ps.col, tlo, thi))
	}
	if len(p.orGroups) > 0 {
		conj = append(conj, anyOf[T](p.orGroups))
	}
	if len(conj) > 0 {
		b.q.Expr = zukowski.And(conj...)
	}
	return b
}

// anyOf is the any_of disjunction in T's domain. An alternative with an
// unrepresentable conjunct can never hold and is dropped; the others still
// apply. Or() of nothing selects nothing.
func anyOf[T zukowski.Integer](groups [][]predSpec) zukowski.Expr[T] {
	var branches []zukowski.Expr[T]
	for _, g := range groups {
		var branch []zukowski.Expr[T]
		for _, ps := range g {
			tlo, thi, ok := clampRange[T](ps.lo, ps.hi)
			if !ok {
				branch = nil
				break
			}
			branch = append(branch, zukowski.Range[T](ps.col, tlo, thi))
		}
		switch len(branch) {
		case 0:
		case 1:
			branches = append(branches, branch[0])
		default:
			branches = append(branches, zukowski.And(branch...))
		}
	}
	return zukowski.Or(branches...)
}

func (b *bound[T]) rows(ctx context.Context, emit func(rows []int64, cols [][]byte) bool) error {
	les := make([][]byte, len(b.q.Cols))
	return b.tbl.Run(ctx, b.q, func(_ int, rows []int64, cols [][]T) bool {
		for i, c := range cols {
			les[i] = appendLE(les[i][:0], c)
		}
		return emit(rows, les)
	})
}

func (b *bound[T]) aggregate(ctx context.Context) (AggResult, error) {
	agg, err := b.tbl.RunAggregate(ctx, b.q, b.agg)
	if err != nil {
		return AggResult{}, err
	}
	return AggResult{Count: agg.Count, Sum: agg.Sum, Min: int64(agg.Min), Max: int64(agg.Max)}, nil
}

func (b *bound[T]) blocks(ctx context.Context, emit func(blk int, firstRow int64, count int, frames [][]byte) bool) error {
	frames := make([][]byte, len(b.out))
	var fetchErr error
	_, err := b.tbl.Candidates(ctx, b.q, func(c zukowski.Candidate[T]) bool {
		for i, ci := range b.out {
			if frames[i], fetchErr = c.Cols[ci].FrameBytes(c.Local); fetchErr != nil {
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
