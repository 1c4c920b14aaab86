package zktable

import (
	"context"

	"repro/zukowski"
)

// Table scans speak the engine's own vocabulary: a zukowski.Query runs
// over every committed segment in row order, with row and block numbers
// offset into the table's global space. scan below is the single owner of
// what "over every segment" means — pinning one committed generation,
// quarantine handling with exact loss accounting, base offsets and early
// stop — and Run, RunAggregate and Candidates are each one ColumnSet call
// per segment on top of it. q.Workers is spent inside each segment;
// segments run one after another, so deliveries stay serialized. q.Report
// sums the block plans of the segments the scan reached.

// scan pins the committed generation and calls visit for each in-service
// segment in row order with the segment's first global row and block.
// visit returning more == false ends the scan cleanly. A quarantined
// segment fails the scan with its quarantine error unless q.SkipCorrupt
// is set, in which case every committed block and row of the segment is
// recorded as lost in q.Report — the contract the block engine applies
// within a segment, applied to faults the engine never sees.
func (t *Table[T]) scan(q *zukowski.Query[T], visit func(seg *segment[T], rowBase int64, blockBase int) (more bool, err error)) error {
	segs, starts, ep, err := t.pin()
	if err != nil {
		return err
	}
	defer t.unpin(ep)
	blockBase := 0
	for i, seg := range segs {
		if seg.quar == nil {
			if more, err := visit(seg, starts[i], blockBase); err != nil || !more {
				return err
			}
		} else if !q.SkipCorrupt {
			return seg.quar
		} else {
			for _, count := range seg.counts {
				q.Report.Record(int(count), seg.quar)
			}
		}
		blockBase += len(seg.counts)
	}
	return nil
}

// Run executes q across every segment in row order: fn receives each
// block with surviving rows exactly as zukowski.ColumnSet.Run delivers
// it, with global block indices (a segment's first block is preceded by
// every block of every earlier segment) and global row numbers. fn
// returning false stops the scan (still returning nil). Every Query
// field means what it means on a ColumnSet — Expr, Preds, Cols, Workers
// (block workers within a segment), SkipCorrupt and Report — so blocks
// arrive in global block order however many workers run.
// Quarantined segments fail exact scans with ErrSegmentQuarantined and
// are skipped, with every lost block and row recorded, under SkipCorrupt.
func (t *Table[T]) Run(ctx context.Context, q zukowski.Query[T], fn func(block int, rows []int64, cols [][]T) bool) error {
	return t.scan(&q, func(seg *segment[T], rowBase int64, blockBase int) (bool, error) {
		more := true
		err := seg.set.Run(ctx, q, func(block int, rows []int64, cols [][]T) bool {
			for j := range rows {
				rows[j] += rowBase
			}
			more = fn(blockBase+block, rows, cols)
			return more
		})
		return more, err
	})
}

// RunAggregate computes count/sum/min/max of column col over the rows q
// selects, folded across all segments. Quarantine semantics match Run.
func (t *Table[T]) RunAggregate(ctx context.Context, q zukowski.Query[T], col int) (zukowski.Aggregate[T], error) {
	var out zukowski.Aggregate[T]
	err := t.scan(&q, func(seg *segment[T], _ int64, _ int) (bool, error) {
		agg, err := seg.set.RunAggregate(ctx, q, col)
		out.Merge(agg)
		return true, err
	})
	if err != nil {
		return zukowski.Aggregate[T]{}, err
	}
	return out, nil
}

// Candidates is the dry run of q over the table (see
// zukowski.ColumnSet.Candidates): fn receives every block no zone map
// excludes with its global block index, its index within its segment,
// its first global row, its row count, the segment's column readers in
// schema order and which of them the predicate would read; the result
// counts the blocks pruned. Nothing is decoded. The readers are only
// guaranteed open for the duration of the call. Quarantined segments
// contribute neither candidates nor pruned blocks; they fail or are
// recorded exactly as in Run.
func (t *Table[T]) Candidates(ctx context.Context, q zukowski.Query[T], fn func(c zukowski.Candidate[T]) bool) (pruned int, err error) {
	err = t.scan(&q, func(seg *segment[T], rowBase int64, blockBase int) (bool, error) {
		more := true
		n, err := seg.set.Candidates(ctx, q, func(c zukowski.Candidate[T]) bool {
			c.Block += blockBase
			c.FirstRow += rowBase
			more = fn(c)
			return more
		})
		pruned += n
		return more, err
	})
	return pruned, err
}

// AggregateWhereAllContext is RunAggregate over a bare conjunction. It is
// pinned by bench/, which is frozen between benchmark re-anchors; remove
// it at the next re-anchor.
func (t *Table[T]) AggregateWhereAllContext(ctx context.Context, preds []zukowski.Pred[T], col int) (zukowski.Aggregate[T], error) {
	return t.RunAggregate(ctx, zukowski.Query[T]{Preds: preds}, col)
}
