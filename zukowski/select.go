package zukowski

import "context"

// Filtered scans: predicate evaluation pushed below decompression. Where
// ScanWhere only prunes at zone-map granularity and then hands every value
// of every candidate block to the caller, ScanSelect, ParallelScanSelect
// and AggregateWhere are the one-column spellings of a Query: the range
// predicate becomes a selection bitmap in the compressed code domain
// (internal/core DecompressMask) and only the matching rows are ever
// materialized (DecompressSelected) — the same block loop, zone-map
// verdicts and density-switched gather Run and RunAggregate execute, over
// the one-column ColumnSet the reader builds for itself at open time.

// Aggregate is the result of AggregateWhere over a column range predicate.
// Sum is the two's-complement (wrapping) sum of int64(v) over the matching
// values; Min and Max are only meaningful when Count > 0.
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
		if b.Min < a.Min {
			a.Min = b.Min
		}
		if b.Max > a.Max {
			a.Max = b.Max
		}
	}
	a.Count += b.Count
	a.Sum += b.Sum
}

// ScanSelect scans the column with the inclusive range predicate
// [lo, hi] evaluated below decompression, invoking fn once per block that
// contains at least one match with the global row numbers and values of
// the matches, in row order. Blocks are pruned by zone map first; surviving
// patched blocks are filtered in the compressed code domain, so values
// failing the predicate are never materialized (raw and baseline frames
// fall back to decode-then-filter). The slices are reused between calls;
// fn must copy what it keeps, and returning false stops the scan early.
//
// A warmed sequential ScanSelect performs no heap allocation: the scan
// holds one pooled scan state — bitmap and output buffers included — for
// its whole pass.
func (cr *ColumnReader[T]) ScanSelect(lo, hi T, fn func(rows []int64, vals []T) bool, opts ...ScanOption) error {
	q := Query[T]{Expr: Range(0, lo, hi)}
	return cr.self.runSeq(context.Background(), parseScanOpts(opts), &q,
		func(_ int, rows []int64, cols [][]T) bool { return fn(rows, cols[0]) })
}

// ParallelScanSelect is ScanSelect across a block-granular worker pool,
// with ParallelScan's delivery contract: fn receives each matching block's
// rows and values exactly once, never concurrently, unordered unless
// InOrder is given; fn returning false (or a decode error) stops the scan.
// Blocks without matches are skipped without a delivery. Each worker owns
// one pooled scan state for the whole scan.
func (cr *ColumnReader[T]) ParallelScanSelect(lo, hi T, workers int, fn func(block int, rows []int64, vals []T) bool, opts ...ScanOption) error {
	q := Query[T]{Expr: Range(0, lo, hi)}
	return cr.self.runParallel(context.Background(), parseScanOpts(opts), &q, workers,
		func(b int, rows []int64, cols [][]T) bool { return fn(b, rows, cols[0]) })
}

// AggregateWhere computes Count, Sum, Min and Max over every column value
// in the inclusive range [lo, hi], pushing the work below decompression:
// zone maps prune blocks, and inside each surviving block only the values
// the bitmap selects are materialized and folded. An empty or inverted
// range yields Count == 0.
func (cr *ColumnReader[T]) AggregateWhere(lo, hi T, opts ...ScanOption) (Aggregate[T], error) {
	q := Query[T]{Expr: Range(0, lo, hi)}
	return cr.self.runAggregate(context.Background(), parseScanOpts(opts), &q, 0)
}
