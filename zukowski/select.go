package zukowski

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/segment"
)

// Filtered scans: predicate evaluation pushed below decompression. Where
// ScanWhere only prunes at zone-map granularity and then hands every value
// of every candidate block to the caller, ScanSelect evaluates the range
// predicate inside the compressed domain (internal/core DecompressWhere):
// the packed code section is scanned by generated compare kernels and only
// the matching (row, value) pairs are ever materialized. AggregateWhere
// goes one step further and never materializes matches at all — for PFOR
// blocks the Sum/Min/Max/Count are derived from the matching codes plus
// the block base.

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
// holds one pooled decode state — selection scratch included — for its
// whole pass.
func (cr *ColumnReader[T]) ScanSelect(lo, hi T, fn func(rows []int64, vals []T) bool, opts ...ScanOption) error {
	return cr.scanSelect(parseScanOpts(opts), lo, hi, func(_ int, rows []int64, vals []T) bool { return fn(rows, vals) })
}

// scanSelect is the sequential filtered-scan loop shared by ScanSelect and
// the one-worker degenerate case of ParallelScanSelect.
func (cr *ColumnReader[T]) scanSelect(cfg *scanConfig, lo, hi T, fn func(block int, rows []int64, vals []T) bool) error {
	if lo > hi {
		return nil
	}
	st := cr.getState()
	defer cr.putState(st)
	for b := range cr.blocks {
		if cr.blockExcludes(b, lo, hi) {
			continue
		}
		rows, vals, err := cr.selectBlockInto(st, b, lo, hi)
		if err != nil {
			if cfg.skipBlock(int(cr.blocks[b].count), err) {
				continue
			}
			return err
		}
		if len(rows) == 0 {
			continue
		}
		if !fn(b, rows, vals) {
			return nil
		}
	}
	return nil
}

// ParallelScanSelect is ScanSelect across a block-granular worker pool,
// with ParallelScan's delivery contract: fn receives each matching block's
// rows and values exactly once, never concurrently, unordered unless
// InOrder is given; fn returning false (or a decode error) stops the scan.
// Blocks without matches are skipped without a delivery. Each worker owns
// one pooled decode state for the whole scan.
func (cr *ColumnReader[T]) ParallelScanSelect(lo, hi T, workers int, fn func(block int, rows []int64, vals []T) bool, opts ...ScanOption) error {
	if lo > hi {
		return nil
	}
	cfg := parseScanOpts(opts)
	seq := func() error { return cr.scanSelect(cfg, lo, hi, fn) }
	work := func(st *decodeState[T], b int) (func() bool, error) {
		rows, vals, err := cr.selectBlockInto(st, b, lo, hi)
		if err != nil {
			if cfg.skipBlock(int(cr.blocks[b].count), err) {
				return nil, nil
			}
			return nil, err
		}
		if len(rows) == 0 {
			return nil, nil
		}
		return func() bool { return fn(b, rows, vals) }, nil
	}
	return cr.parallelBlocks(cr.zoneMatch(lo, hi), workers, cfg, seq, work)
}

// selectBlockInto evaluates [lo, hi] over block b into st's reusable
// selection buffers, returning the global row numbers and values of the
// matches. Patched frames are filtered in the compressed domain; raw and
// baseline frames decode and filter. Crafted frames that defeat the header
// checks surface as ErrCorruptSegment, never a panic.
func (cr *ColumnReader[T]) selectBlockInto(st *decodeState[T], b int, lo, hi T) (rows []int64, vals []T, err error) {
	defer guardSegment(&err)
	frame, err := cr.frame(b)
	if err != nil {
		return nil, nil, err
	}
	start := int64(cr.starts[b])
	want := int(cr.blocks[b].count)
	if len(frame) > 0 && frame[0] == segment.Magic && segment.IsCompressed(frame) {
		if err := parseSegmentInto(&st.blk, frame, cr.trustedFrames()); err != nil {
			return nil, nil, fmt.Errorf("block %d: %w", b, corrupt(err))
		}
		if st.blk.N != want {
			return nil, nil, fmt.Errorf("%w: block %d holds %d values, directory says %d",
				ErrCorruptColumn, b, st.blk.N, want)
		}
		sel, fv := st.dec.DecompressWhere(&st.blk, lo, hi, st.sel[:0], st.fvals[:0])
		st.sel, st.fvals = sel, fv
		rows = st.rows[:0]
		for _, p := range sel {
			rows = append(rows, start+int64(p))
		}
		st.rows = rows
		return rows, fv, nil
	}
	// Raw or baseline frame: no compressed code domain to scan — decode
	// whole and filter, still through reusable buffers.
	dec, err := st.decodeInto(st.vals[:0], frame, cr.trustedFrames())
	if err != nil {
		return nil, nil, fmt.Errorf("block %d: %w", b, err)
	}
	st.vals = dec
	if len(dec) != want {
		return nil, nil, fmt.Errorf("%w: block %d holds %d values, directory says %d",
			ErrCorruptColumn, b, len(dec), want)
	}
	rows, fv := st.rows[:0], st.fvals[:0]
	for i, v := range dec {
		if v >= lo && v <= hi {
			rows = append(rows, start+int64(i))
			fv = append(fv, v)
		}
	}
	st.rows, st.fvals = rows, fv
	return rows, fv, nil
}

// AggregateWhere computes Count, Sum, Min and Max over every column value
// in the inclusive range [lo, hi], pushing the work below decompression:
// zone maps prune blocks, and inside each surviving patched block the
// aggregate is folded from the compressed form (for PFOR without widening
// a single code to T — Count by mask popcount, Sum from the code sum and
// the block base). An empty or inverted range yields Count == 0.
func (cr *ColumnReader[T]) AggregateWhere(lo, hi T, opts ...ScanOption) (Aggregate[T], error) {
	var agg Aggregate[T]
	if lo > hi {
		return agg, nil
	}
	cfg := parseScanOpts(opts)
	st := cr.getState()
	defer cr.putState(st)
	for b := range cr.blocks {
		if cr.blockExcludes(b, lo, hi) {
			continue
		}
		blockAgg, err := cr.aggregateBlock(st, b, lo, hi)
		if err != nil {
			if cfg.skipBlock(int(cr.blocks[b].count), err) {
				continue
			}
			return Aggregate[T]{}, err
		}
		agg.Merge(Aggregate[T]{Count: int64(blockAgg.Count), Sum: blockAgg.Sum, Min: blockAgg.Min, Max: blockAgg.Max})
	}
	return agg, nil
}

// aggregateBlock folds block b's values in [lo, hi] without materializing
// them when the frame is patched-compressed.
func (cr *ColumnReader[T]) aggregateBlock(st *decodeState[T], b int, lo, hi T) (agg core.Aggregate[T], err error) {
	defer guardSegment(&err)
	frame, err := cr.frame(b)
	if err != nil {
		return agg, err
	}
	if len(frame) > 0 && frame[0] == segment.Magic && segment.IsCompressed(frame) {
		if err := parseSegmentInto(&st.blk, frame, cr.trustedFrames()); err != nil {
			return agg, fmt.Errorf("block %d: %w", b, corrupt(err))
		}
		return st.dec.AggregateWhere(&st.blk, lo, hi), nil
	}
	dec, err := st.decodeInto(st.vals[:0], frame, cr.trustedFrames())
	if err != nil {
		return agg, fmt.Errorf("block %d: %w", b, err)
	}
	st.vals = dec
	for _, v := range dec {
		if v >= lo && v <= hi {
			agg.Count++
			agg.Sum += int64(v)
			if agg.Count == 1 {
				agg.Min, agg.Max = v, v
			} else {
				if v < agg.Min {
					agg.Min = v
				}
				if v > agg.Max {
					agg.Max = v
				}
			}
		}
	}
	return agg, nil
}
