package zukowski

import (
	"errors"
	"sync"
)

// Degraded scans: completing a pass over a column that has lost blocks.
// The default contract is fail-stop — one unreadable or corrupt block
// kills the whole scan — which is right for correctness-critical readers
// but wrong for a serving layer that would rather answer 99.9% of a table
// than none of it. Query.SkipCorrupt flips a scan to degraded mode:
// block-level data faults (quarantined blocks, checksum mismatches, I/O
// failures that survived the retry policy, undecodable frames) are skipped
// instead of returned, and the caller-supplied ScanReport says exactly what
// was lost.
// Cancellation, caller errors and fn-initiated stops are never skipped —
// only faults of the data itself.
//
// A scan reports damage in the frames it read. A Query fetches, per block,
// the columns it materializes and the columns of the predicates the block's
// zone maps leave undecided (see verdict in expr.go); a column whose every
// conjunct the zone map already decides is not fetched, so damage in that
// frame neither fails an exact scan nor appears in a degraded scan's
// report, and the block is not quarantined — the answer does not depend on
// those bytes and is exact without them. The same damage in a frame that
// is evaluated or materialized fails or skips exactly that block, as ever.
// Verify and VerifyBlock are the passes that check every frame.

// ScanReport is what a scan reports beside its answer: the totals of its
// block plans, and what a degraded scan skipped. Set a pointer to one as
// Query.Report and read the fields after the scan returns; a parallel scan
// records from its workers, so the fields must not be read while the scan
// runs. A nil report costs a scan nothing.
type ScanReport struct {
	mu sync.Mutex

	// The plan totals sum, over every ColumnSet pass of the scan (one per
	// segment of a zktable.Table), what the pass planned from the zone maps
	// before it read a frame: the blocks planned, the blocks pruned, the
	// rows of the planned blocks, and their column values to fetch — per
	// planned block, its rows times the columns read there: those the
	// predicate leaves undecided and the materialized ones (none for
	// Candidates). They count what was planned, not what was done: a block
	// whose bitmap empties early reads less, and a scan that stops early or
	// skips a block still counts it.
	BlocksPlanned int
	BlocksPruned  int
	RowsPlanned   int64
	ValuesPlanned int64

	// BlocksSkipped counts blocks dropped from the scan.
	BlocksSkipped int

	// RowsLost is the directory row count of the skipped blocks — the rows
	// the scan's output is missing.
	RowsLost int64

	// FirstErr is the fault of the first skipped block.
	FirstErr error
}

// addPlan adds p's totals to r; a nil report discards.
func (r *ScanReport) addPlan(p *blockPlan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.BlocksPlanned += len(p.entries)
	r.BlocksPruned += p.pruned
	r.RowsPlanned += p.rows
	r.ValuesPlanned += p.values
	r.mu.Unlock()
}

// Record notes one skipped block of rows rows lost to err. Safe for
// concurrent use; a nil report discards. Exported so layers that walk
// blocks themselves (e.g. a frame-streaming server) can account losses
// in the same report their engine scans fill.
func (r *ScanReport) Record(rows int, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.BlocksSkipped++
	r.RowsLost += int64(rows)
	if r.FirstErr == nil {
		r.FirstErr = err
	}
	r.mu.Unlock()
}

// Degraded reports whether the scan skipped anything.
func (r *ScanReport) Degraded() bool { return r != nil && r.BlocksSkipped > 0 }

// IsDataFault reports whether err is a fault of the stored data itself —
// corrupt container or segment bytes, a checksum mismatch, a quarantined
// block, retry-exhausted I/O — the class a degraded scan may skip.
// Cancellation and caller errors are not data faults.
func IsDataFault(err error) bool {
	return errors.Is(err, ErrCorruptColumn) || errors.Is(err, ErrCorruptSegment)
}

// skipBlock decides one failed block's fate under q: true means the scan
// recorded the loss (rows from the block's directory count) and continues,
// false means the error propagates.
func (q *Query[T]) skipBlock(rows int, err error) bool {
	if !q.SkipCorrupt || !IsDataFault(err) {
		return false
	}
	q.Report.Record(rows, err)
	return true
}
