package zukowski

import (
	"errors"
	"sync"
)

// Degraded scans: completing a pass over a column that has lost blocks.
// The default contract is fail-stop — one unreadable or corrupt block
// kills the whole scan — which is right for correctness-critical readers
// but wrong for a serving layer that would rather answer 99.9% of a table
// than none of it. SkipCorrupt flips a scan to degraded mode: block-level
// data faults (quarantined blocks, checksum mismatches, I/O failures that
// survived the retry policy, undecodable frames) are skipped instead of
// returned, and the caller-supplied ScanReport says exactly what was lost.
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

// ScanReport accumulates what a degraded scan skipped. Pass a pointer to
// SkipCorrupt, read the fields after the scan returns; a parallel scan
// records from its workers, so the fields must not be read while the scan
// runs.
type ScanReport struct {
	mu sync.Mutex

	// BlocksSkipped counts blocks dropped from the scan.
	BlocksSkipped int

	// RowsLost is the directory row count of the skipped blocks — the rows
	// the scan's output is missing.
	RowsLost int64

	// FirstErr is the fault of the first skipped block.
	FirstErr error
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

// SkipCorrupt makes a scan degraded: block-level data faults are skipped
// and recorded in rep instead of failing the scan. rep may be nil to skip
// without accounting. It applies to the single-column Scan/ScanWhere/
// ScanSelect/Aggregate* families and their parallel forms; a Query asks
// for the same contract with its SkipCorrupt and Report fields.
func SkipCorrupt(rep *ScanReport) ScanOption {
	return func(c *scanConfig) {
		c.skip = true
		c.report = rep
	}
}

// IsDataFault reports whether err is a fault of the stored data itself —
// corrupt container or segment bytes, a checksum mismatch, a quarantined
// block, retry-exhausted I/O — the class a degraded scan may skip.
// Cancellation and caller errors are not data faults.
func IsDataFault(err error) bool { return skippableBlockErr(err) }

// skippableBlockErr reports whether a block-level failure is a fault of
// the data — corrupt container or segment bytes, checksum mismatch,
// quarantine, retry-exhausted I/O — rather than cancellation or caller
// misuse. Only data faults are skippable in degraded mode.
func skippableBlockErr(err error) bool {
	return errors.Is(err, ErrCorruptColumn) || errors.Is(err, ErrCorruptSegment)
}

// skipBlock decides one failed block's fate under this config: true means
// the scan recorded the loss (rows from the block's directory count) and
// continues, false means the error propagates.
func (c *scanConfig) skipBlock(rows int, err error) bool {
	if !c.skip || !skippableBlockErr(err) {
		return false
	}
	c.report.Record(rows, err)
	return true
}

// defaultScanConfig is the shared zero-option config. It is never
// mutated, so every optionless scan can use it without allocating — the
// steady-state scan paths stay zero-alloc.
var defaultScanConfig scanConfig

// parseScanOpts folds scan options into a config.
func parseScanOpts(opts []ScanOption) *scanConfig {
	if len(opts) == 0 {
		return &defaultScanConfig
	}
	cfg := new(scanConfig)
	for _, opt := range opts {
		opt(cfg)
	}
	return cfg
}
