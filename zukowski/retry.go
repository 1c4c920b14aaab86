package zukowski

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// Failure handling on the block fetch path. Block-read failures split into
// two classes with opposite treatments:
//
//   - Transient: the source returned an I/O error or short read (ErrIO).
//     The bytes never arrived, so nothing is known about the block itself;
//     a reader configured with a RetryPolicy re-reads with jittered
//     exponential backoff before giving up. A scan's run of adjacent
//     frames is retried the same way, as one read; a run that still fails
//     shrinks to the one frame the scan needs, so an unreadable neighbour
//     costs that frame nothing.
//
//   - Permanent: the bytes arrived but their CRC32-C disagrees with the
//     directory (ErrChecksumMismatch) — checked frame by frame, when a
//     frame is used, also within a run. One unconditional re-read of the
//     frame distinguishes in-flight corruption (a flaky bus heals on
//     re-read) from at-rest damage; if the mismatch persists the block is
//     quarantined — the failure latches in the block's slot and every
//     later touch fails fast with ErrBlockQuarantined instead of
//     re-reading and re-hashing doomed bytes. Quarantined frames never
//     enter an attached BlockLRU, and concurrent scanners observing the
//     quarantine pay one atomic load, not a read and a hash.
//
// VerifyBlock bypasses both treatments on purpose: its contract is to
// check the bytes as they are now, so it neither retries nor consults or
// sets the quarantine latch.

// RetryPolicy bounds the re-reads a ColumnReader performs when a source
// read fails at the I/O layer (ErrIO: the ReaderAt errored or returned
// short). The zero value disables retries — every fetch gets exactly one
// attempt — which keeps in-memory readers and tests free of surprise
// sleeps.
type RetryPolicy struct {
	// MaxAttempts is the total number of read attempts per block fetch,
	// including the first; values below 2 disable retries.
	MaxAttempts int

	// BaseDelay is the backoff before the first retry; it doubles per
	// retry. 0 defaults to 1ms.
	BaseDelay time.Duration

	// MaxDelay caps the backoff. 0 defaults to 100ms.
	MaxDelay time.Duration
}

// WithRetryPolicy configures the reader's transient-failure handling at
// open time. Only file-backed readers (OpenColumnReaderAt) can observe
// I/O errors, so the option is a no-op for OpenColumn.
func WithRetryPolicy(p RetryPolicy) ReaderOption {
	return func(rc *readerConfig) { rc.retry = p }
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff sleeps before retry number retry (1-based): exponential from
// BaseDelay, capped at MaxDelay, with jitter uniform in [d/2, d] so a herd
// of scanners hitting one flaky region does not retry in lockstep.
func (p RetryPolicy) backoff(retry int) {
	base := p.BaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 100 * time.Millisecond
	}
	d := base
	for i := 1; i < retry && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	time.Sleep(d)
}

// readFrames reads the frames of blocks [b, end) — stored back to back,
// so one contiguous byte range — with one view of the source into dst.
// Nothing is checked or retried.
func (cr *ColumnReader[T]) readFrames(dst []byte, b, end int) ([]byte, error) {
	first, last := cr.blocks[b], cr.blocks[end-1]
	return cr.src.view(dst, int64(first.offset), int(last.offset+uint64(last.length)-first.offset))
}

// fetch is the one routine that reads a run of frames from the source
// (readRun): readFrames, repeated with backoff under the reader's
// RetryPolicy while it fails with ErrIO. The caller CRC-checks every frame
// before it uses one.
func (cr *ColumnReader[T]) fetch(dst []byte, b, end int) ([]byte, error) {
	buf, err := cr.readFrames(dst, b, end)
	for retry := 1; errors.Is(err, ErrIO) && retry < cr.retry.attempts(); retry++ {
		cr.retry.backoff(retry)
		buf, err = cr.readFrames(dst, b, end)
	}
	return buf, err
}

// reread answers block b's checksum mismatch err. A stable source returns
// the same bytes on every view, so the mismatch is proven permanent; a
// ReaderAt gets one re-read, into dst, to rule out in-flight corruption.
// A mismatch that survives is quarantined.
func (cr *ColumnReader[T]) reread(dst []byte, b int, err error) ([]byte, error) {
	if !cr.src.stable() {
		buf, err2 := cr.readFrames(dst, b, b+1)
		if err2 == nil {
			if err2 = cr.verify(buf, b); err2 == nil {
				return buf, nil
			}
		}
		if !errors.Is(err2, ErrChecksumMismatch) {
			return nil, err2
		}
		err = err2
	}
	return nil, cr.quarantine(b, err)
}

// quarantine latches cause as block b's permanent failure; the first
// store wins, so every caller observes one stable error. The composed
// error matches ErrBlockQuarantined, ErrChecksumMismatch and
// ErrCorruptColumn (the cause stays in the chain).
func (cr *ColumnReader[T]) quarantine(b int, cause error) error {
	qerr := fmt.Errorf("%w: block %d: %w", ErrBlockQuarantined, b, cause)
	cr.slots[b].quar.CompareAndSwap(nil, &qerr)
	return *cr.slots[b].quar.Load()
}

// quarantined returns block b's latched failure, or nil.
func (cr *ColumnReader[T]) quarantined(b int) error {
	if p := cr.slots[b].quar.Load(); p != nil {
		return *p
	}
	return nil
}

// QuarantinedBlocks returns the indices of the blocks this reader has
// quarantined so far, in ascending order. The count is the natural
// health gauge for a serving layer: nonzero means the column has blocks
// that will never read successfully again until the file is repaired.
func (cr *ColumnReader[T]) QuarantinedBlocks() []int {
	var bad []int
	for b := range cr.slots {
		if cr.slots[b].quar.Load() != nil {
			bad = append(bad, b)
		}
	}
	return bad
}
