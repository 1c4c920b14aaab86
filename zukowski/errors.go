package zukowski

import "errors"

// Typed errors returned by the public API. The internal kernels panic on
// misuse (they trust their callers and keep branch-free hot loops); every
// user-reachable path here validates first and returns one of these
// instead. Errors wrapping a lower-level cause keep it in the chain, so
// errors.Is works against both the sentinel and the cause.
var (
	// ErrWidthOutOfRange reports a code bit width outside [1,32] or wider
	// than the element type.
	ErrWidthOutOfRange = errors.New("zukowski: bit width out of range")

	// ErrBlockTooLarge reports an encode input longer than MaxBlockValues —
	// the 25-bit exception-offset field of an entry-point word caps blocks
	// at 1<<25 values (Section 3.1 of the paper).
	ErrBlockTooLarge = errors.New("zukowski: block exceeds maximum value count")

	// ErrCorruptSegment reports compressed bytes that fail validation:
	// truncation, bad magic, checksum mismatch, inconsistent header fields
	// or a patch list that escapes its block.
	ErrCorruptSegment = errors.New("zukowski: corrupt compressed segment")

	// ErrCorruptColumn reports a column container whose header, directory
	// footer or block layout fails validation.
	ErrCorruptColumn = errors.New("zukowski: corrupt column container")

	// ErrIndexOutOfRange reports a Get position outside [0, NumValues).
	ErrIndexOutOfRange = errors.New("zukowski: value index out of range")

	// ErrUnknownCodec reports a Lookup of a name with no registered codec
	// for the requested element type.
	ErrUnknownCodec = errors.New("zukowski: unknown codec")

	// ErrChecksumMismatch reports a ZKC2 container region (a block payload
	// or the directory) whose stored CRC32-C disagrees with the bytes.
	// Checksum failures also match ErrCorruptColumn, which stays the
	// umbrella for every container-integrity failure.
	ErrChecksumMismatch = errors.New("zukowski: checksum mismatch")

	// ErrIO reports a source read that failed at the I/O layer — the
	// ReaderAt returned an error or fewer bytes than asked — as opposed to
	// bytes that arrived but failed validation. I/O failures are the
	// retryable class: a ColumnReader with a RetryPolicy re-reads them with
	// backoff before giving up. They also match ErrCorruptColumn, the
	// umbrella for every failure to produce a block.
	ErrIO = errors.New("zukowski: source I/O error")

	// ErrBlockQuarantined reports a block whose checksum mismatch persisted
	// across a re-read: the reader marks the block bad once and every later
	// touch fails fast with this error instead of re-reading and re-hashing
	// doomed bytes. Quarantined-block errors also match ErrCorruptColumn
	// and ErrChecksumMismatch (the original cause stays in the chain).
	ErrBlockQuarantined = errors.New("zukowski: block quarantined")

	// ErrClosed reports a write to a closed ColumnWriter.
	ErrClosed = errors.New("zukowski: column writer is closed")

	// ErrColumnSetMismatch reports columns that cannot be scanned together
	// because they disagree on block geometry: a ColumnSet requires every
	// column to hold the same number of rows split at the same block
	// boundaries, so one block-level selection bitmap applies to all of
	// them.
	ErrColumnSetMismatch = errors.New("zukowski: columns disagree on block geometry")
)
