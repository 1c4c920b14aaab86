package zktable

import "errors"

// Typed errors of the table layer. Errors that describe damaged data wrap
// zukowski.ErrCorruptColumn where they arise, so zukowski.IsDataFault and
// a Query run with SkipCorrupt classify them like any other data fault.
var (
	// ErrNotTable reports a directory with no MANIFEST-* file at all —
	// not a table, as opposed to a damaged one.
	ErrNotTable = errors.New("zktable: no manifest found")

	// ErrNoUsableManifest reports a directory whose every manifest fails
	// validation: the table exists but no committed generation is
	// readable. Salvaging the segment files by hand may still be possible.
	ErrNoUsableManifest = errors.New("zktable: no usable manifest")

	// ErrCorruptManifest reports manifest bytes that fail validation:
	// truncation, bad magic, a field out of range, internal inconsistency
	// or a CRC32-C mismatch.
	ErrCorruptManifest = errors.New("zktable: corrupt manifest")

	// ErrTableExists reports a Create against a directory that already
	// holds a manifest.
	ErrTableExists = errors.New("zktable: directory already holds a table")

	// ErrSegmentQuarantined reports a scan that touched a segment Open
	// could neither verify nor salvage. Exact scans fail with it; a
	// zukowski.Query with SkipCorrupt set skips the segment and accounts
	// the loss.
	ErrSegmentQuarantined = errors.New("zktable: segment quarantined")

	// ErrClosed reports use of a closed table.
	ErrClosed = errors.New("zktable: table closed")

	// ErrReadOnly reports an Append or Compact on a table opened with
	// Options.ReadOnly; nothing was written.
	ErrReadOnly = errors.New("zktable: table opened read-only")
)
