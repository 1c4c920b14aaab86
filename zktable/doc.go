// Package zktable stores one table as a directory of immutable
// column-segment files bound together by a versioned, checksummed
// manifest — the multi-file durability layer between the zukowski column
// engine and anything that must survive kill -9 mid-ingest.
//
// # Layout
//
// A table directory holds three kinds of files:
//
//   - MANIFEST-<generation>: the table's committed state, a small binary
//     object (see manifest.go for the byte layout) naming every live
//     segment and hoisting its row counts, per-block zone maps and
//     payload CRC32-Cs. Queries prune across files without opening them,
//     and Open cross-checks every segment against the hoisted copy.
//   - seg-<id>-<column>.zkc: one column of one segment, an ordinary
//     ZKC2 container (immutable once referenced by a manifest).
//   - .*.tmp-*: in-flight atomic writes; any that survive a crash are
//     orphans and are swept by the next Open.
//
// # Commit protocol
//
// Append writes every column of the new segment to a temp file in the
// table directory, fsyncs and renames it, fsyncs the directory once all
// columns are in place, then commits by writing MANIFEST-<generation+1>
// the same way (temp file, fsync, rename, directory fsync): the files a
// manifest names are durable before it is. Segment files are invisible —
// mere orphans — until a manifest generation references them, so a crash
// at any byte of an ingest leaves the previous generation fully intact:
// either the new manifest rename happened (the commit is durable and
// complete) or it did not (the new files are swept and the table reopens
// exactly as before). Compact follows the same protocol with a single
// replacement segment, into which it copies the frames of full,
// block-aligned source blocks as they stand and re-encodes only the
// blocks that straddle a seam between segments.
//
// # Recovery
//
// Open picks the highest-generation manifest that parses and passes its
// CRC32-C, falling back to older generations when newer ones are
// damaged; the newest two valid manifests are retained. It
// then sweeps the debris: temp files, manifests that are not retained
// (damaged ones included), and segment files no retained manifest
// references — the same rule by which every commit prunes what aged out
// and Fsck lists its orphans. It opens and spot-verifies every
// referenced segment against the manifest (file size, geometry,
// per-block CRCs and zone maps) and — per Options — salvages damaged
// segments via zukowski.RecoverColumn or quarantines them with exact
// loss accounting. Fsck performs the full read-only walk (every payload
// CRC of every block) for ops; segdump -fsck exposes it on the command
// line.
//
// # Scans
//
// A Table executes the engine's own vocabulary: Run, RunAggregate and
// Candidates take a zukowski.Query — expression tree, conjunction,
// projection, workers, degraded mode — exactly as a zukowski.ColumnSet
// does, and run it over every committed segment in row order with global
// row and block numbers. This package is the single owner of that
// composition: Query.Workers is spent inside each segment, aggregates
// fold with Aggregate.Merge, and quarantined segments fail exact scans
// with ErrSegmentQuarantined while scans with Query.SkipCorrupt skip
// them and record every lost block and row in Query.Report — the same
// contract the block engine applies within a segment; Query.Report also
// sums the block plans of the segments a scan reached.
//
// # Concurrency
//
// A Table serializes writers (Append, Compact) and publishes each commit
// atomically under a lock that scans take only long enough to pin the
// segment list, so scans run against a consistent committed generation
// while ingest proceeds — ingest-while-scanning is safe and race-clean by
// construction. The pin also bounds open files: a segment replaced by
// Compact is closed as soon as the last scan that pinned it returns.
package zktable
