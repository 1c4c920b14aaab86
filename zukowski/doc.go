// Package zukowski is the public face of this repository: a unified codec
// API over the super-scalar patched compression schemes of Zukowski, Héman,
// Nes and Boncz ("Super-Scalar RAM-CPU Cache Compression", ICDE 2006):
// PFOR, PFOR-DELTA and PDICT, plus uncoded blocks and the analyzer that
// picks among them. The comparators the paper measures (LZRW1, LZW,
// DEFLATE, the inverted-file codecs) are not codecs of this package:
// internal/baseline implements them for the paper's figures.
//
// The package wraps the internal kernels (which keep their allocation-free,
// branch-free hot-loop shapes) behind three layers:
//
//   - Codec[T]: one encode/decode/point-lookup contract for every scheme.
//     Encode appends a self-describing compressed frame to a byte slice;
//     Decode appends the reconstructed values to a value slice; Get reads a
//     single value without decompressing the whole frame (fine-grained
//     access, Section 3.1 of the paper); Stats inspects a frame.
//   - A name-indexed registry: Register, Lookup and Codecs let tools and
//     benchmarks enumerate schemes instead of hard-coding them.
//   - ColumnWriter / ColumnReader: a streaming multi-block column container
//     with a directory footer, per-block codec dispatch and fine-grained
//     Get across block boundaries. Its ZKC2 format carries per-block
//     CRC32-C checksums, min/max zone maps a Query consults to skip blocks
//     before decompression, and a checksummed directory; readers refuse
//     the retired layout that came before it with a typed error.
//     OpenColumnReaderAt streams columns larger than RAM from any
//     io.ReaderAt. A ColumnReader offers the paper's access paths over one
//     column — ReadBlock, Scan/ReadAll and Get — and is safe for
//     concurrent use: goroutines share one reader's block cache and
//     checksum state.
//
// # Filtered scans and aggregate pushdown
//
// A filtered, aggregating, degraded or parallel scan of one column is a
// one-column Query: Range(0, lo, hi) over NewColumnSet(cr), run by Run or
// RunAggregate under the same block loop as every multi-column scan. Zone
// maps decide blocks first (none: skipped unread; all: decoded whole);
// inside each
// remaining patched block the predicate is translated into the compressed
// code domain — PFOR subtracts the block base and clamps to the codable
// window, PDICT remaps the range into dictionary-code space once per block
// (every dictionary is ascending, so a range is one code range and uses
// the packed range kernels), PFOR-DELTA falls back to a fused decode+compare per
// 128-value group through its stored running total — and the packed code
// section is scanned by generated branch-free kernels emitting a selection
// bitmap, exception slots judged on their true values. Only the rows the
// bitmap selects are materialized, and RunAggregate folds those. Raw
// frames decode-then-filter with the same output contract, and warmed
// sequential filtered scans allocate nothing.
//
// # Hot-block caching
//
// File-backed readers pay a read plus a CRC32-C verification per block
// fetch; a sequential scan reads the frames it misses in runs of adjacent
// frames, one ReadAt per run, into buffers it borrows from a shared pool,
// so a warmed scan allocates nothing even without a cache. SetBlockCache
// attaches a BlockLRU — a sharded, byte-budgeted LRU over verified raw
// frames that, once full, admits a frame only if it is asked for more
// often than the entry it would evict — under that
// path: hits return the frame with zero allocations, a cold block
// faulted by many goroutines through FrameBytes, Get or ReadBlock is read
// and verified exactly once (the fill is singleflighted per block),
// Put copies what the cache keeps, and corrupt blocks are never
// admitted. A BlockLRU also keeps each resident frame's parsed form, once
// a read has parsed it there and the shard has room to spare for it,
// charged to the same budget and dropped before any frame is declined or
// evicted: a hot block is parsed once per residency,
// not once per query, with an index of where its exceptions sit so the
// kernels need not hop its patch lists, and every read shares it
// read-only. Entries are keyed by a process-unique id assigned at
// attach, so under immutable containers eviction is the only
// invalidation. One BlockLRU may be shared by any number of readers;
// in-memory readers ignore the cache: their frames are already resident,
// and each keeps the parsed form of a patched block it has read beside
// them, one per block for the reader's life. A parsed form lives nowhere
// else: a file-backed reader without a cache parses on every touch, and
// every access path — Get, ReadBlock, ReadAll, Scan and every ColumnSet
// scan — reads a block the same way. FrameBytes exposes the same verified-raw-frame fetch the
// cache accelerates, for callers that ship frames instead of decoding
// them; ColumnWriter.WriteFrame is its counterpart, appending such a
// frame and its directory entry to another container after hashing it
// once more — how zktable compacts block-aligned segments.
//
// # Multi-column predicates
//
// ColumnSet composes selection vectors across predicates and columns —
// the conjunctive step of the paper's RAM-CPU query pipeline. Columns
// sharing block geometry (same rows, same block boundaries; anything
// else is ErrColumnSetMismatch) scan as one unit: Run evaluates a
// Query's predicate tree per block, a conjunction by building a
// one-bit-per-row bitmap with the compare kernels of the most selective
// child (ordered by a zone-map estimate), intersecting it branch-free
// with each further child's matches — 32-row groups the running bitmap
// has emptied are skipped before a single code is extracted — and
// materializing the rows that survive every predicate, from the
// requested columns. Two things keep that from doing work nobody needs.
// Before a block is read its zone maps give each predicate a
// three-valued verdict: no row matches (the block is skipped), every row
// matches (the predicate is dropped for this block and its column is not
// fetched), or it must be evaluated. And the final bitmap picks the
// decoder per 128-value group: where few rows survive each is extracted
// on its own and nothing that fails the conjunction is decoded into a
// value; where many do the group is decoded whole — the paper's
// branch-free two-loop decompression — and the survivors are compacted
// out of it; a block selected whole is one block decode. RunAggregate
// folds one column's survivors without delivering them; Query.Workers
// runs Run's blocks across a worker pool, delivering serialized and in
// block order. Warmed sequential scans allocate nothing.
//
// # One scan vocabulary: Query, Expr, grouping and joins
//
// Query[T] is the only way a filtered or parallel scan is expressed, at
// every layer: predicate (one expression tree; Query.Preds is shorthand
// for a conjunction of ranges in it), output columns, parallelism,
// degraded mode and the context it runs under.
// ColumnSet executes it with Run, RunAggregate and Candidates (the
// decode-free dry run: which blocks would be evaluated, how many the
// zone maps prune); zktable.Table executes the same Query with the same
// three methods across every segment of a durable table, and zkserve
// translates each wire request into one. Expr is an AND/OR tree of
// Range and In leaves (built with And, Or, Range, In; an And takes any
// number of children), evaluated entirely at the selection-bitmap
// level: a disjunction is one word-wise union per 32 rows, and the
// zone-map verdict composes through the tree — an AND is "no row" when
// any child is and "every row" when every child is, an OR the other way
// round — so whole branches are skipped at block granularity, in either
// direction, without their columns being read. Inside an AND, the
// children left to evaluate still run most-selective-first by zone-map
// estimate. That verdict lives in one place (verdict in expr.go), and
// each scan asks it once: the scan's block plan — which blocks, with which
// verdict, reading which columns — is built before any frame is read, and
// the sequential loop, Run's workers, Candidates and the read-ahead all
// walk it. Candidates reports, per block, which columns the predicate
// still reads, and Query.Report receives the plan's totals (blocks
// planned and pruned, rows and column values planned).
//
// On top of the expression scan sit three result-shaped operators.
// Project materializes the selected rows of chosen columns in one pass
// (the collecting form of Run). GroupAggregate groups in code space:
// on PDICT blocks the dictionary codes are the group keys, so each
// block contributes per-code accumulators and the dictionary is decoded
// once per block rather than once per row; results arrive sorted on the
// decoded key values. BuildJoin/JoinOn hash-join the selected rows of a
// probe column against a build-side key set — on PDICT blocks the hash
// table is probed once per dictionary entry, not once per row.
// GroupAggregate and JoinOn take a Query like RunAggregate does and honour
// its SkipCorrupt and Report; FuzzExprScan differentially fuzzes the
// expression path against a scalar oracle.
//
// Unlike the internal packages, nothing here panics on bad input: invalid
// parameters and corrupt or truncated bytes surface as typed errors
// (ErrWidthOutOfRange, ErrBlockTooLarge, ErrCorruptSegment, ...).
//
// Every built-in codec (PFOR, PFORDelta, PDict, None, Auto) emits the
// Figure-3 segment layout of internal/segment and can decode any segment
// frame regardless of which of them produced it; the segment layout is
// the one frame format a container holds.
package zukowski
