// Package zkserve serves columnar scans over HTTP: predicate pushdown
// over the network, the paper's RAM–CPU argument extended one boundary
// outward. The thesis of super-scalar decompression is that moving
// compressed data and decoding it at the consumer beats moving decoded
// data; zkserve applies that to the wire. A request names a table, output
// columns and a predicate — a conjunction of ranges, optionally AND an
// any_of disjunction; the server translates it, once, into a
// zukowski.Query and hands it to the engine (zone-map pruning,
// compressed-domain selection bitmaps, refine and union kernels),
// streaming back either materialized rows, one aggregate, or — in frame
// mode — the raw ZKC2 block frames themselves, zone-map-pruned but still
// compressed, for the client to decode locally with
// zukowski.FrameDecoder. Rows travel as little-endian columns at the
// table's width (the ZKR1 row stream, MIMEBinaryRows, which
// repro/zkserve/client asks for) or, for curl and jq, as NDJSON. The
// three modes are the engine's three entry points: Run, RunAggregate
// and Candidates. The server is an adapter: it
// owns admission, budgets, encoding and the wire↔typed translation, and
// decides nothing about pruning or segment composition itself.
//
// The server is built to be saturated. Admission control is a bounded
// worker semaphore: a scan either gets a slot immediately or is refused
// with 429 and Retry-After — load sheds at the door instead of queueing
// unboundedly. Every query runs under row, byte and time budgets,
// enforced mid-scan at block granularity through context cancellation
// and emit-side accounting, so one greedy query cannot hold a slot
// forever. A disconnected client cancels its request context and frees
// its slot at the next block boundary. /metrics exports scan counts,
// rows and bytes emitted, raw bytes scanned, zone-map prune rates, the
// in-flight gauge and per-route latency histograms in Prometheus text
// format; /healthz flips to 503 while draining so load balancers stop
// routing before shutdown.
//
// WithCacheBytes (zkserved -cache-bytes) gives a registry one process-wide
// hot-block cache — a zukowski.BlockLRU over verified raw frames —
// shared across every registered table, so repeat traffic skips the
// per-block read and checksum work.
// Containers are immutable, so the cache needs no invalidation;
// corrupt blocks are never admitted. /metrics always exports the cache
// series (hits, misses, inserts, evictions, resident/capacity bytes,
// entries — zero-valued when the cache is off) and /tables reports the
// cache configuration alongside the table listing.
//
// Every served table is a zktable directory — a manifest naming the
// committed segments, each one .zkc container per column — registered
// from a data directory (one subdirectory per table); requests run on
// the zktable handle directly, with global row and block numbering
// across segments. A table has one width and one geometry, by
// construction: its columns are signed integers of the manifest's
// element width, and row values travel at that width on the binary
// wire and as decimal int64 in NDJSON. A subdirectory
// of loose .zkc containers without a manifest is refused at startup;
// zktable.Create and Append turn such columns into a table.
//
// The companion packages are repro/zkserve/client (a small typed client,
// used by cmd/loadgen and the tests) and the commands cmd/zkserved (the
// daemon: flags, slog, SIGTERM drain) and cmd/loadgen (N concurrent
// clients with a selectivity mix, reporting p50/p99 latency and
// aggregate MB/s as text or JSON).
package zkserve
