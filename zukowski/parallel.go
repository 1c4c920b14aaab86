package zukowski

import (
	"runtime"
	"sync"

	"repro/internal/core"
)

// Parallel column scans. The paper closes by observing that its
// super-scalar decompression "can already improve this bandwidth on
// parallel architectures": one goroutine decodes PFOR at RAM-like speed,
// so saturating a multi-core machine means decoding many blocks at once.
// Blocks are the natural grain — each frame is self-contained, and the
// ZKC2 fetch path is stateless — so ParallelScan runs a block-granular
// worker pool (core.ParallelDo) over the candidate blocks. Each worker
// owns one pooled decode state for the whole scan and hands its vector to
// fn under a delivery mutex: decoding overlaps freely, delivery is
// serialized, and no channel hop or consumer goroutine sits on the per-
// block path.

// ScanOption configures the scan families: delivery order for the
// parallel scans (InOrder), degraded mode for all of them (SkipCorrupt).
type ScanOption func(*scanConfig)

type scanConfig struct {
	ordered bool
	skip    bool
	report  *ScanReport
}

// InOrder makes a parallel scan deliver vectors in block order — exactly
// the sequence a sequential Scan produces. Blocks still decode across all
// workers; a worker whose block is ready early waits its turn to deliver,
// so ordering can idle workers when block decode times vary widely.
func InOrder() ScanOption {
	return func(c *scanConfig) { c.ordered = true }
}

// ParallelScan decodes the column's blocks across up to workers goroutines
// (GOMAXPROCS when workers <= 0) and hands each decoded vector to fn along
// with its block index. Delivery is serialized — fn is never called
// concurrently, so it needs no locking of its own — and unordered by
// default: vectors arrive as blocks finish decoding. InOrder restores the
// sequential delivery order. The vector is reused once fn returns; fn must
// copy values it keeps. A panic in fn is re-raised on the calling
// goroutine.
//
// fn returning false stops the scan early: workers stop claiming blocks,
// in-flight blocks are discarded undelivered, and ParallelScan returns
// nil. A decode or I/O error stops the scan the same way; with InOrder the
// error surfaces exactly where the sequential scan would have hit it (or
// not at all, if fn stops first), while an unordered scan returns the
// first error delivered.
//
// ParallelScan is safe to run concurrently with any other method of the
// shared reader.
func (cr *ColumnReader[T]) ParallelScan(workers int, fn func(block int, vals []T) bool, opts ...ScanOption) error {
	return cr.parallelScan(nil, workers, fn, opts)
}

// ParallelScanWhere is ParallelScan restricted to the blocks whose zone
// map intersects the inclusive range [lo, hi], with the same pruning
// contract as ScanWhere: a skipped block is provably free of the range,
// and fn still applies the exact predicate to the vectors it receives.
func (cr *ColumnReader[T]) ParallelScanWhere(lo, hi T, workers int, fn func(block int, vals []T) bool, opts ...ScanOption) error {
	return cr.parallelScan(cr.zoneMatch(lo, hi), workers, fn, opts)
}

// parallelScan scans the blocks selected by match (nil selects every
// block) across a worker pool.
func (cr *ColumnReader[T]) parallelScan(match func(b int) bool, workers int, fn func(block int, vals []T) bool, opts []ScanOption) error {
	cfg := parseScanOpts(opts)
	seq := func() error { return cr.scanBlocks(cfg, match, fn) }
	work := func(st *decodeState[T], b int) (func() bool, error) {
		vals, err := cr.readBlockInto(st, b, st.vals[:0])
		st.vals = vals
		if err != nil {
			if cfg.skipBlock(int(cr.blocks[b].count), err) {
				return nil, nil
			}
			return nil, err
		}
		return func() bool { return fn(b, vals) }, nil
	}
	return parallelBlocksEngine(len(cr.blocks), workers, match, cfg, seq, cr.getState, cr.putState, work)
}

// parallelBlocksEngine is the block-parallel scan engine shared by the
// whole-block scans of one column (ParallelScan, ParallelScanWhere) and the
// ColumnSet query scans, ParallelScanSelect among them (whose worker state
// spans several columns — hence the state type parameter). work decodes
// one block with a worker-owned state and returns a deliver closure (nil
// to deliver nothing); deliveries run
// serialized under the engine mutex — in rank order when InOrder is set —
// and a deliver returning false, a work error, or a panic in the delivery
// stops the scan with sequential-equivalent semantics. seq is the
// one-worker degenerate case.
func parallelBlocksEngine[S any](numBlocks, workers int, match func(b int) bool, cfg *scanConfig,
	seq func() error, getState func() S, putState func(S),
	work func(st S, b int) (func() bool, error)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The rank gate and worker pool need an indexable candidate list; the
	// one-worker degenerate case is exactly the sequential loop instead.
	var candidates []int
	n := numBlocks
	if workers > 1 && match != nil {
		candidates = make([]int, 0, n)
		for b := 0; b < numBlocks; b++ {
			if match(b) {
				candidates = append(candidates, b)
			}
		}
		n = len(candidates)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return seq()
	}
	blockAt := func(t int) int {
		if candidates != nil {
			return candidates[t]
		}
		return t
	}

	var (
		mu       sync.Mutex
		turn     = sync.NewCond(&mu) // ordered mode: gates delivery by rank
		next     int                 // ordered mode: next rank to deliver
		stopped  bool                // guarded by mu
		firstErr error
		panicked any
	)
	// call runs a delivery, converting a panic into a stop; the panic value
	// is re-raised on the calling goroutine once the pool has drained, so a
	// panicking fn behaves like it does under a sequential scan.
	call := func(deliver func() bool) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				panicked = r
				ok = false
			}
		}()
		return deliver()
	}
	// Tasks are claimed in rank order, so in ordered mode every rank below
	// the one a worker holds is either delivered or in flight; waiting for
	// next == t therefore cannot deadlock and buffers at most one decoded
	// block per worker.
	states := make([]S, workers)
	for w := range states {
		states[w] = getState()
	}
	core.ParallelDo(workers, n, func(w, t int) bool {
		deliver, err := work(states[w], blockAt(t))

		mu.Lock()
		defer mu.Unlock()
		if cfg.ordered {
			for next != t && !stopped {
				turn.Wait()
			}
			next = t + 1
			defer turn.Broadcast()
		}
		if stopped {
			return false
		}
		if err != nil {
			firstErr = err
			// Returning false makes ParallelDo stop handing out tasks;
			// workers mid-decode drain through the stopped check above.
			stopped = true
			return false
		}
		if deliver != nil && !call(deliver) {
			stopped = true
			return false
		}
		return true
	})
	for _, st := range states {
		putState(st)
	}
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}
