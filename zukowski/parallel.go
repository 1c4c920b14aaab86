package zukowski

import (
	"context"
	"sync"

	"repro/internal/core"
)

// Parallel scans. The paper closes by observing that its super-scalar
// decompression "can already improve this bandwidth on parallel
// architectures": one goroutine decodes PFOR at RAM-like speed, so
// saturating a multi-core machine means decoding many blocks at once.
// Blocks are the natural grain — each frame is self-contained, and the
// ZKC2 fetch path is stateless — so a Query with Workers > 1 runs a
// block-granular worker pool (core.ParallelDo) over the candidate blocks.
// Each worker owns one pooled scan state for the whole scan and hands its
// block's output to fn under a delivery mutex, in block order: decoding
// overlaps freely, delivery is serialized in the sequential scan's
// sequence, and no channel hop or consumer goroutine sits on the per-block
// path.

// runParallel is Run's block-parallel form. It stays apart from the
// sequential visitBlocks because core.ParallelDo moves whatever its closure
// captures to the heap (Run hands it a copy of q for that reason). It
// plans the scan once, in a state of its own, and its workers claim the
// plan's entries in order and deliver them serialized, in block order; a
// worker whose block is ready early waits its turn. fn returning false, an
// error q does not skip, or a panic in fn stops the scan as it would the
// sequential one: in-flight blocks are discarded undelivered, and the
// panic is re-raised here once the pool has drained. An error surfaces
// exactly where the sequential scan would hit it. A plan of one block runs
// on the calling goroutine.
func (cs *ColumnSet[T]) runParallel(ctx context.Context, q *Query[T], fn func(block int, rows []int64, cols [][]T) bool) error {
	lead := cs.getState()
	defer cs.putState(lead)
	if err := cs.planScan(lead, q, q.Cols); err != nil {
		return err
	}
	plan := lead.plan.entries
	workers := min(q.Workers, len(plan))

	var (
		mu       sync.Mutex
		turn     = sync.NewCond(&mu) // gates delivery by rank
		next     int                 // next rank to deliver
		stopped  bool                // guarded by mu
		firstErr error
		panicked any
	)
	// deliver runs fn, converting a panic into a stop; the panic value is
	// re-raised once the pool has drained, so a panicking fn behaves as it
	// does under a sequential scan.
	deliver := func(b int, rows []int64, out [][]T) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				panicked = r
				ok = false
			}
		}()
		return fn(b, rows, out)
	}
	// Tasks are claimed in rank order, so every rank below the one a worker
	// holds is either delivered or in flight; waiting for next == t
	// therefore cannot deadlock and buffers at most one evaluated block per
	// worker.
	states := make([]*setState[T], workers)
	for w := range states {
		states[w] = cs.getState()
	}
	core.ParallelDo(workers, len(plan), func(w, t int) bool {
		e, st := plan[t], states[w]
		var rows []int64
		var out [][]T
		err := ctx.Err()
		if err == nil {
			var any bool
			if any, err = cs.blockMask(st, e, q); err == nil && any {
				rows, out, err = cs.gatherBlock(st, e.block, q)
			}
		}
		if err != nil && q.skipBlock(e.rows, err) {
			err = nil
		}

		mu.Lock()
		defer mu.Unlock()
		for next != t && !stopped {
			turn.Wait()
		}
		next = t + 1
		defer turn.Broadcast()
		if stopped {
			return false
		}
		if err != nil {
			firstErr = err
		} else if len(rows) == 0 || deliver(e.block, rows, out) {
			return true
		}
		// Returning false makes ParallelDo stop handing out tasks; workers
		// mid-block drain through the stopped check above.
		stopped = true
		return false
	})
	for _, st := range states {
		cs.putState(st)
	}
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}
