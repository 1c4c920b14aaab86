package zktable_test

import (
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/zktable"
	"repro/zukowski"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameAudit keeps every frame a cache-attached reader handed out, with the
// checksum it had then: FrameBytes on a resident block returns the cache's
// own copy, unverified, so a copy that a scan wrote through, or that still
// shared the scan's reused read buffer, shows as a changed checksum.
type frameAudit struct {
	mu     sync.Mutex
	frames [][]byte
	sums   []uint32
}

// take records block b's frame as cr hands it out, failing when it does
// not match the checksum the directory stores for it.
func (a *frameAudit) take(t *testing.T, cr *zukowski.ColumnReader[int64], b int) {
	frame, err := cr.FrameBytes(b)
	if err != nil {
		t.Errorf("FrameBytes(%d): %v", b, err)
		return
	}
	info, _ := cr.BlockInfo(b)
	sum := crc32.Checksum(frame, castagnoli)
	if sum != info.CRC32C {
		t.Errorf("block %d handed out with CRC32-C %08x, directory says %08x", b, sum, info.CRC32C)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.frames = append(a.frames, frame)
	a.sums = append(a.sums, sum)
}

// TestScansLeaveCachedFramesIntact: parsed blocks borrow the cached
// frames' code sections, so nothing on the read path may write through a
// block — not a recycled decode state, not a lookup, not a
// compaction reading its sources. Scans, aggregates, lookups and a
// compaction run together over a cache too small for the table, and every
// cached frame the lookups were handed must still have the checksum it
// came with. Scans read what they miss in runs, where a frame sits at
// whatever alignment the file gives it, so one decode state goes through
// frames whose codes it copies and cached ones whose codes it borrows.
// Runs under -race in CI.
func TestScansLeaveCachedFramesIntact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	defer tb.Close()
	cache := zukowski.NewBlockLRU(32 << 10)
	tb.SetBlockCache(cache)
	var audit frameAudit
	segs := [][][]int64{synthCols(40, 2000), synthCols(41, 2300), synthCols(42, 1700)}
	for _, s := range segs {
		mustAppend(t, tb, s)
	}
	all := appendAll(segs...)

	preds := []zukowski.Pred[int64]{{Col: 1, Lo: 100, Hi: 700}, {Col: 2, Lo: -10, Hi: 9}}
	wantRows, want := scanOracle(all, preds)
	var wantSum int64
	for _, v := range want[1] {
		wantSum += v
	}

	lookups := func(seed int64) {
		rng := rand.New(rand.NewSource(seed))
		first := int64(0)
		for s := 0; s < tb.NumSegments(); s++ {
			rdrs, err := tb.SegmentReaders(s)
			if err != nil {
				t.Errorf("SegmentReaders(%d): %v", s, err)
				return
			}
			rows, _ := tb.SegmentRows(s)
			for _, cr := range rdrs {
				for b := 0; b < cr.NumBlocks(); b++ {
					audit.take(t, cr, b)
				}
			}
			for i := 0; i < 200; i++ {
				ci, r := rng.Intn(len(rdrs)), rng.Int63n(rows)
				if v, err := rdrs[ci].Get(int(r)); err != nil || v != all[ci][first+r] {
					t.Errorf("segment %d column %d row %d: Get = %d, %v; want %d", s, ci, r, v, err, all[ci][first+r])
					return
				}
			}
			first += rows
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var n int
				// One worker: one decode state per segment meets every block in turn.
				q := where(preds...)
				if g == 1 {
					q.Workers = 3
				}
				if err := tb.Run(bg, q, func(_ int, rows []int64, _ [][]int64) bool {
					n += len(rows)
					return true
				}); err != nil {
					t.Errorf("Run: %v", err)
					return
				}
				agg, err := tb.RunAggregate(bg, where(preds...), 1)
				if err != nil {
					t.Errorf("RunAggregate: %v", err)
					return
				}
				if n != len(wantRows) || agg.Count != int64(len(wantRows)) || agg.Sum != wantSum {
					t.Errorf("scan saw %d rows, aggregate %d rows summing %d; oracle %d rows summing %d",
						n, agg.Count, agg.Sum, len(wantRows), wantSum)
					return
				}
			}
		}()
	}
	// Lookups hold no pin, so they stay clear of the compaction; the scans
	// run through it.
	lookups(1)
	if _, err := tb.Compact(); err != nil {
		t.Errorf("Compact: %v", err)
	}
	lookups(2)
	close(stop)
	wg.Wait()

	if cache.Stats().Evictions == 0 {
		t.Errorf("the cache never evicted: the table fits, nothing was re-fetched")
	}
	for i, f := range audit.frames {
		if got := crc32.Checksum(f, castagnoli); got != audit.sums[i] {
			t.Fatalf("frame %d of %d changed after it was handed out: CRC32-C %08x, was %08x", i, len(audit.frames), got, audit.sums[i])
		}
	}
}
