package zktable_test

import (
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"unsafe"

	"repro/zktable"
	"repro/zukowski"
)

// auditedCache is a BlockLRU that audits what it keeps: after every Put
// it reads the kept frame back and records it with its checksum, and
// counts the kept frames that share memory with the frame offered — a
// scan offers frames from the buffer it reads runs into and reuses, so
// the cache must keep copies. It serves odd blocks one byte off their
// alignment (a copy it makes once and audits too): a block parsed from one
// of those cannot borrow its code section, so a decode state that goes
// from block to block is recycled through borrowed, copied and borrowed
// frames.
type auditedCache struct {
	*zukowski.BlockLRU
	mu      sync.Mutex
	frames  [][]byte
	sums    []uint32
	aliased int
	odd     map[[2]uint64][]byte
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (c *auditedCache) Put(col uint64, block int, frame []byte) {
	c.BlockLRU.Put(col, block, frame)
	kept := c.BlockLRU.Get(col, block)
	if kept == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if overlap(kept, frame) {
		c.aliased++
	}
	c.frames = append(c.frames, kept)
	c.sums = append(c.sums, crc32.Checksum(kept, castagnoli))
	if block%2 == 1 {
		shifted := append([]byte{0}, kept...)[1:]
		c.odd[[2]uint64{col, uint64(block)}] = shifted
		c.frames = append(c.frames, shifted)
		c.sums = append(c.sums, crc32.Checksum(shifted, castagnoli))
	}
}

func (c *auditedCache) Get(col uint64, block int) []byte {
	kept := c.BlockLRU.Get(col, block)
	if kept == nil || block%2 == 0 {
		return kept
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if shifted, ok := c.odd[[2]uint64{col, uint64(block)}]; ok {
		return shifted
	}
	return kept
}

// overlap reports whether a and b share any byte of memory.
func overlap(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// TestScansLeaveCachedFramesIntact: parsed blocks borrow the cached
// frames' code sections, so nothing on the read path may write through a
// block — not a recycled decode state, not a lookup's memo, not a
// compaction reading its sources. Scans, aggregates, lookups and a
// compaction run together over a cache too small for the table, and every
// frame the cache ever held must still have the checksum it came with.
// Runs under -race in CI.
func TestScansLeaveCachedFramesIntact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	defer tb.Close()
	cache := &auditedCache{BlockLRU: zukowski.NewBlockLRU(32 << 10), odd: map[[2]uint64][]byte{}}
	tb.SetBlockCache(cache)
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
	if cache.aliased > 0 {
		t.Fatalf("%d of %d kept frames share memory with the frame offered to Put", cache.aliased, len(cache.frames))
	}
	for i, f := range cache.frames {
		if got := crc32.Checksum(f, castagnoli); got != cache.sums[i] {
			t.Fatalf("frame %d of %d changed after it was cached: CRC32-C %08x, was %08x", i, len(cache.frames), got, cache.sums[i])
		}
	}
}
