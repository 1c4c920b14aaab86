package zukowski_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/zukowski"
)

// --- BlockLRU unit tests ------------------------------------------------

// sameShardCols finds n column ids whose (col, 0) keys hash to one
// shard, by probing a cache whose shard budget fits a single entry:
// a colliding insert is declined or evicts instead of growing the entry
// count.
func sameShardCols(t *testing.T, n int, frame []byte) []uint64 {
	t.Helper()
	perEntry := int64(len(frame)) + 112
	cols := []uint64{1}
	for col := uint64(2); col < 1<<16 && len(cols) < n; col++ {
		probe := zukowski.NewBlockLRU(16 * (perEntry + 10))
		probe.Put(cols[0], 0, frame)
		probe.Put(col, 0, frame)
		if probe.Len() == 1 {
			cols = append(cols, col)
		}
	}
	if len(cols) < n {
		t.Fatalf("found only %d/%d colliding columns", len(cols), n)
	}
	return cols
}

// TestBlockLRUEviction: under byte pressure the cache evicts in LRU
// order — a Get-promoted entry survives while the untouched one goes —
// and the byte/entry accounting stays exact through the churn. The
// newcomer has been asked for once (a miss) and the LRU entry never, so
// frequency admission lets it in.
func TestBlockLRUEviction(t *testing.T) {
	frame := make([]byte, 1000)
	perEntry := int64(len(frame)) + 112
	cols := sameShardCols(t, 3, frame)
	a, b1, b2 := cols[0], cols[1], cols[2]

	// Shard budget fits two entries.
	c := zukowski.NewBlockLRU(16 * (2*perEntry + 50))
	c.Put(a, 0, frame)
	c.Put(b1, 0, frame)
	if c.Get(a, 0) == nil { // promote a to MRU
		t.Fatal("entry a missing before eviction")
	}
	if c.Get(b2, 0) != nil {
		t.Fatal("entry b2 resident before its Put")
	}
	c.Put(b2, 0, frame) // must evict b1, the LRU
	if c.Get(a, 0) == nil {
		t.Fatal("promoted entry was evicted instead of the LRU")
	}
	if c.Get(b1, 0) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.Get(b2, 0) == nil {
		t.Fatal("newest entry missing")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 2*perEntry {
		t.Fatalf("after eviction: %d entries / %d bytes, want 2 / %d", st.Entries, st.Bytes, 2*perEntry)
	}
	if st.Evictions != 1 || st.Puts != 3 {
		t.Fatalf("Evictions/Puts = %d/%d, want 1/3", st.Evictions, st.Puts)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestBlockLRUAdmission: a full shard keeps its LRU entry against a key
// asked for less often or as often, and gives it up to a key asked for
// more often.
func TestBlockLRUAdmission(t *testing.T) {
	frame := make([]byte, 1000)
	perEntry := int64(len(frame)) + 112
	cols := sameShardCols(t, 4, frame)
	resident, rare, tied, frequent := cols[0], cols[1], cols[2], cols[3]
	ask := func(c *zukowski.BlockLRU, col uint64, times int) {
		for i := 0; i < times; i++ {
			c.Get(col, 0)
		}
	}

	c := zukowski.NewBlockLRU(16 * (perEntry + 10)) // one entry per shard
	ask(c, resident, 2)
	c.Put(resident, 0, frame) // room: admitted
	ask(c, rare, 1)
	c.Put(rare, 0, frame) // asked for less often: declined
	ask(c, tied, 2)
	c.Put(tied, 0, frame) // asked for as often: declined
	if st := c.Stats(); st.Puts != 1 || st.Declined != 2 || st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("after a rarer and an as frequent candidate: %+v, want 1 put, 2 declined, nothing evicted", st)
	}
	ask(c, frequent, 3)
	c.Put(frequent, 0, frame) // asked for more often: admitted
	if st := c.Stats(); st.Puts != 2 || st.Declined != 2 || st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after a more frequent candidate: %+v, want 2 puts, 2 declined, 1 evicted", st)
	}
	if c.Get(frequent, 0) == nil || c.Get(resident, 0) != nil || c.Get(rare, 0) != nil || c.Get(tied, 0) != nil {
		t.Fatal("the more frequent candidate did not replace the resident entry")
	}
}

// TestBlockLRUPutCopies: Put keeps a copy, so the caller may reuse its
// slice at once — what a scan does with the buffer it reads runs into.
func TestBlockLRUPutCopies(t *testing.T) {
	c := zukowski.NewBlockLRU(1 << 20)
	frame := []byte{1, 2, 3, 4}
	c.Put(5, 0, frame)
	copy(frame, []byte{9, 9, 9, 9})
	if got := c.Get(5, 0); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("cached bytes followed the caller's slice: %v", got)
	}
}

// TestBlockLRUOversizedAndZero: a frame larger than a shard's budget is
// declined outright, and a zero-budget cache stores nothing.
func TestBlockLRUOversizedAndZero(t *testing.T) {
	c := zukowski.NewBlockLRU(16 * 1024)
	big := make([]byte, 2048) // 2048+112 > 1024 per shard
	c.Put(1, 0, big)
	if c.Get(1, 0) != nil {
		t.Fatal("oversized frame was cached")
	}
	if st := c.Stats(); st.Puts != 0 || st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("oversized decline leaked accounting: %+v", st)
	}

	small := make([]byte, 100)
	for _, budget := range []int64{0, -5} {
		z := zukowski.NewBlockLRU(budget)
		z.Put(1, 0, small)
		if z.Get(1, 0) != nil || z.Len() != 0 {
			t.Fatalf("budget %d cache stored a frame", budget)
		}
	}
}

// TestBlockLRUStats: hits, misses, duplicate Puts and HitRate all track.
func TestBlockLRUStats(t *testing.T) {
	c := zukowski.NewBlockLRU(1 << 20)
	frame := []byte{1, 2, 3}
	if c.Get(7, 0) != nil {
		t.Fatal("hit on empty cache")
	}
	c.Put(7, 0, frame)
	c.Put(7, 0, []byte{9, 9, 9}) // duplicate: resident entry kept
	if got := c.Get(7, 0); !bytes.Equal(got, frame) {
		t.Fatalf("duplicate Put replaced resident entry: %v", got)
	}
	c.Get(7, 1) // miss
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if want := 1.0 / 3.0; st.HitRate() != want {
		t.Fatalf("HitRate = %v, want %v", st.HitRate(), want)
	}
	if (zukowski.CacheStats{}).HitRate() != 0 {
		t.Fatal("HitRate on zero stats not 0")
	}
	if c.Capacity() != 1<<20 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
}

// TestBlockLRUGetZeroAlloc: a cache hit allocates nothing.
func TestBlockLRUGetZeroAlloc(t *testing.T) {
	c := zukowski.NewBlockLRU(1 << 20)
	c.Put(3, 5, make([]byte, 512))
	allocs := testing.AllocsPerRun(200, func() {
		if c.Get(3, 5) == nil {
			t.Fatal("lost entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocated %v times per hit", allocs)
	}
}

// TestConcurrentBlockLRUHammer: many goroutines Get/Put overlapping keys
// against a tiny budget; run under -race this shakes out locking bugs,
// and the accounting must still balance afterwards.
func TestConcurrentBlockLRUHammer(t *testing.T) {
	c := zukowski.NewBlockLRU(16 * 4 * (256 + 112)) // ~4 entries per shard
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			frame := make([]byte, 256)
			for i := 0; i < 5000; i++ {
				col := uint64(rng.Intn(4))
				blk := rng.Intn(64)
				if buf := c.Get(col, blk); buf != nil {
					_ = buf[0] // cached bytes stay readable
				} else {
					c.Put(col, blk, frame)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Entries < 0 {
		t.Fatalf("accounting went negative: %+v", st)
	}
	if st.Entries != int64(c.Len()) {
		t.Fatalf("Entries %d != Len %d", st.Entries, c.Len())
	}
	if st.Puts-st.Evictions != st.Entries {
		t.Fatalf("puts %d - evictions %d != resident %d", st.Puts, st.Evictions, st.Entries)
	}
}

// --- reader integration -------------------------------------------------

// countingReaderAt counts ReadAt calls and bytes, to prove cache hits
// never touch the source.
type countingReaderAt struct {
	r     io.ReaderAt
	reads atomic.Int64
	bytes atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.r.ReadAt(p, off)
}

// openCached opens data through a counting ReaderAt with cache c
// attached, returning the reader and the counter.
func openCached[T zukowski.Integer](t *testing.T, data []byte, c *zukowski.BlockLRU) (*zukowski.ColumnReader[T], *countingReaderAt) {
	t.Helper()
	src := &countingReaderAt{r: bytes.NewReader(data)}
	cr, err := zukowski.OpenColumnReaderAt[T](src, int64(len(data)), zukowski.WithBlockCache(c))
	if err != nil {
		t.Fatal(err)
	}
	return cr, src
}

// TestCacheCountsEachFrameOnce: every frame a fetch or a scan consumes
// from a cache-attached reader counts exactly one hit or one miss — one
// miss for a cold FrameBytes, one hit for the next, and over a two-column
// set one miss per frame on the cold pass and one hit per frame on the
// warm one.
func TestCacheCountsEachFrameOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	a, b := genValues[int64](rng, 6*512), genValues[int64](rng, 6*512)
	dataA, dataB := buildColumnV2[int64](t, nil, 512, a), buildColumnV2[int64](t, nil, 512, b)

	cache := zukowski.NewBlockLRU(1 << 30)
	cr, _ := openCached[int64](t, dataA, cache)
	if _, err := cr.FrameBytes(1); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("cold FrameBytes: %d misses, %d hits; want 1, 0", st.Misses, st.Hits)
	}
	if _, err := cr.FrameBytes(1); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("warm FrameBytes: %d misses, %d hits; want 1, 1", st.Misses, st.Hits)
	}

	cache = zukowski.NewBlockLRU(1 << 30)
	crA, _ := openCached[int64](t, dataA, cache)
	crB, _ := openCached[int64](t, dataB, cache)
	cs, err := zukowski.NewColumnSet(crA, crB)
	if err != nil {
		t.Fatal(err)
	}
	frames := int64(2 * crA.NumBlocks())
	for pass, want := range []zukowski.CacheStats{{Misses: frames}, {Misses: frames, Hits: frames}} {
		if _, _, err := collectRun(t, cs, zukowski.Query[int64]{}); err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); st.Misses != want.Misses || st.Hits != want.Hits {
			t.Fatalf("pass %d over %d frames: %d misses, %d hits; want %d, %d",
				pass, frames, st.Misses, st.Hits, want.Misses, want.Hits)
		}
	}
}

// TestCacheScanEquivalence: scans through a cache — including a tiny
// cache that evicts mid-scan — return exactly the bytes an uncached
// reader returns, for full scans, Get and repeated passes.
func TestCacheScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	src := genValues[int64](rng, 20_000)
	data := buildColumnV2[int64](t, nil, 512, src)

	for _, budget := range []int64{1 << 30, 3 * (4096 + 112) * 16, 0} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			cache := zukowski.NewBlockLRU(budget)
			cr, _ := openCached[int64](t, data, cache)
			for pass := 0; pass < 3; pass++ {
				var got []int64
				if err := cr.Scan(func(vals []int64) bool {
					got = append(got, vals...)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(src) {
					t.Fatalf("pass %d: scanned %d values", pass, len(got))
				}
				for i := range src {
					if got[i] != src[i] {
						t.Fatalf("pass %d: value %d: got %d want %d", pass, i, got[i], src[i])
					}
				}
			}
			for k := 0; k < 300; k++ {
				i := rng.Intn(len(src))
				v, err := cr.Get(i)
				if err != nil {
					t.Fatal(err)
				}
				if v != src[i] {
					t.Fatalf("Get(%d) = %d, want %d", i, v, src[i])
				}
			}
		})
	}
}

// TestCacheHitsSkipSource: with a roomy cache, a second full pass over a
// file-backed column performs zero reads against the underlying
// ReaderAt — the whole working set is served from the cache.
func TestCacheHitsSkipSource(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	src := genValues[uint32](rng, 10_000)
	data := buildColumnV2[uint32](t, nil, 512, src)

	cache := zukowski.NewBlockLRU(1 << 30)
	cr, counter := openCached[uint32](t, data, cache)
	if err := cr.Scan(func([]uint32) bool { return true }); err != nil {
		t.Fatal(err)
	}
	warm := counter.reads.Load()
	if warm == 0 {
		t.Fatal("first pass read nothing")
	}
	if err := cr.Scan(func([]uint32) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := counter.reads.Load(); got != warm {
		t.Fatalf("warm pass issued %d extra reads", got-warm)
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Puts != int64(cr.NumBlocks()) {
		t.Fatalf("cache stats after warm pass: %+v (blocks %d)", st, cr.NumBlocks())
	}

	// FrameBytes hits the same cache; out-of-range is typed.
	if _, err := cr.FrameBytes(0); err != nil {
		t.Fatal(err)
	}
	if got := counter.reads.Load(); got != warm {
		t.Fatalf("FrameBytes on warm block read from source")
	}
	for _, b := range []int{-1, cr.NumBlocks()} {
		if _, err := cr.FrameBytes(b); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
			t.Fatalf("FrameBytes(%d) err = %v, want ErrIndexOutOfRange", b, err)
		}
	}
}

// TestConcurrentCacheSingleflight: 100 goroutines racing to read the same
// cold blocks — by FrameBytes, by Get or by ReadBlock — trigger exactly
// one source read per block: the fill is singleflighted under the block
// slot's mutex.
func TestConcurrentCacheSingleflight(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const bv = 512
	src := genValues[int64](rng, 4*bv)
	data := buildColumnV2[int64](t, nil, bv, src)

	for _, caller := range []struct {
		name string
		read func(cr *zukowski.ColumnReader[int64], b int) error
	}{
		{"FrameBytes", func(cr *zukowski.ColumnReader[int64], b int) error {
			_, err := cr.FrameBytes(b)
			return err
		}},
		{"Get", func(cr *zukowski.ColumnReader[int64], b int) error {
			v, err := cr.Get(b*bv + 3)
			if err == nil && v != src[b*bv+3] {
				err = fmt.Errorf("Get(%d) = %d, want %d", b*bv+3, v, src[b*bv+3])
			}
			return err
		}},
		{"ReadBlock", func(cr *zukowski.ColumnReader[int64], b int) error {
			_, err := cr.ReadBlock(b, nil)
			return err
		}},
	} {
		t.Run(caller.name, func(t *testing.T) {
			cache := zukowski.NewBlockLRU(1 << 30)
			cr, counter := openCached[int64](t, data, cache)
			baseline := counter.reads.Load() // open-time directory reads

			const goroutines = 100
			var start, wg sync.WaitGroup
			start.Add(1)
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					start.Wait()
					for b := 0; b < cr.NumBlocks(); b++ {
						if err := caller.read(cr, b); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			start.Done()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got := counter.reads.Load() - baseline; got != int64(cr.NumBlocks()) {
				t.Fatalf("%d goroutines x %d blocks issued %d source reads, want %d",
					goroutines, cr.NumBlocks(), got, cr.NumBlocks())
			}
			st := cache.Stats()
			if st.Puts != int64(cr.NumBlocks()) {
				t.Fatalf("cache filled %d times, want %d", st.Puts, cr.NumBlocks())
			}
		})
	}
}

// TestConcurrentCacheHammer: concurrent scans, point reads and
// FrameBytes over one shared tiny cache across two readers; run under
// -race. Values must stay correct while eviction churns underneath.
func TestConcurrentCacheHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	src := genValues[int64](rng, 12_000)
	data := buildColumnV2[int64](t, nil, 512, src)

	cache := zukowski.NewBlockLRU(16 * 2 * (4096 + 112)) // ~2 frames per shard
	crA, _ := openCached[int64](t, data, cache)
	crB, _ := openCached[int64](t, data, cache)
	readers := []*zukowski.ColumnReader[int64]{crA, crB}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			cr := readers[seed%2]
			for i := 0; i < 30; i++ {
				switch rng.Intn(3) {
				case 0:
					n := 0
					if err := cr.Scan(func(vals []int64) bool { n += len(vals); return true }); err != nil {
						errs <- err
						return
					}
					if n != len(src) {
						errs <- fmt.Errorf("scan saw %d values", n)
						return
					}
				case 1:
					idx := rng.Intn(len(src))
					v, err := cr.Get(idx)
					if err != nil {
						errs <- err
						return
					}
					if v != src[idx] {
						errs <- fmt.Errorf("Get(%d) = %d want %d", idx, v, src[idx])
						return
					}
				case 2:
					if _, err := cr.FrameBytes(rng.Intn(cr.NumBlocks())); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Puts-st.Evictions != st.Entries {
		t.Fatalf("accounting drifted: %+v", st)
	}
}

// TestCacheHitPathZeroAllocs: once the working set is cached, a full
// file-backed scan allocates nothing per pass — the cache restores the
// in-memory reader's zero-alloc steady state.
func TestCacheHitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is asserted in the non-race run")
	}
	rng := rand.New(rand.NewSource(75))
	src := genValues[int64](rng, 8_192)
	data := buildColumnV2[int64](t, nil, 1024, src)

	cache := zukowski.NewBlockLRU(1 << 30)
	cr, _ := openCached[int64](t, data, cache)
	scan := func() {
		if err := cr.Scan(func([]int64) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	scan() // warm the cache and the decode-state pool
	scan()
	if allocs := testing.AllocsPerRun(10, scan); allocs != 0 {
		t.Fatalf("warmed file-backed scan allocates %v/op", allocs)
	}
}

// TestCacheMissAllocs: a cold FrameBytes allocates the frame it hands
// back — with a cache, the copy the cache kept, plus the cache's entry —
// and nothing else: the read goes into a pooled run buffer, and the
// source is read with ReadAt directly, not through a SectionReader built
// per read.
func TestCacheMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is asserted in the non-race run")
	}
	rng := rand.New(rand.NewSource(80))
	src := genValues[int64](rng, 400*256)
	data := buildColumnV2[int64](t, nil, 256, src)
	for _, tc := range []struct {
		cache *zukowski.BlockLRU
		want  float64
	}{{nil, 1}, {zukowski.NewBlockLRU(1 << 30), 2}} {
		var opts []zukowski.ReaderOption
		if tc.cache != nil {
			opts = append(opts, zukowski.WithBlockCache(tc.cache))
		}
		cr, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		allocs := testing.AllocsPerRun(300, func() {
			if _, err := cr.FrameBytes(next); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if allocs > tc.want {
			t.Errorf("cache %v: %v allocations per cold FrameBytes, want at most %v", tc.cache != nil, allocs, tc.want)
		}
		if tc.cache != nil && tc.cache.Stats().Misses != int64(next) {
			t.Fatalf("%d misses over %d cold fetches", tc.cache.Stats().Misses, next)
		}
	}
}

// TestCacheCorruptBlockNeverCached: a block that fails its CRC is not
// inserted into the cache, and stays an error on every subsequent touch
// rather than being masked by a stale cached copy.
func TestCacheCorruptBlockNeverCached(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	src := genValues[int64](rng, 3*512)
	data := buildColumnV2[int64](t, nil, 512, src)

	cr0, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cr0.BlockInfo(1)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(data)
	bad[int(info.Offset)+5] ^= 0x40

	cache := zukowski.NewBlockLRU(1 << 30)
	cr, _ := openCached[int64](t, bad, cache)
	for pass := 0; pass < 3; pass++ {
		if _, err := cr.FrameBytes(1); !errors.Is(err, zukowski.ErrChecksumMismatch) {
			t.Fatalf("pass %d: FrameBytes err = %v, want ErrChecksumMismatch", pass, err)
		}
	}
	// Healthy neighbors cache fine; the corrupt block never entered.
	if _, err := cr.FrameBytes(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cr.FrameBytes(2); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 2 || st.Puts != 2 {
		t.Fatalf("corrupt block leaked into cache: %+v", st)
	}
	if err := cr.Scan(func([]int64) bool { return true }); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("Scan err = %v, want ErrChecksumMismatch", err)
	}
}

// TestCacheInMemoryNoop: attaching a cache to an in-memory reader is a
// no-op — the stable source latches verification instead, and the cache
// never sees traffic.
func TestCacheInMemoryNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	src := genValues[uint16](rng, 2_000)
	data := buildColumnV2[uint16](t, nil, 256, src)

	cache := zukowski.NewBlockLRU(1 << 20)
	cr, err := zukowski.OpenColumn[uint16](data, zukowski.WithBlockCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Scan(func([]uint16) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits+st.Misses+st.Puts != 0 {
		t.Fatalf("in-memory reader touched the cache: %+v", st)
	}
}

// TestCacheDetach: SetBlockCache(nil) detaches; later scans go back to
// re-reading the source and the cache sees no new traffic.
func TestCacheDetach(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	src := genValues[int64](rng, 2_048)
	data := buildColumnV2[int64](t, nil, 512, src)

	cache := zukowski.NewBlockLRU(1 << 30)
	cr, counter := openCached[int64](t, data, cache)
	if err := cr.Scan(func([]int64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	attached := cache.Stats()
	cr.SetBlockCache(nil)
	before := counter.reads.Load()
	if err := cr.Scan(func([]int64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if counter.reads.Load() == before {
		t.Fatal("detached reader did not re-read the source")
	}
	if st := cache.Stats(); st.Puts != attached.Puts || st.Hits != attached.Hits {
		t.Fatalf("detached reader still drove the cache: %+v vs %+v", st, attached)
	}
}
