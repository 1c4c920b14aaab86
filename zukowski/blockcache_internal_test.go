package zukowski

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/segment"
)

// TestBlockLRURetiredReaderAgesOut: the frames of a reader nobody asks for
// any more — each asked for as often as the sketch counts — are replaced
// by a successor's within a bounded number of its accesses. Counts are
// halved every period accesses to a shard, so after bits.Len(sketchMax)
// halvings the retired keys count zero and any key asked for once wins;
// one period more covers a halving that lands between a Get and its Put.
func TestBlockLRURetiredReaderAgesOut(t *testing.T) {
	frame := make([]byte, 8000)
	c := NewBlockLRU(cacheShards * 4 * (int64(len(frame)) + cacheEntryOverhead)) // four frames a shard
	sh := &c.shards[0]
	inShard := func(col uint64, n int) []int {
		var blocks []int
		for b := 0; len(blocks) < n; b++ {
			if c.shardOf(hashKey(cacheKey{col: col, block: b})) == sh {
				blocks = append(blocks, b)
			}
		}
		return blocks
	}
	retired, successor := inShard(1, 4), inShard(2, 8)
	for _, b := range retired {
		for i := 0; i < sketchMax; i++ {
			c.Get(1, b)
		}
		c.Put(1, b, frame)
	}
	residentRetired := func() int {
		n := 0
		for _, b := range retired {
			if c.peek(1, b) != nil {
				n++
			}
		}
		return n
	}
	if got := residentRetired(); got != 4 || sh.freq.added != 4*sketchMax {
		t.Fatalf("%d retired frames resident after %d accesses, want 4 after %d", got, sh.freq.added, 4*sketchMax)
	}

	bound := (bits.Len(sketchMax) + 1) * sh.freq.period
	accesses := 0
	for residentRetired() > 0 {
		if accesses > bound {
			t.Fatalf("%d retired frames still resident after %d accesses by their successor (bound %d)",
				residentRetired(), accesses, bound)
		}
		for _, b := range successor {
			accesses++
			if c.Get(2, b) == nil {
				c.Put(2, b, frame)
			}
		}
	}
	st := c.Stats()
	if st.Declined == 0 {
		t.Fatal("the retired frames never held their place: admission was not exercised")
	}
	t.Logf("retired frames replaced after %d accesses (bound %d, sketch period %d); %d offers declined on the way",
		accesses, bound, sh.freq.period, st.Declined)
}

// TestResidentGetKeepsNoMemo: with a BlockLRU attached, Get reads the
// parsed block resident in the cache, so point lookups over a column
// larger than the cache stay within the cache's budget. A cache with room for two of the 64 blocks in each of
// its 16 shards takes all the lookups' frames, parsed forms where there is
// room to spare, and stays within its budget; one that holds the column
// keeps every block's parsed form, and Get reads it.
func TestResidentGetKeepsNoMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const bv = 256
	src, data := patchedColumn(t, rng, 64, bv)
	plain, err := OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := plain.FrameBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	blk := new(core.Block[int64])
	if err := segment.UnmarshalIntoTrusted(blk, frame); err != nil {
		t.Fatal(err)
	}
	entry := int64(len(frame)) + cacheEntryOverhead + parsedCost(blk, frame)
	for _, c := range []struct {
		name   string
		budget int64
	}{{"two a shard", cacheShards * (2*entry + entry/8)}, {"the column", 1 << 30}} {
		cache := NewBlockLRU(c.budget)
		cr, err := OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)), WithBlockCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 3; pass++ {
			for b := 0; b < cr.NumBlocks(); b++ {
				i := b*bv + rng.Intn(bv)
				if v, err := cr.Get(i); err != nil || v != src[i] {
					t.Fatalf("%s, pass %d: Get(%d) = %d, %v; want %d", c.name, pass, i, v, err, src[i])
				}
				if st := cache.Stats(); st.Bytes > st.Capacity {
					t.Fatalf("%s, pass %d, block %d: %d bytes resident, capacity %d", c.name, pass, b, st.Bytes, st.Capacity)
				}
			}
		}
		st, parsed := cache.Stats(), len(ResidentParsed[int64](cache))
		if c.budget == 1<<30 && (st.Entries != 64 || parsed != 64) {
			t.Fatalf("%s: %d frames and %d parsed forms resident, want all 64", c.name, st.Entries, parsed)
		}
	}
}

// patchedColumn writes a column of blocks blocks of bv values as PFOR
// blocks with about one exception in fifteen values, and returns the
// values and the container.
func patchedColumn(t *testing.T, rng *rand.Rand, blocks, bv int) ([]int64, []byte) {
	t.Helper()
	src := make([]int64, blocks*bv)
	for i := range src {
		src[i] = rng.Int63n(1000)
		if rng.Intn(15) == 0 {
			src[i] = rng.Int63n(1 << 40)
		}
	}
	var buf bytes.Buffer
	cw, err := NewColumnWriter[int64](&buf, PFOR[int64]{Base: 0, Width: 10}, bv)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return src, buf.Bytes()
}

// TestResidentUncachedKeepsNothing: a file-backed reader without a cache
// has no resident bytes to keep a parsed form beside, so Get, ReadBlock,
// ReadAll, Scan and Run leave every block's slot empty; an in-memory
// reader of the same container keeps a form in every slot after one Get
// per block.
func TestResidentUncachedKeepsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	const bv = 256
	src, data := patchedColumn(t, rng, 8, bv)
	file, err := OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range []*ColumnReader[int64]{file, plain} {
		for b := 0; b < cr.NumBlocks(); b++ {
			i := b*bv + rng.Intn(bv)
			if v, err := cr.Get(i); err != nil || v != src[i] {
				t.Fatalf("Get(%d) = %d, %v; want %d", i, v, err, src[i])
			}
		}
	}
	for b := 0; b < file.NumBlocks(); b++ {
		if _, err := file.ReadBlock(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	if all, err := file.ReadAll(nil); err != nil || len(all) != len(src) {
		t.Fatalf("ReadAll: %d values, %v", len(all), err)
	}
	if err := file.Scan(func([]int64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	cs, err := NewColumnSet(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Run(context.Background(), Query[int64]{}, func(int, []int64, [][]int64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	for b := range file.slots {
		if file.slots[b].form.Load() != nil {
			t.Fatalf("block %d: an uncached file-backed reader kept a parsed form", b)
		}
		if plain.slots[b].form.Load() == nil {
			t.Fatalf("block %d: an in-memory reader kept no parsed form after a Get", b)
		}
	}
}

// TestResidentInMemoryOneForm: on an in-memory reader Get, ReadBlock and
// Run share one resident form per block — the one in the block's slot,
// indexed. (TestResidentInMemoryZeroAllocs times the same paths.)
func TestResidentInMemoryOneForm(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	const bv = 512
	src, data := patchedColumn(t, rng, 8, bv)
	cr, err := OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewColumnSet(cr)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < cr.NumBlocks(); b++ {
		if v, err := cr.Get(b*bv + 7); err != nil || v != src[b*bv+7] {
			t.Fatalf("Get(%d) = %d, %v", b*bv+7, v, err)
		}
	}
	st := cs.getState()
	defer cs.putState(st)
	for b := 0; b < cr.NumBlocks(); b++ {
		form := cr.slots[b].form.Load()
		if form == nil || form.ExcOff == nil {
			t.Fatalf("block %d: slot form %v, want an indexed form", b, form)
		}
		if blk, _, err := cr.block(nil, b, planned{}, new(core.Block[int64])); err != nil || blk != form {
			t.Fatalf("block %d: Get's and ReadBlock's path read %p, %v; the slot holds %p", b, blk, err, form)
		}
		st.begin()
		if _, err := cs.prepare(st, 0, b); err != nil || st.cols[0].cur != form {
			t.Fatalf("block %d: Run's path read %p, %v; the slot holds %p", b, st.cols[0].cur, err, form)
		}
	}
}

// TestResidentConcurrentFirstParse: 100 goroutines racing to read the
// same cold blocks of an in-memory reader leave exactly one form per
// block: every read returns the form the slot holds, whichever parse
// stored it. Runs under -race in CI.
func TestResidentConcurrentFirstParse(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const bv = 256
	src, data := patchedColumn(t, rng, 4, bv)
	cr, err := OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 100
	seen := make([][]*core.Block[int64], goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			for b := 0; b < cr.NumBlocks(); b++ {
				i := b*bv + (g*31)%bv
				if v, err := cr.Get(i); err != nil || v != src[i] {
					t.Errorf("Get(%d) = %d, %v; want %d", i, v, err, src[i])
					return
				}
				blk, _, err := cr.block(nil, b, planned{}, new(core.Block[int64]))
				if err != nil {
					t.Error(err)
					return
				}
				seen[g] = append(seen[g], blk)
			}
		}()
	}
	start.Done()
	wg.Wait()
	for b := 0; b < cr.NumBlocks(); b++ {
		form := cr.slots[b].form.Load()
		for g := range seen {
			if len(seen[g]) != cr.NumBlocks() || seen[g][b] != form {
				t.Fatalf("block %d: goroutine %d read another form than the slot's %p", b, g, form)
			}
		}
	}
}

// TestBlockLRUShedsFormsBeforeFrames: parsed forms give their room back
// before a frame is declined or evicted. A shard warmed with forms admits
// the frames that fill it by dropping forms, without evicting, and under a
// random mix of hits, misses and attaches its frames, evictions and
// declines stay those of a twin cache that never keeps a form.
func TestBlockLRUShedsFormsBeforeFrames(t *testing.T) {
	const form = 300
	entry := int64(1000) + cacheEntryOverhead
	withForms, framesOnly := NewBlockLRU(cacheShards*8*entry), NewBlockLRU(cacheShards*8*entry) // eight frames a shard
	sh := &withForms.shards[0]
	var keys []int
	for b := 0; len(keys) < 24; b++ {
		if withForms.shardOf(hashKey(cacheKey{col: 1, block: b})) == sh {
			keys = append(keys, b)
		}
	}
	// Frames of 100 to 1,900 bytes leave slack in a full shard for forms.
	frame := func(b int) []byte { return make([]byte, 100+b*337%1801) }
	// access is one scan's lookup of key b on both caches: a miss fills,
	// a hit without a form attaches one where the shard has room for it.
	attached, shed := 0, 0
	access := func(b int) {
		framesOnly.lookup(1, b)
		buf, parsed, room := withForms.lookup(1, b)
		switch {
		case buf == nil:
			forms := sh.forms
			withForms.Put(1, b, frame(b))
			framesOnly.Put(1, b, frame(b))
			if sh.forms < forms {
				shed++
			}
		case parsed == nil && room >= form:
			if withForms.attach(1, b, buf, b, form) == nil {
				t.Fatalf("block %d: attach with %d bytes of room declined", b, room)
			}
			attached++
		}
	}
	check := func(when string) {
		t.Helper()
		a, b := withForms.Stats(), framesOnly.Stats()
		if a.Entries != b.Entries || a.Puts != b.Puts || a.Evictions != b.Evictions || a.Declined != b.Declined {
			t.Fatalf("%s: with forms %d frames, %d puts, %d evictions, %d declined; without %d, %d, %d, %d",
				when, a.Entries, a.Puts, a.Evictions, a.Declined, b.Entries, b.Puts, b.Evictions, b.Declined)
		}
		for _, k := range keys {
			if (withForms.peek(1, k) == nil) != (framesOnly.peek(1, k) == nil) {
				t.Fatalf("%s: block %d resident in one cache only", when, k)
			}
		}
		if a.Bytes > a.Capacity || a.Bytes != b.Bytes+sh.forms {
			t.Fatalf("%s: %d bytes with forms, %d without, %d in forms, capacity %d", when, a.Bytes, b.Bytes, sh.forms, a.Capacity)
		}
	}

	var warm []int // frames filling half the shard: a miss, then a hit that attaches
	for used, i := int64(0), 0; used+int64(len(frame(keys[i])))+cacheEntryOverhead <= 4*entry; i++ {
		used += int64(len(frame(keys[i]))) + cacheEntryOverhead
		warm = append(warm, keys[i])
		access(keys[i])
		access(keys[i])
	}
	if sh.forms != int64(len(warm))*form {
		t.Fatalf("warm shard keeps %d bytes of forms, want %d", sh.forms, len(warm)*form)
	}
	// Fill the shard with the frames that still fit beside the warm ones.
	for _, b := range keys[len(warm):] {
		if framesOnly.shards[0].bytes+int64(len(frame(b)))+cacheEntryOverhead > framesOnly.shardMax {
			continue
		}
		access(b)
		check(fmt.Sprintf("filling, block %d", b))
	}
	if st := withForms.Stats(); st.Evictions != 0 || st.Declined != 0 || shed == 0 {
		t.Fatalf("filling the shard: %d evictions, %d declines, %d Puts shed forms; want forms shed, no frame lost",
			st.Evictions, st.Declined, shed)
	}

	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 4000; i++ {
		access(keys[min(rng.Intn(len(keys)), rng.Intn(len(keys)))]) // skewed to the first keys
		check(fmt.Sprintf("access %d", i))
	}
	if st := withForms.Stats(); st.Evictions == 0 || st.Declined == 0 || attached < 50 || shed < 50 {
		t.Fatalf("%d evictions, %d declines, %d forms attached, %d Puts shed forms: the mix did not exercise the rule",
			st.Evictions, st.Declined, attached, shed)
	}
	t.Logf("%d evictions, %d declines, %d forms attached, %d Puts shed forms", withForms.Stats().Evictions, withForms.Stats().Declined, attached, shed)
	EvictAll(withForms)
	if st := withForms.Stats(); st.Bytes != 0 || st.Entries != 0 || sh.forms != 0 {
		t.Fatalf("evicting everything left %d bytes, %d frames, %d bytes of forms", st.Bytes, st.Entries, sh.forms)
	}
}

// TestRunBufferFitsTheRead: a read without a plan (Get, ReadBlock, Scan,
// FrameBytes, Run's workers) holds a buffer the size of its one frame, not
// a runCap buffer; a read that plans a run of several frames trades it for
// one.
func TestRunBufferFitsTheRead(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	_, data := patchedColumn(t, rng, 8, 256)
	cr, err := OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	plan := &blockPlan{ncols: 1}
	for b := 0; b < cr.NumBlocks(); b++ {
		plan.entries = append(plan.entries, planEntry{block: b})
		plan.reads = append(plan.reads, true)
	}
	var run frameRun
	defer run.release()
	for _, tc := range []struct {
		b     int
		reads planned
		end   int
		big   bool
	}{
		{2, planned{}, 3, false},
		{4, planned{plan, 4, 0}, cr.NumBlocks(), true},
	} {
		f, err := cr.frame(&run, tc.b, tc.reads)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cr.FrameBytes(tc.b)
		if err != nil || !bytes.Equal(f.frame, want) {
			t.Fatalf("block %d: frame differs from FrameBytes (%v)", tc.b, err)
		}
		if run.first != tc.b || run.end != tc.end {
			t.Fatalf("block %d: run holds [%d,%d), want [%d,%d)", tc.b, run.first, run.end, tc.b, tc.end)
		}
		if big := cap(*run.buf) >= runCap; big != tc.big {
			t.Fatalf("block %d: run of %d frames holds a buffer of cap %d", tc.b, run.end-run.first, cap(*run.buf))
		}
	}
}
