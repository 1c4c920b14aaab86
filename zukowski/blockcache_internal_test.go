package zukowski

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/core"
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
// parsed block resident in the cache and memoizes nothing in the reader,
// so point lookups over a column larger than the cache stay within the
// cache's budget. A cache with room for two of the 64 blocks in each of
// its 16 shards takes all the lookups' frames, parsed forms where there is
// room to spare, and stays within its budget; one that holds the column
// keeps every block's parsed form, and Get reads it.
func TestResidentGetKeepsNoMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const bv = 256
	src := make([]int64, 64*bv)
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
	data := buf.Bytes()
	plain, err := OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := plain.FrameBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	blk := new(core.Block[int64])
	if err := parseSegmentInto(blk, frame, true); err != nil {
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
		for b := range cr.slots {
			if cr.slots[b].parsed.Load() != nil {
				t.Fatalf("%s: block %d: Get memoized a parsed block in the reader beside a BlockLRU", c.name, b)
			}
		}
		st, parsed := cache.Stats(), len(ResidentParsed[int64](cache))
		if c.budget == 1<<30 && (st.Entries != 64 || parsed != 64) {
			t.Fatalf("%s: %d frames and %d parsed forms resident, want all 64", c.name, st.Entries, parsed)
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
