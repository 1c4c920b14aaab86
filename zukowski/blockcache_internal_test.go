package zukowski

import (
	"math/bits"
	"testing"
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
