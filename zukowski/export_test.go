package zukowski

import "repro/internal/core"

// RunCap is the byte budget of one run of adjacent frames, for tests that
// bound how many reads a sequential scan issues.
const RunCap = runCap

// ResidentParsed returns the parsed blocks a BlockLRU keeps beside its
// frames, for tests that inspect or checksum them.
func ResidentParsed[T Integer](c *BlockLRU) []*core.Block[T] {
	var out []*core.Block[T]
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if p, ok := e.parsed.(*core.Block[T]); ok {
				out = append(out, p)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// EvictAll empties every shard of c through the eviction path.
func EvictAll(c *BlockLRU) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.evictTo(sh, 0)
		sh.mu.Unlock()
	}
}
