package zukowski

import (
	"repro/internal/core"
	"repro/internal/segment"
)

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

// SetBlockCacheID attaches c to the file-backed reader cr under column id
// id rather than a fresh one, so that a test places the same frames in the
// same shards on every run. The caller keeps ids unique within c.
func SetBlockCacheID[T Integer](cr *ColumnReader[T], c *BlockLRU, id uint64) {
	cr.cache.Store(&attachedCache{c: c, id: id})
}

// MissingForms counts the patched frames c holds without a parsed form,
// and of those the ones whose shard has the room to spare (spare) for the
// form a parse of the frame costs: frames the room rule should have given
// one.
func MissingForms[T Integer](c *BlockLRU) (missing, withRoom int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			var blk core.Block[T]
			if e.parsed != nil || !segment.IsCompressed(e.buf) || segment.UnmarshalIntoTrusted(&blk, e.buf) != nil {
				continue
			}
			missing++
			if parsedCost(&blk, e.buf) <= c.spare(sh, e) {
				withRoom++
			}
		}
		sh.mu.Unlock()
	}
	return missing, withRoom
}
