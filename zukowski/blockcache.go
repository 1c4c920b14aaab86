package zukowski

// The hot-block cache. The paper's decompression-bandwidth argument only
// holds while the compressed bytes are already in RAM: a file-backed
// column (OpenColumnReaderAt) re-reads and re-verifies every block it
// touches from its io.ReaderAt, so a scan-heavy workload over a warm
// working set pays a read syscall and a CRC32-C pass per frame per scan —
// exactly the RAM-CPU gap the schemes exist to close. (A sequential scan
// reads the frames it misses in runs, into a buffer it owns and reuses, so
// what it pays per frame is the read's share and the hash, not an
// allocation.) A BlockLRU keeps recently touched, checksum-verified
// frame bytes resident under a byte budget, shared across every reader
// (and therefore every column and table) attached to it. Under the
// immutable-container model a cached frame can never go stale — the
// writer never rewrites a closed container, and a replaced file is
// served through a freshly opened reader whose cache keys differ — so
// the only invalidation is eviction.
//
// A full BlockLRU admits by frequency, after TinyLFU (Einziger, Friedman
// and Manes, ACM TOS 2017): every Get counts its key in a small count-min
// sketch per shard, and a frame offered to a full shard displaces the
// least recently used entry only if its key was asked for strictly more
// often. A sweep over more frames than the budget holds therefore leaves
// the frequently used ones resident instead of cycling every frame through
// the cache once. Counts are halved periodically, so the entries of a
// retired reader, whose keys are never asked for again, lose their claim
// within a bounded number of accesses.
//
// A BlockLRU also keeps, beside a resident frame, the frame's parsed form
// (a core.Block: header, entry points, dictionary, exceptions, and an
// index of where each exception sits in its group) once a scan has parsed
// it there, and charges its bytes to the budget. A hot block is then
// parsed once per residency, not once per query; eviction drops both.
// A parsed form only takes room the shard has to spare — room it would
// still have with one more frame of the same size admitted — and it gives
// that room back before any frame is declined or evicted: a frame costs a
// read to get back, the form only a parse. Put decides admission on the
// frames' bytes alone and sheds parsed forms, least recently used first,
// before it evicts a frame, so the frames a shard holds are the ones it
// would hold without forms. In a shard full of frames hits parse per query
// as before. The parsed form is read-only, forever, like the frame: every
// scan that finds it shares it, and its code section reads the frame in
// place.

import (
	"sync"
	"sync/atomic"
)

// blockCacheIDs hands out the process-unique column ids SetBlockCache
// assigns. Ids are never reused, which is what makes eviction the only
// invalidation a cache needs.
var blockCacheIDs atomic.Uint64

// CacheStats is a point-in-time snapshot of a BlockLRU's counters.
type CacheStats struct {
	Hits      int64 // Get calls answered from the cache
	Misses    int64 // Get calls that found nothing
	Puts      int64 // frames accepted into the cache
	Declined  int64 // frames a full shard turned away: asked for no more often than its LRU entry
	Evictions int64 // frames evicted to stay under the byte budget

	Bytes    int64 // resident frames, parsed forms and bookkeeping bytes right now
	Entries  int64 // resident frames right now
	Capacity int64 // configured byte budget
}

// HitRate returns Hits / (Hits + Misses), or 0 before any Get.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

const (
	// cacheShards spreads the cache over independently locked shards so
	// concurrent scans of different blocks rarely contend. 16 is enough
	// for the core counts this library targets; the shard is picked by a
	// hash of the key, so co-resident columns spread evenly.
	cacheShards = 16

	// cacheEntryOverhead approximates the bookkeeping bytes an entry
	// costs beyond its payload (map bucket share, entry struct, slice
	// header), so the byte budget reflects real memory, not just frame
	// bytes.
	cacheEntryOverhead = 112

	// sketchBytesPer is the shard budget one counter of each of the
	// sketch's four rows stands for: with frames of a few KiB a row has
	// several counters per resident entry, and the sketch costs under 1 %
	// of the budget. A row holds 16 to 2^16 counters.
	sketchBytesPer = 256
	sketchMinWords = 4
	sketchMaxWords = 1 << 14

	// sketchMax saturates a counter: TinyLFU's 4-bit counters, so a halving
	// every sample period brings the most-used key to 0 within four.
	sketchMax = 15
)

type cacheKey struct {
	col   uint64
	block int
}

// cacheEntry is one resident frame, linked into its shard's LRU list.
// parsed is the frame's parsed form once a scan attached it, and pcost
// what that form charges; cost is what the entry charges the budget:
// frame, parsed form and bookkeeping.
type cacheEntry struct {
	key        cacheKey
	hash       uint64
	buf        []byte
	parsed     any
	pcost      int64
	cost       int64
	prev, next *cacheEntry
}

// sketch is a shard's access-frequency estimate: a count-min sketch of
// four rows of saturating 4-bit counters, laid out so that a key's four
// counters share one 64-bit word (sixteen counters, four per row), and
// counting or estimating a key touches one cache line. Every Get adds its
// key; after period additions every counter is halved, so the estimate
// follows recent use and a key nobody asks for any more decays to zero.
type sketch struct {
	words  []uint64
	mask   uint64 // len(words) - 1
	added  int
	period int
}

func (s *sketch) init(shardMax int64) {
	n := sketchMinWords
	for n < sketchMaxWords && int64(n)*4*sketchBytesPer < shardMax {
		n <<= 1
	}
	s.words = make([]uint64, n)
	s.mask = uint64(n - 1)
	s.period = 4 * n
}

// word returns a key's word and, in g, the bits that pick its counter in
// each row: row r's counter is the word's nibble 4r+(g>>2r&3). Both come
// from the high bits of h times an odd constant, which depend on every bit
// of h, so a shard's keys (which share the bits of h that picked the
// shard) still spread over the whole sketch.
func (s *sketch) word(h uint64) (w *uint64, g uint64) {
	g = h * 0x9E3779B97F4A7C15
	return &s.words[(g>>40)&s.mask], g >> 56
}

// nibble is the bit offset of row r's counter for selector bits g.
func nibble(g uint64, r uint) uint { return 16*r + 4*uint(g>>(2*r)&3) }

func (s *sketch) add(h uint64) {
	w, g := s.word(h)
	x := *w
	// One increment per row at the nibble's low bit, dropped where the
	// nibble is already full (all four of its bits set).
	inc := uint64(1)<<nibble(g, 0) | uint64(1)<<nibble(g, 1) | uint64(1)<<nibble(g, 2) | uint64(1)<<nibble(g, 3)
	full := x & (x >> 1) & (x >> 2) & (x >> 3) & 0x1111111111111111
	*w = x + inc&^full
	if s.added++; s.added >= s.period {
		for i := range s.words {
			s.words[i] = (s.words[i] >> 1) & 0x7777777777777777
		}
		s.added /= 2
	}
}

func (s *sketch) estimate(h uint64) uint64 {
	w, g := s.word(h)
	x, est := *w, uint64(sketchMax)
	for r := uint(0); r < 4; r++ {
		est = min(est, (x>>nibble(g, r))&0xF)
	}
	return est
}

// cacheShard is one lock's worth of the cache: a map for lookup, an
// intrusive doubly-linked list for recency, most recent at head.next, and
// the frequency sketch that guards admission once the shard is full.
// bytes counts everything the shard charges, forms the share of it that
// parsed forms take.
type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	head    cacheEntry // sentinel: head.next is MRU, head.prev is LRU
	bytes   int64
	forms   int64
	freq    sketch
}

func (sh *cacheShard) init(shardMax int64) {
	sh.entries = make(map[cacheKey]*cacheEntry)
	sh.head.next = &sh.head
	sh.head.prev = &sh.head
	sh.freq.init(shardMax)
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.next = sh.head.next
	e.prev = &sh.head
	e.next.prev = e
	sh.head.next = e
}

// BlockLRU is the hot-block cache: a sharded, byte-bounded LRU store of
// verified raw block frames, and of their parsed forms, with
// frequency-based admission. One BlockLRU is meant to be shared
// process-wide: attach it to every file-backed reader (zkserve's registry
// does exactly that) and the budget bounds the hot set across all of them
// together. Keys are (col, block): col is a process-unique id a reader
// acquires when the cache is attached (never reused, so entries of a
// discarded reader simply age out), block the block index within that
// reader's container. A shard with room admits every frame offered; a
// full one admits a frame only when its key has been asked for more often
// than the entry it would evict (see the file comment). All methods are
// safe for concurrent use, and Get on a resident entry performs no
// allocation — the cache stays off the scan path's allocation profile.
// The bytes Get returns are shared between the cache and every caller:
// they must be treated as immutable by everyone, forever.
type BlockLRU struct {
	shards    [cacheShards]cacheShard
	shardMax  int64 // byte budget per shard
	capacity  int64 // configured total budget
	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	declined  atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
	entries   atomic.Int64
}

// NewBlockLRU returns a cache bounded by maxBytes of resident frames
// (payload plus per-entry bookkeeping). A frame larger than its shard's
// share of the budget (maxBytes / 16) is declined rather than allowed
// to thrash the shard. maxBytes <= 0 yields a cache that stores
// nothing. The admission sketch is sized from the budget.
func NewBlockLRU(maxBytes int64) *BlockLRU {
	c := &BlockLRU{capacity: max(maxBytes, 0)}
	c.shardMax = c.capacity / cacheShards
	for i := range c.shards {
		c.shards[i].init(c.shardMax)
	}
	return c
}

// hashKey mixes a key so that sequential block indices of one column
// spread across shards (a splitmix64-style finalizer).
func hashKey(k cacheKey) uint64 {
	h := k.col ^ (uint64(k.block) * 0x9E3779B97F4A7C15)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return h
}

func (c *BlockLRU) shardOf(h uint64) *cacheShard { return &c.shards[h%cacheShards] }

// Get returns the frame cached under (col, block), or nil, promoting a
// hit to most-recently-used. Hit or miss, the key's use is counted for
// admission. The returned bytes are shared: read-only.
func (c *BlockLRU) Get(col uint64, block int) []byte {
	buf, _, _ := c.lookup(col, block)
	return buf
}

// lookup is Get that also returns the parsed form attached to the frame,
// or nil, and the bytes the frame's shard has to spare for one (see
// spare): one lock, one hit or one miss counted.
func (c *BlockLRU) lookup(col uint64, block int) ([]byte, any, int64) {
	k := cacheKey{col: col, block: block}
	h := hashKey(k)
	sh := c.shardOf(h)
	sh.mu.Lock()
	sh.freq.add(h)
	e := sh.entries[k]
	if e == nil {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, nil, 0
	}
	sh.unlink(e)
	sh.pushFront(e)
	buf, parsed, room := e.buf, e.parsed, c.spare(sh, e)
	sh.mu.Unlock()
	c.hits.Add(1)
	return buf, parsed, room
}

// attach keeps parsed, which costs bytes of memory, beside the frame
// resident under (col, block), charging them to the budget, and returns
// the parsed form now resident: parsed, or what an earlier attach kept
// (the first attach wins). It returns nil when frame is not the copy
// resident under (col, block), or when the shard has not the room to
// spare.
func (c *BlockLRU) attach(col uint64, block int, frame []byte, parsed any, bytes int64) any {
	k := cacheKey{col: col, block: block}
	sh := c.shardOf(hashKey(k))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	switch {
	case e == nil || len(e.buf) != len(frame) || len(frame) == 0 || &e.buf[0] != &frame[0]:
		return nil
	case e.parsed != nil:
		return e.parsed
	case bytes > c.spare(sh, e):
		return nil
	}
	e.parsed, e.pcost = parsed, bytes
	e.cost += bytes
	sh.bytes += bytes
	sh.forms += bytes
	c.bytes.Add(bytes)
	return parsed
}

// spare is the room sh has for e's parsed form: what is left of its
// budget once one more frame of e's size is admitted. The caller holds
// sh.mu.
func (c *BlockLRU) spare(sh *cacheShard, e *cacheEntry) int64 {
	return c.shardMax - sh.bytes - int64(len(e.buf)) - cacheEntryOverhead
}

// peek returns the frame cached under (col, block), or nil, leaving the
// counters, the sketch and the recency order as they were. A reader uses
// it to re-check a key it has already counted as missed, to stop a
// read-ahead at the first resident frame and to return the copy Put kept.
func (c *BlockLRU) peek(col uint64, block int) []byte {
	k := cacheKey{col: col, block: block}
	sh := c.shardOf(hashKey(k))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[k]; e != nil {
		return e.buf
	}
	return nil
}

// Put keeps a copy of frame under (col, block) when the shard admits it,
// shedding parsed forms and then evicting least-recently-used entries
// until the shard fits its budget again. A shard whose frames leave room
// admits; a full one admits only a key Get has counted strictly more often
// than its LRU entry's, and otherwise keeps the entry and declines. Parsed
// forms count for neither: a frame is never declined or evicted to keep
// one. An oversized frame is declined outright; a
// duplicate key keeps the resident entry (a reader's fill from the source
// is singleflighted per block, so duplicates only arise from frames a scan
// read ahead and from independent readers over the same bytes, where
// either copy is equally valid). Only an admitted frame costs an
// allocation.
func (c *BlockLRU) Put(col uint64, block int, frame []byte) {
	cost := int64(len(frame)) + cacheEntryOverhead
	if cost > c.shardMax {
		return
	}
	k := cacheKey{col: col, block: block}
	h := hashKey(k)
	sh := c.shardOf(h)
	sh.mu.Lock()
	if _, dup := sh.entries[k]; dup {
		sh.mu.Unlock()
		return
	}
	if sh.bytes-sh.forms+cost > c.shardMax && sh.freq.estimate(h) <= sh.freq.estimate(sh.head.prev.hash) {
		sh.mu.Unlock()
		c.declined.Add(1)
		return
	}
	e := &cacheEntry{key: k, hash: h, buf: append([]byte(nil), frame...), cost: cost}
	sh.entries[k] = e
	sh.pushFront(e)
	sh.bytes += cost
	c.bytes.Add(cost)
	c.entries.Add(1)
	c.puts.Add(1)
	c.shedForms(sh, c.shardMax)
	c.evictTo(sh, c.shardMax)
	sh.mu.Unlock()
}

// shedForms drops parsed forms, least recently used first, until sh holds
// at most limit bytes or keeps no form; their frames stay resident. The
// caller holds sh.mu.
func (c *BlockLRU) shedForms(sh *cacheShard, limit int64) {
	for e := sh.head.prev; e != &sh.head && sh.bytes > limit && sh.forms > 0; e = e.prev {
		if e.parsed == nil {
			continue
		}
		sh.bytes -= e.pcost
		sh.forms -= e.pcost
		c.bytes.Add(-e.pcost)
		e.cost -= e.pcost
		e.parsed, e.pcost = nil, 0
	}
}

// evictTo evicts sh's least-recently-used entries, each frame with its
// parsed form, until the shard holds at most limit bytes. The caller
// holds sh.mu.
func (c *BlockLRU) evictTo(sh *cacheShard, limit int64) {
	var evicted int64
	for sh.bytes > limit {
		lru := sh.head.prev
		sh.unlink(lru)
		delete(sh.entries, lru.key)
		sh.bytes -= lru.cost
		sh.forms -= lru.pcost
		c.bytes.Add(-lru.cost)
		c.entries.Add(-1)
		evicted++
	}
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Stats returns a snapshot of the cache's counters and residency.
func (c *BlockLRU) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Declined:  c.declined.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
		Entries:   c.entries.Load(),
		Capacity:  c.capacity,
	}
}

// Capacity returns the configured byte budget.
func (c *BlockLRU) Capacity() int64 { return c.capacity }

// Len returns the number of resident frames.
func (c *BlockLRU) Len() int { return int(c.entries.Load()) }
