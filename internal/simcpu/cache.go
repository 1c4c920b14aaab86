// Package simcpu simulates the two microarchitectural mechanisms the paper
// measures with hardware event counters: branch prediction (the branch miss
// rate curves of Figure 4) and the cache hierarchy (the L2 miss counts of
// Table 3 and Figure 7).
//
// Pure Go cannot read PMU counters portably, so instrumented replays of the
// exact same kernels drive these models instead of the paper's hardware
// counters. The models are deliberately simple — a 2-bit saturating
// predictor and set-associative LRU caches — because the paper's claims are
// about the *shape* of the curves (NAIVE's miss-rate peak near 50%
// exceptions, page-wise decompression's extra L2 misses), which any
// reasonable predictor/cache reproduces.
package simcpu

import "fmt"

// Cache is one set-associative, write-allocate, LRU cache level.
type Cache struct {
	name     string
	lineBits uint
	sets     int
	ways     int
	tags     []uint64 // sets*ways, 0 = empty
	age      []uint64 // LRU timestamps
	clock    uint64

	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache of the given total size, line size, and
// associativity. Sizes must be powers of two.
func NewCache(name string, sizeBytes, lineBytes, ways int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 ||
		sizeBytes%(lineBytes*ways) != 0 {
		panic(fmt.Sprintf("simcpu: bad cache geometry %d/%d/%d", sizeBytes, lineBytes, ways))
	}
	lineBits := uint(0)
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	if 1<<lineBits != lineBytes {
		panic("simcpu: line size must be a power of two")
	}
	sets := sizeBytes / (lineBytes * ways)
	if sets&(sets-1) != 0 {
		panic("simcpu: set count must be a power of two")
	}
	return &Cache{
		name:     name,
		lineBits: lineBits,
		sets:     sets,
		ways:     ways,
		tags:     make([]uint64, sets*ways),
		age:      make([]uint64, sets*ways),
	}
}

// access looks up the line containing addr, filling it on a miss, and
// reports whether it hit.
func (c *Cache) access(addr uint64) bool {
	c.Accesses++
	c.clock++
	line := addr>>c.lineBits + 1 // +1 so tag 0 means "empty"
	set := int(line) & (c.sets - 1)
	base := set * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == line {
			c.age[i] = c.clock
			return true
		}
		if c.age[i] < c.age[victim] {
			victim = i
		}
	}
	c.Misses++
	c.tags[victim] = line
	c.age[victim] = c.clock
	return false
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.age)
	c.clock, c.Accesses, c.Misses = 0, 0, 0
}

// Hierarchy is an L1+L2 cache pair in front of main memory, with the
// default geometry of the paper's test machines (Pentium4/Opteron class:
// 16KB L1D, 1MB L2, 64-byte lines).
type Hierarchy struct {
	L1, L2 *Cache
	// MemReads counts accesses that missed all the way to DRAM.
	MemReads uint64
}

// NewHierarchy builds the default two-level hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		L1: NewCache("L1", 16<<10, 64, 8),
		L2: NewCache("L2", 1<<20, 64, 8),
	}
}

// Access touches size bytes starting at addr (read or write — the model is
// write-allocate so both behave alike).
func (h *Hierarchy) Access(addr uint64, size int) {
	lineSize := uint64(1) << h.L1.lineBits
	first := addr &^ (lineSize - 1)
	last := (addr + uint64(size) - 1) &^ (lineSize - 1)
	for a := first; a <= last; a += lineSize {
		if h.L1.access(a) {
			continue
		}
		if h.L2.access(a) {
			continue
		}
		h.MemReads++
	}
}

// Stream touches a contiguous region sequentially, as a tight loop reading
// or writing an array does.
func (h *Hierarchy) Stream(addr uint64, size int) {
	lineSize := 1 << h.L1.lineBits
	for off := 0; off < size; off += lineSize {
		h.Access(addr+uint64(off), 1)
	}
}

// Reset clears both levels and the memory counter.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.MemReads = 0
}
