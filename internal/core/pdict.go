package core

// This file implements PDICT (Patched Dictionary Compression). Integer
// codes index an array of values (the dictionary). Unlike plain dictionary
// compression — which needs log2(|D|) bits even when the frequency
// distribution is highly skewed — PDICT keeps only the frequent values in
// the dictionary and stores infrequent ones as exceptions, strongly
// reducing the coded domain on skewed data.

import "slices"

// CompressPDict compresses src against dict using code width b. dict must
// hold at most 1<<b distinct values; values of src not present in dict
// become exceptions. Dictionaries are typically produced by AnalyzePDict,
// which fills them with the most frequent sample values in ascending
// order. Any order is accepted: the block holds the dictionary sorted
// ascending (dict itself is left as it is), which is the only order a
// segment reader accepts.
func CompressPDict[T Integer](src []T, dict []T, b uint) *Block[T] {
	return detach(new(Encoder[T]).pdict(src, dict, b))
}

func (e *Encoder[T]) pdict(src []T, dict []T, b uint) *Block[T] {
	checkWidth[T](b)
	checkLen(len(src))
	if len(dict) > 1<<b {
		panic("core: dictionary larger than code space")
	}
	blk := e.newBlock(Block[T]{Scheme: SchemePDict, B: b, N: len(src), DictLen: len(dict)})
	// Pad the dictionary to the full code space so LOOP1 can index it with
	// the bogus gap codes sitting at exception slots.
	blk.Dict = sized(blk.Dict, 1<<b)
	clear(blk.Dict[copy(blk.Dict, dict):])
	sorted := blk.Dict[:len(dict)]
	slices.Sort(sorted)

	lk := &e.lookup
	lk.build(sorted)
	codes, miss := e.codes, e.miss
	j := 0
	for i := 0; i < len(src); i++ {
		code, ok := lk.find(src[i])
		codes[i] = code
		miss[j] = int32(i)
		j += b2i(!ok)
	}
	e.finish(blk, miss[:j], src)
	return blk
}

// decompressPDict decodes via dictionary lookup (LOOP1), then patches.
func decompressPDict[T Integer](blk *Block[T], raw []uint32, dst []T) {
	dict := blk.Dict
	for i, c := range raw[:blk.N] {
		dst[i] = dict[c]
	}
	patchGroups(blk, raw, dst)
}

// dictLookup maps values to their dictionary codes. The paper uses an
// unspecified "super-scalar perfect hash function" built at analysis time;
// we substitute an open-addressing table sized to keep probe chains short.
// Lookup of a missing value terminates at the first empty slot.
type dictLookup[T Integer] struct {
	keys  []T
	codes []int32 // -1 = empty
	mask  uint64
}

// build fills the table with dict, reusing its arrays when they are large
// enough.
func (lk *dictLookup[T]) build(dict []T) {
	size := 16
	for size < 4*len(dict) {
		size *= 2
	}
	lk.keys, lk.codes, lk.mask = sized(lk.keys, size), sized(lk.codes, size), uint64(size-1)
	for i := range lk.codes {
		lk.codes[i] = -1
	}
	tm := typeMask[T]()
	for code, v := range dict {
		h := mix64(uint64(v)&tm) & lk.mask
		for lk.codes[h] >= 0 {
			if lk.keys[h] == v {
				panic("core: duplicate dictionary value")
			}
			h = (h + 1) & lk.mask
		}
		lk.keys[h] = v
		lk.codes[h] = int32(code)
	}
}

// find returns the code for v, or (garbage, false) when v is not in the
// dictionary. The garbage code is harmless: exception slots are overwritten
// with patch-list gaps by finishBlock.
func (lk *dictLookup[T]) find(v T) (uint32, bool) {
	tm := typeMask[T]()
	h := mix64(uint64(v)&tm) & lk.mask
	for {
		c := lk.codes[h]
		if c < 0 {
			return 0, false
		}
		if lk.keys[h] == v {
			return uint32(c), true
		}
		h = (h + 1) & lk.mask
	}
}

// mix64 is the finalizer of SplitMix64: a cheap, well-distributed integer
// hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
