package baseline

// LZRW1 is a from-scratch implementation of Ross Williams' 1991 algorithm:
// a fast Lempel-Ziv variant that uses a direct-mapped hash table without
// collision chains, trading compression ratio for speed. Sybase IQ uses it
// as its fast page compressor (Section 2.1); Figure 2 benchmarks it against
// PFOR.
//
// Stream format (as in the original): groups of up to 16 items, each group
// preceded by a 16-bit control word (LSB first). Control bit 0 = literal
// byte; bit 1 = copy item of two bytes: 12-bit offset (1..4095 back) and
// 4-bit length (3..18).
type LZRW1 struct{}

// Name returns the codec name used in reports.
func (LZRW1) Name() string { return "lzrw1" }

const (
	lzrw1MinMatch = 3
	lzrw1MaxMatch = 18
	lzrw1MaxOff   = 4095
	lzrw1HashBits = 12
)

// Compress appends the LZRW1-compressed form of src to dst.
func (LZRW1) Compress(dst, src []byte) []byte {
	var hdr [4]byte
	putU32(hdr[:], uint32(len(src)))
	dst = append(dst, hdr[:]...)

	var table [1 << lzrw1HashBits]int32
	for i := range table {
		table[i] = -1
	}

	i := 0
	for i < len(src) {
		ctrlPos := len(dst)
		dst = append(dst, 0, 0) // control word placeholder
		var ctrl uint16
		items := 0
		for items < 16 && i < len(src) {
			matched := false
			if i+lzrw1MinMatch <= len(src) {
				h := lzrw1Hash(src[i:])
				cand := table[h]
				table[h] = int32(i)
				if cand >= 0 && i-int(cand) <= lzrw1MaxOff &&
					src[cand] == src[i] && src[cand+1] == src[i+1] && src[cand+2] == src[i+2] {
					length := lzrw1MinMatch
					maxLen := min(lzrw1MaxMatch, len(src)-i)
					for length < maxLen && src[int(cand)+length] == src[i+length] {
						length++
					}
					off := i - int(cand)
					dst = append(dst,
						byte(off), // low 8 offset bits
						byte(off>>8)|byte(length-lzrw1MinMatch)<<4)
					ctrl |= 1 << items
					i += length
					matched = true
				}
			}
			if !matched {
				dst = append(dst, src[i])
				i++
			}
			items++
		}
		dst[ctrlPos] = byte(ctrl)
		dst[ctrlPos+1] = byte(ctrl >> 8)
	}
	return dst
}

// Decompress appends the original bytes to dst.
func (LZRW1) Decompress(dst, src []byte) ([]byte, error) {
	if len(src) < 4 {
		return nil, ErrCorrupt
	}
	want := int(getU32(src))
	src = src[4:]
	start := len(dst)
	for len(dst)-start < want {
		if len(src) < 2 {
			return nil, ErrCorrupt
		}
		ctrl := uint16(src[0]) | uint16(src[1])<<8
		src = src[2:]
		for k := 0; k < 16 && len(dst)-start < want; k++ {
			if ctrl&(1<<k) == 0 {
				if len(src) < 1 {
					return nil, ErrCorrupt
				}
				dst = append(dst, src[0])
				src = src[1:]
				continue
			}
			if len(src) < 2 {
				return nil, ErrCorrupt
			}
			off := int(src[0]) | int(src[1]&0x0F)<<8
			length := int(src[1]>>4) + lzrw1MinMatch
			src = src[2:]
			pos := len(dst) - off
			if off == 0 || pos < start {
				return nil, ErrCorrupt
			}
			// Overlapping copies are legal (run-length-like matches).
			for j := 0; j < length; j++ {
				dst = append(dst, dst[pos+j])
			}
		}
	}
	if len(dst)-start != want {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// lzrw1Hash hashes the next three bytes into the table index, following the
// original's multiplicative style.
func lzrw1Hash(p []byte) uint32 {
	v := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16
	return (v * 2654435761) >> (32 - lzrw1HashBits)
}
