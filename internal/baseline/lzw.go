package baseline

// LZW is a from-scratch implementation of Welch's 1984 algorithm with
// variable-width codes (9 to lzwMaxBits bits) and dictionary reset on
// overflow — the "common LZW Lempel-Ziv compression" LZRW1 is a fast
// version of (Section 2.1). It stands in for the generic dictionary
// compressors (lzop and friends) in the Figure 2 comparison.
type LZW struct{}

// Name returns the codec name used in reports.
func (LZW) Name() string { return "lzw" }

const (
	lzwMaxBits = 14
	lzwMaxCode = 1<<lzwMaxBits - 1
	lzwClear   = 256 // emitted before every dictionary reset
	lzwFirst   = 257
)

// Compress appends the LZW-compressed form of src to dst.
func (LZW) Compress(dst, src []byte) []byte {
	var hdr [4]byte
	putU32(hdr[:], uint32(len(src)))
	dst = append(dst, hdr[:]...)
	if len(src) == 0 {
		return dst
	}

	bw := bitWriter{dst: dst}
	// prefix table: key = prefixCode<<8 | nextByte.
	table := make(map[uint32]uint32, 4096)
	next := uint32(lzwFirst)
	width := uint(9)

	cur := uint32(src[0])
	for _, c := range src[1:] {
		key := cur<<8 | uint32(c)
		if code, ok := table[key]; ok {
			cur = code
			continue
		}
		bw.write(cur, width)
		table[key] = next
		next++
		if next > 1<<width && width < lzwMaxBits {
			width++
		}
		if next >= lzwMaxCode {
			bw.write(lzwClear, width)
			table = make(map[uint32]uint32, 4096)
			next = lzwFirst
			width = 9
		}
		cur = uint32(c)
	}
	bw.write(cur, width)
	return bw.flush()
}

// Decompress appends the original bytes to dst.
func (LZW) Decompress(dst, src []byte) ([]byte, error) {
	if len(src) < 4 {
		return nil, ErrCorrupt
	}
	want := int(getU32(src))
	src = src[4:]
	if want == 0 {
		return dst, nil
	}
	start := len(dst)

	br := bitReader{src: src}
	// entries[i] = (offset, length) into dst of the string for code i;
	// single bytes are implicit.
	type entry struct{ off, len int32 }
	entries := make([]entry, lzwFirst, lzwMaxCode+1)
	width := uint(9)

	emit := func(code uint32) (int32, int32, error) {
		if code < 256 {
			dst = append(dst, byte(code))
			return int32(len(dst) - 1), 1, nil
		}
		if int(code) >= len(entries) {
			return 0, 0, ErrCorrupt
		}
		e := entries[code]
		off := int32(len(dst))
		for j := int32(0); j < e.len; j++ {
			dst = append(dst, dst[e.off+j])
		}
		return off, e.len, nil
	}

	prevOff, prevLen := int32(-1), int32(0)
	for len(dst)-start < want {
		code, ok := br.read(width)
		if !ok {
			return nil, ErrCorrupt
		}
		if code == lzwClear {
			entries = entries[:lzwFirst]
			width = 9
			prevOff = -1
			continue
		}
		if prevOff < 0 {
			off, n, err := emit(code)
			if err != nil {
				return nil, err
			}
			prevOff, prevLen = off, n
		} else {
			var off, n int32
			var err error
			if int(code) == len(entries) && code >= lzwFirst {
				// The KwKwK case: the new entry is prev + prev[0].
				off = int32(len(dst))
				for j := int32(0); j < prevLen; j++ {
					dst = append(dst, dst[prevOff+j])
				}
				dst = append(dst, dst[prevOff])
				n = prevLen + 1
			} else {
				off, n, err = emit(code)
				if err != nil {
					return nil, err
				}
			}
			entries = append(entries, entry{prevOff, prevLen + 1})
			prevOff, prevLen = off, n
		}
		// The decoder's table lags the encoder's by one entry (the entry
		// for the code just read is completed only by the *next* code), so
		// the width bump fires one entry earlier than the encoder's
		// `next > 1<<width` test.
		if len(entries)+1 > 1<<width && width < lzwMaxBits {
			width++
		}
	}
	if len(dst)-start != want {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// bitWriter writes little-endian bit streams (low bits first).
type bitWriter struct {
	dst  []byte
	acc  uint64
	bits uint
}

func (w *bitWriter) write(v uint32, width uint) {
	w.acc |= uint64(v) << w.bits
	w.bits += width
	for w.bits >= 8 {
		w.dst = append(w.dst, byte(w.acc))
		w.acc >>= 8
		w.bits -= 8
	}
}

func (w *bitWriter) flush() []byte {
	if w.bits > 0 {
		w.dst = append(w.dst, byte(w.acc))
		w.acc, w.bits = 0, 0
	}
	return w.dst
}

// bitReader reads little-endian bit streams.
type bitReader struct {
	src  []byte
	acc  uint64
	bits uint
}

func (r *bitReader) read(width uint) (uint32, bool) {
	for r.bits < width {
		if len(r.src) == 0 {
			return 0, false
		}
		r.acc |= uint64(r.src[0]) << r.bits
		r.src = r.src[1:]
		r.bits += 8
	}
	v := uint32(r.acc) & (1<<width - 1)
	r.acc >>= width
	r.bits -= width
	return v, true
}
