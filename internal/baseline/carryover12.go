package baseline

// Carryover12 implements the word-aligned binary coding scheme of Anh &
// Moffat ("Inverted index compression using word-aligned binary codes",
// Information Retrieval 8(1), 2005) — the paper's fastest inverted-file
// comparator in Table 4.
//
// Values are packed into 32-bit words; each word holds k values of w bits,
// with (k,w) chosen from a table of 12 combinations by a 4-bit selector.
// The "carryover" refinement: when a word's payload leaves at least 4
// unused high bits, the selector of the *next* word is carried in them, so
// the next word keeps all 32 bits for data. (The exact 2005 selector tables
// are not reproducible offline; these 12-entry tables follow the paper's
// construction and preserve the codec's speed/ratio character.)
type Carryover12 struct{}

// Name returns the codec name used in reports.
func (Carryover12) Name() string { return "carryover-12" }

// combo describes one selector choice: count values of width bits each.
type combo struct{ count, width uint }

// co12Tbl28 applies when the selector occupies the word's low 4 bits
// (28 data bits); co12Tbl32 applies when the selector was carried over
// (32 data bits).
var co12Tbl28 = [12]combo{
	{28, 1}, {14, 2}, {9, 3}, {7, 4}, {5, 5}, {4, 7},
	{3, 9}, {2, 12}, {2, 14}, {1, 18}, {1, 22}, {1, 28},
}

var co12Tbl32 = [12]combo{
	{32, 1}, {16, 2}, {10, 3}, {8, 4}, {6, 5}, {4, 8},
	{3, 10}, {2, 13}, {2, 16}, {1, 20}, {1, 25}, {1, 32},
}

// MaxValue is the largest encodable value (28 bits): a d-gap larger than
// this would imply a posting list spanning more than 256M documents.
const MaxValue = 1<<28 - 1

// Encode appends the carryover-12 encoding of vals to dst. Every value must
// be <= MaxValue.
func (Carryover12) Encode(dst []byte, vals []uint32) []byte {
	var hdr [4]byte
	putU32(hdr[:], uint32(len(vals)))
	dst = append(dst, hdr[:]...)

	carried := false // the previous word has spare bits holding our selector
	carryPos := 0    // byte offset of that word in dst
	carryShift := uint(0)
	i := 0
	for i < len(vals) {
		tbl := &co12Tbl28
		if carried {
			tbl = &co12Tbl32
		}
		sel := chooseCombo(tbl, vals[i:])
		c := tbl[sel]

		var word uint32
		shift := uint(0)
		if carried {
			prev := getU32(dst[carryPos:])
			prev |= uint32(sel) << carryShift
			putU32(dst[carryPos:], prev)
		} else {
			word = uint32(sel) // low 4 bits hold the selector
			shift = 4
		}
		packed := int(c.count)
		if packed > len(vals)-i {
			packed = len(vals) - i
		}
		for k := 0; k < packed; k++ {
			word |= vals[i+k] << shift
			shift += c.width
		}
		i += packed

		pos := len(dst)
		var wb [4]byte
		putU32(wb[:], word)
		dst = append(dst, wb[:]...)

		if 32-shift >= 4 {
			carried = true
			carryPos = pos
			carryShift = shift
		} else {
			carried = false
		}
	}
	return dst
}

// chooseCombo picks the selector packing the most values of the next run;
// ties break toward the first table entry, keeping encode/decode in
// lockstep.
func chooseCombo(tbl *[12]combo, vals []uint32) int {
	best := -1
	bestCount := -1
	for sel, c := range tbl {
		n := int(c.count)
		if n > len(vals) {
			n = len(vals)
		}
		limit := ^uint32(0)
		if c.width < 32 {
			limit = 1<<c.width - 1
		}
		fits := true
		for k := 0; k < n; k++ {
			if vals[k] > limit {
				fits = false
				break
			}
		}
		if fits && n > bestCount {
			best = sel
			bestCount = n
		}
	}
	if best < 0 {
		panic("baseline: carryover-12 value exceeds 28 bits")
	}
	return best
}

// Decode appends exactly n values to dst and returns dst, the input
// remaining after the consumed words, and an error. Decoding fewer than
// the encoded count stops early but still consumes whole words.
func (Carryover12) Decode(dst []uint32, src []byte, n int) ([]uint32, []byte, error) {
	if len(src) < 4 {
		return nil, nil, ErrCorrupt
	}
	total := int(getU32(src))
	if n > total {
		return nil, nil, ErrCorrupt
	}
	src = src[4:]

	carried := false
	carriedSel := 0
	encRem := total // values the encoder still had before the current word
	got := 0
	for got < n {
		if len(src) < 4 {
			return nil, nil, ErrCorrupt
		}
		word := getU32(src)
		src = src[4:]

		var c combo
		shift := uint(0)
		if carried {
			c = co12Tbl32[carriedSel]
		} else {
			c = co12Tbl28[word&0xF]
			shift = 4
		}
		mask := ^uint32(0)
		if c.width < 32 {
			mask = 1<<c.width - 1
		}
		packed := int(c.count)
		if packed > encRem {
			packed = encRem
		}
		take := packed
		if take > n-got {
			take = n - got
		}
		for j := 0; j < take; j++ {
			dst = append(dst, (word>>shift)&mask)
			shift += c.width
		}
		got += take
		encRem -= packed

		// Mirror the encoder's spare-bit decision using its packed count.
		used := shift + c.width*uint(packed-take)
		if 32-used >= 4 && encRem > 0 {
			carried = true
			carriedSel = int((word >> used) & 0xF)
		} else {
			carried = false
		}
	}
	return dst, src, nil
}
