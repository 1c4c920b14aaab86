package segment

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// place returns a copy of frame positioned in fresh memory so that the
// byte at offset codeOff lies on a 4-byte boundary (aligned) or one byte
// past one: the two cases UnmarshalInto tells apart.
func place(frame []byte, codeOff int, aligned bool) []byte {
	backing := make([]uint64, len(frame)/8+2) // 8-byte-aligned on every platform that has 8-byte words, 4 elsewhere
	room := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), len(backing)*8)
	shift := (4 - codeOff%4) % 4
	if !aligned {
		shift++
	}
	out := room[shift : shift+len(frame)]
	copy(out, frame)
	return out
}

// codeOffset is where blk's code section starts in its frame.
func codeOffset[T core.Integer](blk *core.Block[T]) int {
	elem := elemSize[T]()
	return headerSize + len(blk.Entries)*4 + blk.DictLen*elem + len(blk.Totals)*elem
}

// within reports whether the words of w lie inside the memory of b.
func within(w []uint32, b []byte) bool {
	if len(w) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(&w[0])), uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p < lo+uintptr(len(b))
}

// viewShapes builds one block per scheme (PDICT twice: an ascending and a
// shuffled dictionary) over values of T, exceptions included, with a last
// group that is not full.
func viewShapes[T core.Integer](rng *rand.Rand) (names []string, srcs [][]T, blks []*core.Block[T]) {
	const n = 1000
	small := func() T { return T(rng.Intn(16)) }
	outlier := func() T { return T(100 + rng.Intn(20)) }

	pfor := make([]T, n)
	for i := range pfor {
		pfor[i] = 3 + small()
		if rng.Intn(12) == 0 {
			pfor[i] = outlier()
		}
	}
	delta := make([]T, n)
	for i := range delta {
		// Rising by 0..3 with the odd jump; wraps on the narrow types,
		// which PFOR-DELTA must survive too.
		step := T(rng.Intn(4))
		if rng.Intn(20) == 0 {
			step = T(40)
		}
		if i > 0 {
			delta[i] = delta[i-1] + step
		}
	}
	dict := []T{2, 5, 9, 14, 20, 27, 35}
	coded := make([]T, n)
	for i := range coded {
		coded[i] = dict[rng.Intn(len(dict))]
		if rng.Intn(15) == 0 {
			coded[i] = outlier()
		}
	}
	shuffled := slices.Clone(dict)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	return []string{"PFOR", "PFOR-DELTA", "PDICT", "PDICT-shuffled"},
		[][]T{pfor, delta, coded, coded},
		[]*core.Block[T]{
			core.CompressPFOR(pfor, 3, 4),
			core.CompressPFORDelta(delta, 0, 0, 2),
			core.CompressPDict(coded, dict, 3),
			core.CompressPDict(coded, shuffled, 3),
		}
}

// rowsOf lists the rows sv selects.
func rowsOf(sv *core.SelectionVector) []int64 { return sv.AppendRows(nil, 0) }

func testViewParity[T core.Integer](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	names, srcs, blks := viewShapes[T](rng)
	for si, blk := range blks {
		name, src := names[si], srcs[si]
		frame := Marshal(blk)
		var views [2]core.Block[T] // borrowed, copied
		for vi, aligned := range []bool{true, false} {
			buf := place(frame, codeOffset(blk), aligned)
			if err := UnmarshalInto(&views[vi], buf); err != nil {
				t.Fatalf("%s aligned=%v: %v", name, aligned, err)
			}
			if got, want := within(views[vi].Codes, buf), aligned && hostLittleEndian; got != want {
				t.Fatalf("%s aligned=%v: codes borrowed = %v, want %v", name, aligned, got, want)
			}
		}
		for _, v := range views {
			if !slices.IsSorted(v.Dict[:v.DictLen]) {
				t.Fatalf("%s: parsed dictionary %v is not ascending", name, v.Dict[:v.DictLen])
			}
		}

		var dec core.Decoder[T]
		for vi := range views {
			v := &views[vi]
			if got := dec.Decompress(v, make([]T, v.N)); !slices.Equal(got, src) {
				t.Fatalf("%s view %d: Decompress differs from the input", name, vi)
			}
			for _, x := range []int{0, 1, 127, 128, 500, len(src) - 1} {
				if got := dec.Get(v, x); got != src[x] {
					t.Fatalf("%s view %d: Get(%d) = %v, want %v", name, vi, x, got, src[x])
				}
			}
			for trial := 0; trial < 20; trial++ {
				a, b := src[rng.Intn(len(src))], src[rng.Intn(len(src))]
				c, d := src[rng.Intn(len(src))], src[rng.Intn(len(src))]
				lo1, hi1, lo2, hi2 := min(a, b), max(a, b), min(c, d), max(c, d)
				in := func(x, lo, hi T) bool { return x >= lo && x <= hi }
				var mask, and, or []int64
				var picked []T
				for i, x := range src {
					if in(x, lo1, hi1) {
						mask = append(mask, int64(i))
					}
					if in(x, lo1, hi1) && in(x, lo2, hi2) {
						and = append(and, int64(i))
						picked = append(picked, x)
					}
					if in(x, lo1, hi1) || in(x, lo2, hi2) {
						or = append(or, int64(i))
					}
				}
				var sv core.SelectionVector
				dec.DecompressMask(v, lo1, hi1, &sv)
				if !slices.Equal(rowsOf(&sv), mask) {
					t.Fatalf("%s view %d: DecompressMask[%v,%v] differs", name, vi, lo1, hi1)
				}
				dec.UnionMask(v, lo2, hi2, &sv)
				if !slices.Equal(rowsOf(&sv), or) {
					t.Fatalf("%s view %d: UnionMask[%v,%v] differs", name, vi, lo2, hi2)
				}
				dec.DecompressMask(v, lo1, hi1, &sv)
				dec.RefineMask(v, lo2, hi2, &sv)
				if !slices.Equal(rowsOf(&sv), and) {
					t.Fatalf("%s view %d: RefineMask[%v,%v] differs", name, vi, lo2, hi2)
				}
				if got := dec.DecompressSelected(v, &sv, nil); !slices.Equal(got, picked) {
					t.Fatalf("%s view %d: DecompressSelected differs", name, vi)
				}
			}
		}
		if !slices.Equal(views[0].Codes, views[1].Codes) || !slices.Equal(views[0].Exc, views[1].Exc) ||
			!slices.Equal(views[0].Entries, views[1].Entries) || !slices.Equal(views[0].Dict, views[1].Dict) ||
			!slices.Equal(views[0].Totals, views[1].Totals) {
			t.Fatalf("%s: borrowed and copied parse differ", name)
		}
	}
}

// TestViewParity: a block that borrows its frame's code section and one
// that copied it answer every decoder operation alike, and as the input
// says, for every scheme and element type.
func TestViewParity(t *testing.T) {
	t.Run("int8", func(t *testing.T) { testViewParity[int8](t, 1) })
	t.Run("uint8", func(t *testing.T) { testViewParity[uint8](t, 2) })
	t.Run("int16", func(t *testing.T) { testViewParity[int16](t, 3) })
	t.Run("uint16", func(t *testing.T) { testViewParity[uint16](t, 4) })
	t.Run("int32", func(t *testing.T) { testViewParity[int32](t, 5) })
	t.Run("uint32", func(t *testing.T) { testViewParity[uint32](t, 6) })
	t.Run("int64", func(t *testing.T) { testViewParity[int64](t, 7) })
	t.Run("uint64", func(t *testing.T) { testViewParity[uint64](t, 8) })
}

// TestRecycledBlockNeverWritesBorrowedMemory drives one Block through
// borrowed, copied and borrowed parses of different frames: a copy must
// land in memory the block owns, never in the frame it borrowed before.
func TestRecycledBlockNeverWritesBorrowedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	_, srcs, blks := viewShapes[int64](rng)
	var frames, pristine [][]byte
	for i, blk := range blks {
		f := place(Marshal(blk), codeOffset(blk), i%2 == 0)
		frames = append(frames, f)
		pristine = append(pristine, slices.Clone(f))
	}
	var blk core.Block[int64]
	for round := 0; round < 3; round++ {
		for i, f := range frames {
			if err := UnmarshalIntoTrusted(&blk, f); err != nil {
				t.Fatal(err)
			}
			if got := core.Decompress(&blk, make([]int64, blk.N)); !slices.Equal(got, srcs[i]) {
				t.Fatalf("round %d frame %d: decode differs", round, i)
			}
			for j := range frames {
				if !slices.Equal(frames[j], pristine[j]) {
					t.Fatalf("round %d: parsing frame %d wrote into frame %d", round, i, j)
				}
			}
		}
	}
}

// BenchmarkUnmarshalIntoTrusted parses the benchmark table's patch-heavy
// shape (4096 values, 16-bit codes, one exception in ten) into a recycled
// block: the per-block fixed cost of a hot scan.
func BenchmarkUnmarshalIntoTrusted(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]int64, 4096)
	for i := range src {
		src[i] = rng.Int63n(1 << 16)
		if rng.Intn(10) == 0 {
			src[i] = rng.Int63()
		}
	}
	frame := Marshal(core.CompressPFOR(src, 0, 16))
	var blk core.Block[int64]
	b.SetBytes(int64(len(frame)))
	for b.Loop() {
		if err := UnmarshalIntoTrusted(&blk, frame); err != nil {
			b.Fatal(err)
		}
	}
}
