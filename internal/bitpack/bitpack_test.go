package bitpack

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomValues(rng *rand.Rand, n int, b uint) []uint32 {
	vals := make([]uint32, n)
	mask := maskFor(b)
	for i := range vals {
		vals[i] = rng.Uint32() & mask
	}
	return vals
}

func TestWordCount(t *testing.T) {
	cases := []struct {
		n    int
		b    uint
		want int
	}{
		{0, 5, 0},
		{1, 1, 1},
		{32, 1, 1},
		{33, 1, 2},
		{32, 32, 32},
		{128, 3, 12},
		{100, 7, 22}, // 700 bits -> 22 words
		{17, 0, 0},
	}
	for _, c := range cases {
		if got := WordCount(c.n, c.b); got != c.want {
			t.Errorf("WordCount(%d,%d) = %d, want %d", c.n, c.b, got, c.want)
		}
	}
}

func TestRoundTripAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for b := uint(0); b <= 32; b++ {
		for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000} {
			src := randomValues(rng, n, b)
			dst := make([]uint32, WordCount(n, b))
			words := Pack(dst, src, b)
			if words != WordCount(n, b) {
				t.Fatalf("b=%d n=%d: Pack wrote %d words, want %d", b, n, words, WordCount(n, b))
			}
			out := make([]uint32, n)
			Unpack(out, dst, b)
			for i := range src {
				if out[i] != src[i] {
					t.Fatalf("b=%d n=%d: round-trip mismatch at %d: got %d want %d", b, n, i, out[i], src[i])
				}
			}
		}
	}
}

func TestUnrolledMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for b := uint(0); b <= 32; b++ {
		n := 256 + rng.Intn(64)
		src := randomValues(rng, n, b)
		words := WordCount(n, b)

		fast := make([]uint32, words)
		ref := make([]uint32, words)
		Pack(fast, src, b)
		PackGeneric(ref, src, b)
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("b=%d: packed word %d differs: fast=%#x ref=%#x", b, i, fast[i], ref[i])
			}
		}

		outFast := make([]uint32, n)
		outRef := make([]uint32, n)
		Unpack(outFast, fast, b)
		UnpackGeneric(outRef, ref, b)
		for i := range outFast {
			if outFast[i] != outRef[i] {
				t.Fatalf("b=%d: unpacked value %d differs: fast=%d ref=%d", b, i, outFast[i], outRef[i])
			}
		}
	}
}

func TestPackTruncatesHighBits(t *testing.T) {
	src := []uint32{0xFFFFFFFF, 0x12345678, 0x80000001}
	for _, b := range []uint{1, 4, 7, 13} {
		dst := make([]uint32, WordCount(len(src), b))
		Pack(dst, src, b)
		out := make([]uint32, len(src))
		Unpack(out, dst, b)
		mask := maskFor(b)
		for i := range src {
			if out[i] != src[i]&mask {
				t.Errorf("b=%d: got %#x want %#x", b, out[i], src[i]&mask)
			}
		}
	}
}

func TestPackDoesNotTouchWordsBeyondCount(t *testing.T) {
	// Ensure Pack never writes past WordCount even for partial tails.
	for b := uint(1); b <= 32; b++ {
		n := 37 // deliberately not a multiple of 32
		src := randomValues(rand.New(rand.NewSource(int64(b))), n, b)
		words := WordCount(n, b)
		dst := make([]uint32, words+4)
		for i := range dst {
			dst[i] = 0xDEADBEEF
		}
		Pack(dst, src, b)
		for i := words; i < len(dst); i++ {
			if dst[i] != 0xDEADBEEF {
				t.Fatalf("b=%d: Pack wrote past word count at word %d", b, i)
			}
		}
	}
}

func TestZeroWidth(t *testing.T) {
	src := []uint32{5, 6, 7} // all truncated away
	dst := make([]uint32, 1)
	if n := Pack(dst, src, 0); n != 0 {
		t.Fatalf("Pack width 0 wrote %d words", n)
	}
	out := []uint32{9, 9, 9}
	Unpack(out, dst, 0)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("Unpack width 0: out[%d]=%d, want 0", i, v)
		}
	}
}

func TestOutOfRangeWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width 33")
		}
	}()
	WordCount(10, 33)
}

func TestDstTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short dst")
		}
	}()
	Pack(make([]uint32, 1), make([]uint32, 64), 8)
}

// TestQuickRoundTrip is the property-based check: any slice of values, any
// width, round-trips through Pack/Unpack modulo the width mask.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint32, widthSeed uint8) bool {
		b := uint(widthSeed % 33)
		mask := maskFor(b)
		dst := make([]uint32, WordCount(len(raw), b))
		Pack(dst, raw, b)
		out := make([]uint32, len(raw))
		Unpack(out, dst, b)
		for i := range raw {
			if out[i] != raw[i]&mask {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnpack(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 4096
	for _, width := range []uint{1, 4, 8, 13, 24} {
		src := randomValues(rng, n, width)
		packed := make([]uint32, WordCount(n, width))
		Pack(packed, src, width)
		out := make([]uint32, n)
		b.Run(benchName("b", width), func(b *testing.B) {
			b.SetBytes(n * 4)
			for i := 0; i < b.N; i++ {
				Unpack(out, packed, width)
			}
		})
	}
}

func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n = 4096
	for _, width := range []uint{1, 4, 8, 13, 24} {
		src := randomValues(rng, n, width)
		packed := make([]uint32, WordCount(n, width))
		b.Run(benchName("b", width), func(b *testing.B) {
			b.SetBytes(n * 4)
			for i := 0; i < b.N; i++ {
				Pack(packed, src, width)
			}
		})
	}
}

func benchName(prefix string, width uint) string {
	digits := ""
	if width == 0 {
		digits = "0"
	}
	for width > 0 {
		digits = string(rune('0'+width%10)) + digits
		width /= 10
	}
	return prefix + digits
}

// BenchmarkUnpackGenericAblation quantifies what the generated unrolled
// kernels buy over the straightforward shift-based loop — the reason the
// paper (and Lucene, and FastPFOR) ship per-width unrolled code.
func BenchmarkUnpackGenericAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 4096
	for _, width := range []uint{4, 8, 13} {
		src := randomValues(rng, n, width)
		packed := make([]uint32, WordCount(n, width))
		Pack(packed, src, width)
		out := make([]uint32, n)
		b.Run("unrolled/"+benchName("b", width), func(b *testing.B) {
			b.SetBytes(n * 4)
			for i := 0; i < b.N; i++ {
				Unpack(out, packed, width)
			}
		})
		b.Run("generic/"+benchName("b", width), func(b *testing.B) {
			b.SetBytes(n * 4)
			for i := 0; i < b.N; i++ {
				UnpackGeneric(out, packed, width)
			}
		})
	}
}

// selectOracle computes the expected match masks by unpacking with the
// reference path and filtering.
func selectOracle(src []uint32, n int, b uint, lo, span uint32) []uint32 {
	vals := make([]uint32, n)
	UnpackGeneric(vals, src, b)
	masks := make([]uint32, (n+31)/32)
	for i, v := range vals {
		if v-lo <= span {
			masks[i/32] |= 1 << (uint(i) % 32)
		}
	}
	return masks
}

// edgeRanges are the (lo, span) pairs every range kernel is checked on at
// a width whose largest code is mask: the empty and all-matching extremes,
// the bounds of the code domain, a range starting past every code, the
// whole uint32 domain, a span wrapping past 2^32 by one, and a random
// window. The word-parallel kernels restate each of these differently
// (swarRange), so each one pins a branch.
func edgeRanges(rng *rand.Rand, mask uint32) [][2]uint32 {
	lo := rng.Uint32() & mask
	return [][2]uint32{
		{0, 0},
		{0, mask},            // everything matches
		{mask, 0},            // only the top code
		{mask / 2, mask / 4}, // middle window
		{mask + 1, 0},        // past every code (at b=32: wraps to code 0)
		{lo, mask - lo},      // from lo to the top code
		{0, ^uint32(0)},      // the whole uint32 domain
		{lo, -lo},            // wraps past 2^32 by one: lo.. and code 0
		{rng.Uint32() & mask, rng.Uint32() & mask},
	}
}

// TestSelectMaskAllWidths cross-checks every generated select kernel
// against the unpack-then-filter oracle over random codes and ranges,
// including the empty and all-matching extremes, plus the scalar tail path
// and per-match CodeAt extraction.
func TestSelectMaskAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for b := uint(0); b <= 32; b++ {
		for _, n := range []int{0, 1, 7, 31, 32, 33, 96, 127, 128, 129} {
			src := randomValues(rng, n, b)
			packed := make([]uint32, WordCount(n, b))
			Pack(packed, src, b)
			mask := maskFor(b)
			ranges := append(edgeRanges(rng, mask),
				[2]uint32{1, ^uint32(0) - 1}, // wrap-around span: excludes only code 0
			)
			for _, r := range ranges {
				lo, span := r[0], r[1]
				want := selectOracle(packed, n, b, lo, span)
				groups := n / 32
				got := make([]uint32, (n+31)/32)
				SelectMask(got[:groups], packed, b, lo, span)
				if tail := n % 32; tail > 0 {
					got[groups] = SelectMaskTail(packed[groups*int(b):], tail, b, lo, span)
				}
				for g := range want {
					if got[g] != want[g] {
						t.Fatalf("b=%d n=%d lo=%d span=%d: mask[%d] = %08x, want %08x",
							b, n, lo, span, g, got[g], want[g])
					}
				}
			}
			if b > 0 {
				for i, v := range src {
					if got := CodeAt(packed, i, b); got != v {
						t.Fatalf("b=%d n=%d: CodeAt(%d) = %d, want %d", b, n, i, got, v)
					}
				}
			}
		}
	}
}

// TestRefineMaskAllWidths cross-checks every generated refine kernel: the
// result must equal the incoming mask AND the fresh SelectMask of the same
// range, for random incoming masks plus the all-set, all-clear and
// alternating extremes (all-clear pins the zero-group skip path).
func TestRefineMaskAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for b := uint(0); b <= 32; b++ {
		for _, n := range []int{0, 1, 31, 32, 33, 127, 128, 129} {
			src := randomValues(rng, n, b)
			packed := make([]uint32, WordCount(n, b))
			Pack(packed, src, b)
			mask := maskFor(b)
			ranges := edgeRanges(rng, mask)
			words := (n + 31) / 32
			groups := n / 32
			fresh := make([]uint32, words)
			prior := make([]uint32, words)
			got := make([]uint32, words)
			for _, r := range ranges {
				lo, span := r[0], r[1]
				SelectMask(fresh[:groups], packed, b, lo, span)
				if tail := n % 32; tail > 0 {
					fresh[groups] = SelectMaskTail(packed[groups*int(b):], tail, b, lo, span)
				}
				for _, fill := range []uint32{0, ^uint32(0), 0xAAAAAAAA, rng.Uint32()} {
					for i := range prior {
						prior[i] = fill
					}
					if tail := n % 32; tail > 0 {
						prior[groups] &= 1<<uint(tail) - 1
					}
					copy(got, prior)
					RefineMask(got[:groups], packed, b, lo, span)
					if tail := n % 32; tail > 0 {
						got[groups] = RefineMaskTail(packed[groups*int(b):], tail, b, lo, span, got[groups])
					}
					for g := range got {
						if want := prior[g] & fresh[g]; got[g] != want {
							t.Fatalf("b=%d n=%d lo=%d span=%d fill=%08x: refined[%d] = %08x, want %08x",
								b, n, lo, span, fill, g, got[g], want)
						}
					}
				}
			}
		}
	}
}

// TestPanicContracts pins the package's documented panic surface: the
// internal kernels trust their callers, and these are the misuses they
// refuse. The public zukowski layer proves separately (crafted-frame tests)
// that none of these panics is reachable through its entry points.
func TestPanicContracts(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("WordCount width", func() { WordCount(1, 33) })
	expectPanic("Pack width", func() { Pack(make([]uint32, 8), make([]uint32, 4), 33) })
	expectPanic("Pack dst too small", func() { Pack(make([]uint32, 0), make([]uint32, 4), 8) })
	expectPanic("Unpack width", func() { Unpack(make([]uint32, 4), make([]uint32, 8), 33) })
	expectPanic("Unpack src too small", func() { Unpack(make([]uint32, 64), make([]uint32, 1), 8) })
	expectPanic("PackGeneric width", func() { PackGeneric(make([]uint32, 8), make([]uint32, 4), 33) })
	expectPanic("UnpackGeneric width", func() { UnpackGeneric(make([]uint32, 4), make([]uint32, 8), 33) })
	expectPanic("SelectMask width", func() { SelectMask(make([]uint32, 1), make([]uint32, 64), 33, 0, 0) })
	expectPanic("SelectMask src too small", func() { SelectMask(make([]uint32, 4), make([]uint32, 1), 8, 0, 0) })
	expectPanic("SelectMaskTail width", func() { SelectMaskTail(make([]uint32, 64), 4, 33, 0, 0) })
	expectPanic("SelectMaskTail group too long", func() { SelectMaskTail(make([]uint32, 64), 33, 8, 0, 0) })
	expectPanic("RefineMask width", func() { RefineMask(make([]uint32, 1), make([]uint32, 64), 33, 0, 0) })
	expectPanic("RefineMask src too small", func() { RefineMask(make([]uint32, 4), make([]uint32, 1), 8, 0, 0) })
	expectPanic("RefineMaskTail width", func() { RefineMaskTail(make([]uint32, 64), 4, 33, 0, 0, 1) })
	expectPanic("RefineMaskTail group too long", func() { RefineMaskTail(make([]uint32, 64), 33, 8, 0, 0, 1) })
	// An empty incoming mask does not excuse the misuse.
	expectPanic("RefineMaskTail width, m == 0", func() { RefineMaskTail(make([]uint32, 64), 4, 40, 0, 0, 0) })
	expectPanic("RefineMaskTail group too long, m == 0", func() { RefineMaskTail(make([]uint32, 64), 33, 8, 0, 0, 0) })
	expectPanic("RefineMaskTail width and group, m == 0", func() { RefineMaskTail(make([]uint32, 64), 40, 33, 0, 0, 0) })
}

// FuzzSelectMask checks the four range kernels — SelectMask and
// SelectMaskTail, RefineMask and RefineMaskTail — against selectOracle on
// arbitrary packed codes at any width 0-32 and any (lo, span): wrapping
// spans and ranges starting past every code included. The refine kernels
// start from an incoming mask drawn from the same input.
func FuzzSelectMask(f *testing.F) {
	codes := make([]byte, 200)
	rand.New(rand.NewSource(5)).Read(codes)
	for _, seed := range []struct {
		width          uint8
		lo, span, fill uint32
	}{
		{6, 10, 20, 0xFFFFFFFF},
		{10, 100, 50, 0xAAAAAAAA},
		{10, 1 << 10, 0, 0xFFFFFFFF},              // past every code
		{12, 4000, ^uint32(0) - 3990, 0x0F0F0F0F}, // wraps to code 5
		{7, 3, ^uint32(0), 0x12345678},            // the whole domain
		{16, 0, 0, 0xFFFFFFFF},
		{32, ^uint32(0) - 5, 9, 0xFFFFFFFF},
		{0, 0, 0, 0x1},
	} {
		f.Add(seed.width, seed.lo, seed.span, seed.fill, codes)
	}
	f.Fuzz(func(t *testing.T, width uint8, lo, span, fill uint32, data []byte) {
		b := uint(width % (MaxBits + 1))
		words := make([]uint32, (len(data)+3)/4)
		for i, c := range data {
			words[i/4] |= uint32(c) << (8 * (i % 4))
		}
		n := len(data)
		if b > 0 {
			n = len(words) * 32 / int(b)
		}
		packed := words[:WordCount(n, b)]
		want := selectOracle(packed, n, b, lo, span)
		groups, tail := n/32, n%32

		got := make([]uint32, len(want))
		SelectMask(got[:groups], packed, b, lo, span)
		if tail > 0 {
			got[groups] = SelectMaskTail(packed[groups*int(b):], tail, b, lo, span)
		}
		for g := range want {
			if got[g] != want[g] {
				t.Fatalf("b=%d n=%d lo=%d span=%d: SelectMask word %d = %08x, want %08x", b, n, lo, span, g, got[g], want[g])
			}
		}

		prior := make([]uint32, len(want))
		for g := range prior {
			prior[g] = bits.RotateLeft32(fill, g)
		}
		if tail > 0 {
			prior[groups] &= 1<<tail - 1
		}
		copy(got, prior)
		RefineMask(got[:groups], packed, b, lo, span)
		if tail > 0 {
			got[groups] = RefineMaskTail(packed[groups*int(b):], tail, b, lo, span, got[groups])
		}
		for g := range want {
			if w := prior[g] & want[g]; got[g] != w {
				t.Fatalf("b=%d n=%d lo=%d span=%d: RefineMask word %d = %08x, want %08x", b, n, lo, span, g, got[g], w)
			}
		}
	})
}

// BenchmarkSelectMask times the select kernel ("expr") over 4,096 packed
// codes against the decode-then-filter plan it stands in for ("oracle":
// Unpack, then a branch-free compare loop building the same masks), at
// the widths around the word-parallel range (swarMinBits..swarMaxBits in
// cmd/genbitpack). CI's floors step holds oracle/expr at b=6 and b=10 to
// 1.5x. A GB is 1e9 bytes of the 32-bit codes the kernel stands for.
func BenchmarkSelectMask(b *testing.B) {
	benchMaskKernel(b, func(dst, src []uint32, w uint, lo, span uint32, _ []uint32) {
		SelectMask(dst, src, w, lo, span)
	}, func(dst, vals []uint32, lo, span uint32, _ []uint32) {
		for g := range dst {
			dst[g] = oracleMask(vals[g*32:g*32+32], lo, span)
		}
	})
}

// BenchmarkRefineMask is BenchmarkSelectMask for the refine kernel: both
// sides start from the same incoming mask, every other row selected, so
// no group is skipped.
func BenchmarkRefineMask(b *testing.B) {
	benchMaskKernel(b, func(dst, src []uint32, w uint, lo, span uint32, prior []uint32) {
		copy(dst, prior)
		RefineMask(dst, src, w, lo, span)
	}, func(dst, vals []uint32, lo, span uint32, prior []uint32) {
		for g := range dst {
			dst[g] = prior[g] & oracleMask(vals[g*32:g*32+32], lo, span)
		}
	})
}

// oracleMask is the match mask of 32 unpacked codes, compared one by one.
func oracleMask(vals []uint32, lo, span uint32) uint32 {
	var m uint32
	for i, v := range vals[:32] {
		m |= uint32(inRange(v, lo, span)) << i
	}
	return m
}

func benchMaskKernel(b *testing.B,
	kernel func(dst, src []uint32, w uint, lo, span uint32, prior []uint32),
	filter func(dst, vals []uint32, lo, span uint32, prior []uint32)) {
	const n = 4096
	rng := rand.New(rand.NewSource(6))
	prior := make([]uint32, n/32)
	for g := range prior {
		prior[g] = 0x55555555
	}
	dst := make([]uint32, n/32)
	vals := make([]uint32, n)
	for _, width := range []uint{6, 8, 10, 12, 16} {
		packed := make([]uint32, WordCount(n, width))
		Pack(packed, randomValues(rng, n, width), width)
		// A 2 % window a quarter of the way up the code domain.
		lo, span := maskFor(width)/4, maskFor(width)/50
		b.Run(fmt.Sprintf("b=%d/expr", width), func(b *testing.B) {
			b.SetBytes(n * 4)
			for b.Loop() {
				kernel(dst, packed, width, lo, span, prior)
			}
		})
		b.Run(fmt.Sprintf("b=%d/oracle", width), func(b *testing.B) {
			b.SetBytes(n * 4)
			for b.Loop() {
				Unpack(vals, packed, width)
				filter(dst, vals, lo, span, prior)
			}
		})
	}
}
