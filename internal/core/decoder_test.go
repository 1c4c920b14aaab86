package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitpack"
)

func TestGetMatchesDecompressPFOR(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, rate := range []float64{0, 0.05, 0.3, 1.0} {
		src := synthPFOR(rng, 3000, 7, 6, rate)
		blk := CompressPFOR(src, 7, 6)
		full := make([]int64, len(src))
		Decompress(blk, full)
		var d Decoder[int64]
		for trial := 0; trial < 500; trial++ {
			x := rng.Intn(len(src))
			if got := d.Get(blk, x); got != full[x] {
				t.Fatalf("rate %.2f: Get(%d) = %d, want %d", rate, x, got, full[x])
			}
		}
		// Boundary positions are the regressions waiting to happen.
		for _, x := range []int{0, 1, 126, 127, 128, 129, 255, 256, len(src) - 1} {
			if got := d.Get(blk, x); got != full[x] {
				t.Fatalf("rate %.2f: Get(boundary %d) = %d, want %d", rate, x, got, full[x])
			}
		}
	}
}

func TestGetMatchesDecompressPDict(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dict := makeDict(64)
	src := synthPDict(rng, 2000, dict, 0.2)
	blk := CompressPDict(src, dict, 6)
	full := make([]int64, len(src))
	Decompress(blk, full)
	var d Decoder[int64]
	for x := 0; x < len(src); x++ {
		if got := d.Get(blk, x); got != full[x] {
			t.Fatalf("Get(%d) = %d, want %d", x, got, full[x])
		}
	}
}

func TestGetMatchesDecompressPFORDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	src := synthMonotonic(rng, 2000, 5, 0.1)
	blk := CompressPFORDelta(src, 0, 0, 5)
	full := make([]int64, len(src))
	Decompress(blk, full)
	var d Decoder[int64]
	for x := 0; x < len(src); x++ {
		if got := d.Get(blk, x); got != full[x] {
			t.Fatalf("Get(%d) = %d, want %d", x, got, full[x])
		}
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	blk := CompressPFOR([]int64{1, 2, 3}, 0, 4)
	for _, x := range []int{-1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d): expected panic", x)
				}
			}()
			Get(blk, x)
		}()
	}
}

func TestDecompressRangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, scheme := range []string{"pfor", "pdict", "pfordelta"} {
		src := synthPFOR(rng, 10*GroupSize+57, 0, 8, 0.1)
		var blk *Block[int64]
		switch scheme {
		case "pfor":
			blk = CompressPFOR(src, 0, 8)
		case "pdict":
			dict := makeDict(256)
			src = synthPDict(rng, len(src), dict, 0.1)
			blk = CompressPDict(src, dict, 8)
		case "pfordelta":
			src = synthMonotonic(rng, len(src), 8, 0.1)
			blk = CompressPFORDelta(src, 0, 0, 8)
		}
		full := make([]int64, len(src))
		Decompress(blk, full)

		var d Decoder[int64]
		buf := make([]int64, len(src))
		for _, r := range [][2]int{{0, GroupSize}, {GroupSize, 3 * GroupSize}, {8 * GroupSize, blk.N}, {0, blk.N}, {2 * GroupSize, 2 * GroupSize}} {
			lo, hi := r[0], r[1]
			out := d.DecompressRange(blk, buf, lo, hi)
			if len(out) != hi-lo {
				t.Fatalf("%s: range [%d,%d): got %d values", scheme, lo, hi, len(out))
			}
			for i := range out {
				if out[i] != full[lo+i] {
					t.Fatalf("%s: range [%d,%d): mismatch at offset %d", scheme, lo, hi, i)
				}
			}
		}
	}
}

func TestDecompressRangeBadArgsPanic(t *testing.T) {
	blk := CompressPFOR(make([]int64, 1000), 0, 4)
	var d Decoder[int64]
	buf := make([]int64, 1000)
	for _, r := range [][2]int{{1, 128}, {0, 100}, {-128, 0}, {128, 1064}, {256, 128}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range %v: expected panic", r)
				}
			}()
			d.DecompressRange(blk, buf, r[0], r[1])
		}()
	}
}

func TestDecoderReuseNoCorruption(t *testing.T) {
	// The same decoder must serve interleaved blocks of different sizes.
	rng := rand.New(rand.NewSource(45))
	a := synthPFOR(rng, 5000, 0, 8, 0.1)
	b := synthPFOR(rng, 100, 0, 8, 0.5)
	blkA := CompressPFOR(a, 0, 8)
	blkB := CompressPFOR(b, 0, 8)
	var d Decoder[int64]
	bufA := make([]int64, len(a))
	bufB := make([]int64, len(b))
	for i := 0; i < 5; i++ {
		d.Decompress(blkA, bufA)
		d.Decompress(blkB, bufB)
	}
	for i := range a {
		if bufA[i] != a[i] {
			t.Fatal("decoder reuse corrupted block A")
		}
	}
	for i := range b {
		if bufB[i] != b[i] {
			t.Fatal("decoder reuse corrupted block B")
		}
	}
}

func TestCodeAtMatchesUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, b := range []uint{1, 3, 8, 17, 31, 32} {
		src := make([]uint64, 700)
		for i := range src {
			src[i] = rng.Uint64() & (1<<b - 1) & ((1 << 40) - 1)
		}
		blk := CompressPFOR(src, 0, b)
		raw := make([]uint32, blk.N)
		unpackAll(blk, raw)
		var d Decoder[uint64]
		for x := 0; x < blk.N; x++ {
			if got := d.codeAt(blk, x); got != raw[x] {
				t.Fatalf("b=%d: codeAt(%d)=%d, want %d", b, x, got, raw[x])
			}
		}
	}
}

// TestQuickRoundTripAllSchemes is the umbrella property test: arbitrary
// int32 data round-trips through every scheme at an analyzer-chosen width.
func TestQuickRoundTripAllSchemes(t *testing.T) {
	f := func(raw []int32, widthSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		b := uint(widthSeed%31) + 1
		base := raw[0]

		blk := CompressPFOR(raw, base, b)
		out := make([]int32, len(raw))
		Decompress(blk, out)
		for i := range raw {
			if out[i] != raw[i] {
				return false
			}
		}

		blkD := CompressPFORDelta(raw, 0, 0, b)
		Decompress(blkD, out)
		for i := range raw {
			if out[i] != raw[i] {
				return false
			}
		}

		// Dictionary of the first few distinct values.
		seen := map[int32]bool{}
		var dict []int32
		for _, v := range raw {
			if !seen[v] && len(dict) < 1<<min(b, 10) {
				seen[v] = true
				dict = append(dict, v)
			}
		}
		blkP := CompressPDict(raw, dict, min(b, 10))
		Decompress(blkP, out)
		for i := range raw {
			if out[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestExceptionIndex: IndexExceptions records exactly the positions the
// patch lists link, and on the indexed block every patch kernel of the
// decoder — Decompress, DecompressRange, Get — returns what it returns
// walking the lists.
func TestExceptionIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	dict := makeDict(64)
	for name, blk := range map[string]*Block[int64]{
		"pfor":       CompressPFOR(synthPFOR(rng, 3000, 7, 6, 0.2), 7, 6),
		"pfor-1bit":  CompressPFOR(synthPFOR(rng, 1000, 0, 1, 0.01), 0, 1), // compulsory exceptions
		"pdict":      CompressPDict(synthPDict(rng, 2000, dict, 0.2), dict, 6),
		"pfor-delta": CompressPFORDelta(synthMonotonic(rng, 2000, 5, 0.1), 0, 0, 5),
		"no-exc":     CompressPFOR(synthPFOR(rng, 500, 0, 8, 0), 0, 8),
	} {
		ix := indexed(t, blk)
		var d Decoder[int64]
		var xpos [GroupSize]int32
		for g := 0; g < blk.NumGroups(); g++ {
			es, _ := blk.groupExc(g)
			for k, pos := range d.excPositions(blk, g, &xpos) {
				if got := g*GroupSize + int(ix.ExcOff[es+k]); got != int(pos) {
					t.Fatalf("%s: exception %d indexed at row %d, its list links row %d", name, es+k, got, pos)
				}
			}
		}
		walked := Decompress(blk, make([]int64, blk.N))
		if got := Decompress(ix, make([]int64, blk.N)); !slices.Equal(got, walked) {
			t.Fatalf("%s: indexed Decompress differs at %d", name, firstDiff(got, walked))
		}
		if got := d.DecompressRange(ix, make([]int64, blk.N), 0, blk.N); !slices.Equal(got, walked) {
			t.Fatalf("%s: indexed DecompressRange differs at %d", name, firstDiff(got, walked))
		}
		for x := range walked {
			if got := d.Get(ix, x); got != walked[x] {
				t.Fatalf("%s: indexed Get(%d) = %d, want %d", name, x, got, walked[x])
			}
		}
	}
}

// TestExceptionIndexRefusesEscapingList: a patch list whose hop leaves
// its group — a gap code only a crafted frame holds — is refused by every
// reader of the list with a corrupt-segment panic: the index is not built,
// and no kernel patches a row outside the group.
func TestExceptionIndexRefusesEscapingList(t *testing.T) {
	src := make([]int64, 300)
	for i := range src {
		src[i] = int64(i % 50)
	}
	src[10], src[20] = 1<<40, 1<<41 // one list of two exceptions in group 0
	blk := CompressPFOR(src, 0, 8)
	raw := make([]uint32, blk.N)
	unpackAll(blk, raw)
	raw[10] = 200 // re-point the first exception's gap past its group
	bitpack.Pack(blk.Codes, raw, blk.B)
	var d Decoder[int64]
	sparse := new(SelectionVector)
	sparse.size(blk.N)
	sparse.words[0] = 1<<10 | 1<<25
	for name, read := range map[string]func(){
		"IndexExceptions":    func() { blk.IndexExceptions() },
		"Decompress":         func() { Decompress(blk, make([]int64, blk.N)) },
		"DecompressRange":    func() { d.DecompressRange(blk, make([]int64, blk.N), 0, GroupSize) },
		"Get":                func() { d.Get(blk, 25) },
		"DecompressMask":     func() { d.DecompressMask(blk, 0, 10, new(SelectionVector)) },
		"RefineMask":         func() { d.RefineMask(blk, 0, 10, sparse) },
		"DecompressSelected": func() { d.DecompressSelected(blk, sparse, nil) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "corrupt segment") {
					t.Errorf("%s: recovered %v, want a corrupt-segment panic", name, r)
				}
			}()
			read()
		}()
	}
	if blk.ExcOff != nil {
		t.Fatalf("a list leaving its group was indexed: %v", blk.ExcOff)
	}
}
