package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitpack"
)

// The density-switched gather against a decode-then-pick oracle. Both
// regimes are forced through gatherSelected / gatherSelectedCodes (the
// threshold is their parameter) and must agree with each other, with the
// automatic choice and with the oracle on every block and selection below.

// The names the external tests and BenchmarkGatherCrossover (package
// core_test, which may import experiments) reach the forced regimes by.
const (
	ForceDense  = 0
	ForceSparse = GroupSize + 1
)

func (d *Decoder[T]) GatherSelected(blk *Block[T], sv *SelectionVector, vals []T, denseMin int) []T {
	return d.gatherSelected(blk, sv, vals, denseMin)
}

// excPositions walks group g's patch list and writes the block-absolute
// position of every exception to out, returning the filled prefix: the
// tests' way to find the exception slots. The gaps live in the code
// slots, so each hop extracts one packed code.
func (d *Decoder[T]) excPositions(blk *Block[T], g int, out *[GroupSize]int32) []int32 {
	es, ee := blk.groupExc(g)
	if es == ee {
		return out[:0]
	}
	pos := g*GroupSize + blk.patchStart(g)
	n := 0
	for k := es; k < ee; k++ {
		out[n] = int32(pos)
		n++
		pos += int(bitpack.CodeAt(blk.Codes, pos, blk.B)) + 1
	}
	return out[:n]
}

// indexed returns a copy of blk sharing its sections, with the exception
// index built: the form a block takes while it is resident in a cache.
// The kernels must give the same answers on it as on blk, which they walk.
func indexed[T Integer](t testing.TB, blk *Block[T]) *Block[T] {
	t.Helper()
	ix := *blk
	ix.IndexExceptions()
	return &ix
}

// checkGather holds every regime of DecompressSelected — and, for PDICT,
// of DecompressSelectedCodes — to the oracle under selection sv, on blk
// walked and indexed.
func checkGather[T Integer](t *testing.T, what string, d *Decoder[T], blk *Block[T], full []T, excSlot []bool, sv *SelectionVector) {
	t.Helper()
	checkGatherOnce(t, what+", walked", d, blk, full, excSlot, sv)
	checkGatherOnce(t, what+", indexed", d, indexed(t, blk), full, excSlot, sv)
}

func checkGatherOnce[T Integer](t *testing.T, what string, d *Decoder[T], blk *Block[T], full []T, excSlot []bool, sv *SelectionVector) {
	t.Helper()
	var want []T
	var wantRows []int
	for i := range full {
		if sv.Test(i) {
			want = append(want, full[i])
			wantRows = append(wantRows, i)
		}
	}
	prefix := []T{7, 9} // appended to, never overwritten
	for _, regime := range []struct {
		name     string
		denseMin int
	}{{"auto", denseGatherMin}, {"dense", ForceDense}, {"sparse", ForceSparse}} {
		got := d.gatherSelected(blk, sv, slices.Clone(prefix), regime.denseMin)
		if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
			t.Fatalf("%s, %s gather: %d values, want %d (first difference at output %d)",
				what, regime.name, len(got)-2, len(want), firstDiff(got[2:], want))
		}
		if blk.Scheme != SchemePDict {
			continue
		}
		codes := d.gatherSelectedCodes(blk, sv, []int32{-5}, regime.denseMin)
		if codes[0] != -5 || len(codes)-1 != len(wantRows) {
			t.Fatalf("%s, %s codes: %d codes, want %d", what, regime.name, len(codes)-1, len(wantRows))
		}
		for j, row := range wantRows {
			c := codes[j+1]
			if excSlot[row] {
				if c != -1 {
					t.Fatalf("%s, %s codes: exception slot %d yielded code %d, want -1", what, regime.name, row, c)
				}
			} else if c < 0 || int(c) >= blk.DictLen || blk.Dict[c] != full[row] {
				t.Fatalf("%s, %s codes: row %d yielded code %d, want the code of %v", what, regime.name, row, c, full[row])
			}
		}
	}
}

func firstDiff[T Integer](got, want []T) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	return min(len(got), len(want))
}

// exceptionSlots returns, per row, whether the row is on a patch list —
// compulsory entries included — from the block's own lists.
func exceptionSlots[T Integer](d *Decoder[T], blk *Block[T]) []bool {
	slots := make([]bool, blk.N)
	if blk.Scheme == SchemePFORDelta {
		return slots
	}
	var xpos [GroupSize]int32
	for g := 0; g < blk.NumGroups(); g++ {
		for _, pos := range d.excPositions(blk, g, &xpos) {
			slots[pos] = true
		}
	}
	return slots
}

// selectGroup sets live rows of group g in sv: scattered at random, or as
// one run from a random start (which, from 32 rows up, fills whole mask
// words and leaves others empty).
func selectGroup(rng *rand.Rand, sv *SelectionVector, g, live int, clustered bool) {
	start := g * GroupSize
	n := min(GroupSize, sv.Len()-start)
	live = min(live, n)
	if clustered {
		first := start + rng.Intn(n-live+1)
		for i := first; i < first+live; i++ {
			sv.Set(i)
		}
		return
	}
	for _, i := range rng.Perm(n)[:live] {
		sv.Set(start + i)
	}
}

// gatherBlocks compresses n values under every scheme, at several code
// widths and at each exception rate, for element type T.
func gatherBlocks[T Integer](rng *rand.Rand, n int) map[string]*Block[T] {
	blocks := make(map[string]*Block[T])
	maxBits := typeBits[T]()
	for _, rate := range []float64{0, 0.02, 0.10, 0.50} {
		for _, b := range []uint{1, 6, 10, 16, 27} {
			if b >= maxBits {
				continue
			}
			// PFOR: b-bit offsets from a base, outliers anywhere in T.
			src := make([]T, n)
			for i := range src {
				src[i] = T(100 + rng.Int63n(1<<b))
				if rng.Float64() < rate {
					src[i] = T(rng.Uint64())
				}
			}
			blocks[fmt.Sprintf("pfor/b=%d/exc=%v", b, rate)] = CompressPFOR(src, 100, b)

			// PFOR-DELTA: b-bit steps, outliers as jumps.
			var acc T
			for i := range src {
				acc += T(rng.Int63n(1 << b))
				if rng.Float64() < rate {
					acc += T(rng.Uint64() >> 8)
				}
				src[i] = acc
			}
			blocks[fmt.Sprintf("pfor-delta/b=%d/exc=%v", b, rate)] = CompressPFORDelta(src, 0, 0, b)
		}
		for _, b := range []uint{1, 3, 6} {
			// PDICT: a shuffled dictionary, so code order is not value order.
			dict := make([]T, 1<<b)
			for i := range dict {
				dict[i] = T(3 * i)
			}
			rng.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
			src := make([]T, n)
			for i := range src {
				src[i] = dict[rng.Intn(len(dict))]
				if rng.Float64() < rate {
					src[i] = T(3*rng.Intn(40) + 1) // never in the dictionary
				}
			}
			blocks[fmt.Sprintf("pdict/b=%d/exc=%v", b, rate)] = CompressPDict(src, dict, b)
		}
	}
	return blocks
}

func testGatherAs[T Integer](t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Five full groups and a tail of 77: the last mask word covers 13 rows.
	const n = 5*GroupSize + 77
	var d Decoder[T]
	var sv SelectionVector
	for name, blk := range gatherBlocks[T](rng, n) {
		full := Decompress(blk, make([]T, n))
		excSlot := exceptionSlots(&d, blk)
		// Every per-group density 0..128 occurs in some group: group g of
		// pass p holds p+g*23 (mod 129) live rows, so one selection mixes
		// groups on both sides of the threshold.
		for pass := 0; pass <= GroupSize; pass++ {
			for _, clustered := range []bool{false, true} {
				sv.Reset(n)
				for g := 0; g < blk.NumGroups(); g++ {
					selectGroup(rng, &sv, g, (pass+g*23)%(GroupSize+1), clustered)
				}
				checkGather(t, fmt.Sprintf("%s pass %d clustered=%v", name, pass, clustered), &d, blk, full, excSlot, &sv)
			}
		}
		sv.Fill(n)
		checkGather(t, name+" every row", &d, blk, full, excSlot, &sv)
		sv.Clear(n - 1)
		checkGather(t, name+" every row but the last", &d, blk, full, excSlot, &sv)
	}
}

// TestGatherDenseSparseOracle is the differential test of the
// density-switched gather: every scheme, five code widths, exception
// rates 0 / 2 / 10 / 50 %, per-group densities 0..128 scattered and
// clustered, a short tail group, on three element types.
func TestGatherDenseSparseOracle(t *testing.T) {
	t.Run("int64", testGatherAs[int64])
	t.Run("uint32", testGatherAs[uint32])
	t.Run("int16", testGatherAs[int16])
}

// fuzzGather builds one block from the fuzz input — values from data,
// scheme, width and dictionary from the selectors — and checks one fuzzed
// selection in every regime.
func fuzzGather(t *testing.T, data, maskBytes []byte, scheme, width uint8) {
	var src []int64
	for chunk := data; len(chunk) > 0; {
		var tail [8]byte
		n := copy(tail[:], chunk)
		src = append(src, int64(binary.LittleEndian.Uint64(tail[:])))
		chunk = chunk[n:]
	}
	if len(src) == 0 || len(maskBytes) == 0 {
		t.Skip()
	}
	// Short inputs repeat up to a few groups, keeping the fuzzed values.
	for k := len(src); len(src) < 3*GroupSize+41; {
		src = append(src, src[len(src)%k]+int64(len(src)%5))
	}
	b := uint(width)%32 + 1
	var blk *Block[int64]
	switch scheme % 3 {
	case 0:
		blk = CompressPFOR(src, src[0], b)
	case 1:
		blk = CompressPFORDelta(src, 0, src[0]-src[len(src)-1], b)
	default:
		b = b%MaxDictBits + 1
		dict := slices.Clone(src[:min(len(src), 1<<b)])
		slices.Sort(dict)
		dict = slices.Compact(dict)
		if scheme%2 == 0 {
			slices.Reverse(dict)
		}
		blk = CompressPDict(src, dict, b)
	}
	var d Decoder[int64]
	full := Decompress(blk, make([]int64, len(src)))
	if !slices.Equal(full, src) {
		t.Fatalf("round trip of %s block differs from source", blk.Scheme)
	}
	// One mask byte per 8 rows, cycled; 0xFF and 0x00 runs make full and
	// empty words.
	var sv SelectionVector
	sv.Reset(len(src))
	for i := range src {
		if maskBytes[(i/8)%len(maskBytes)]>>(uint(i)%8)&1 != 0 {
			sv.Set(i)
		}
	}
	checkGather(t, blk.Scheme.String(), &d, blk, full, exceptionSlots(&d, blk), &sv)
}

// FuzzDecompressSelected fuzzes the gather's inputs — values, scheme, code
// width, selection — against the decode-then-pick oracle in all three
// regimes (automatic, forced dense, forced sparse).
func FuzzDecompressSelected(f *testing.F) {
	f.Add([]byte{42}, []byte{0xFF}, uint8(0), uint8(9)) // every row: one block-level Decompress
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0x11}, uint8(0), uint8(9))
	f.Add([]byte{200, 1, 0, 0, 0, 0, 0, 0, 3}, []byte{0xAA, 0xFF, 0x01}, uint8(1), uint8(3))
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 11}, []byte{0xFF, 0xFF, 0xFF, 0xFE}, uint8(2), uint8(2))
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 11}, []byte{0x01, 0, 0, 0, 0x80}, uint8(5), uint8(1))
	f.Fuzz(fuzzGather)
}
