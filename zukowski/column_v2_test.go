package zukowski_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/zukowski"
)

// --- Retired layouts are refused ----------------------------------------

// openAs hands data to the entry point named by path as a container of T
// and returns the bytes it wrote (only RecoverColumn writes) and its error.
func openAs[T zukowski.Integer](path string, data []byte) (int, error) {
	switch path {
	case "OpenColumn":
		_, err := zukowski.OpenColumn[T](data)
		return 0, err
	case "OpenColumnReaderAt":
		_, err := zukowski.OpenColumnReaderAt[T](bytes.NewReader(data), int64(len(data)))
		return 0, err
	}
	var out bytes.Buffer
	_, err := zukowski.RecoverColumn[T](bytes.NewReader(data), int64(len(data)), &out)
	return out.Len(), err
}

// TestZKC1Fixtures: golden containers written in the retired ZKC1 layout
// (one of them holding a FOR frame, a codec that is gone too) are refused
// by every way into a container — the in-memory and ReaderAt-backed
// readers and the salvage walk — with an ErrCorruptColumn that names the
// layout: never read, never a panic, and a refused salvage writes nothing.
func TestZKC1Fixtures(t *testing.T) {
	fixtures := []struct {
		file string
		open func(string, []byte) (int, error)
	}{
		{"zkc1_int64_pfor.bin", openAs[int64]},
		{"zkc1_uint32_auto.bin", openAs[uint32]},
		{"zkc1_int16_for.bin", openAs[int16]},
	}
	for _, path := range []string{"OpenColumn", "OpenColumnReaderAt", "RecoverColumn"} {
		t.Run(path, func(t *testing.T) {
			for _, fx := range fixtures {
				data, err := os.ReadFile(filepath.Join("testdata", fx.file))
				if err != nil {
					t.Fatal(err)
				}
				wrote, err := fx.open(path, data)
				if !errors.Is(err, zukowski.ErrCorruptColumn) || !strings.Contains(err.Error(), "ZKC1") {
					t.Fatalf("%s: err = %v, want ErrCorruptColumn naming ZKC1", fx.file, err)
				}
				if wrote != 0 {
					t.Fatalf("%s: a refused salvage wrote %d bytes", fx.file, wrote)
				}
			}
		})
	}
}

// --- ZKC2 round trip ----------------------------------------------------

// buildColumnV2 writes src with the default (ZKC2) writer.
func buildColumnV2[T zukowski.Integer](t *testing.T, codec zukowski.Codec[T], blockValues int, src []T) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter(&buf, codec, blockValues)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkReads drives ReadAll, Get and Verify of one reader against src.
func checkReads[T zukowski.Integer](t *testing.T, cr *zukowski.ColumnReader[T], src []T) {
	t.Helper()
	if cr.Len() != len(src) {
		t.Fatalf("Len = %d, want %d", cr.Len(), len(src))
	}
	got, err := cr.ReadAll(nil)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("ReadAll value %d: got %v want %v", i, got[i], src[i])
		}
	}
	for k := 0; k < 200; k++ {
		i := (k * 7919) % len(src)
		v, err := cr.Get(i)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if v != src[i] {
			t.Fatalf("Get(%d) = %v, want %v", i, v, src[i])
		}
	}
	if err := cr.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// zkc2RoundTrip exercises one element type end to end: default writer
// emits ZKC2, both the in-memory and the ReaderAt-backed readers agree
// with the source, and the zone maps bound every block.
func zkc2RoundTrip[T zukowski.Integer](t *testing.T, rng *rand.Rand) {
	t.Helper()
	src := genValues[T](rng, 3000)
	data := buildColumnV2[T](t, nil, 256, src)

	cr, err := zukowski.OpenColumn[T](data)
	if err != nil {
		t.Fatalf("OpenColumn: %v", err)
	}
	checkReads(t, cr, src)

	// Zone maps must bound every block's actual values exactly.
	for b := 0; b < cr.NumBlocks(); b++ {
		lo, hi, ok := cr.ZoneMap(b)
		if !ok {
			t.Fatalf("block %d: no zone map on ZKC2", b)
		}
		vals, err := cr.ReadBlock(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantLo, wantHi := vals[0], vals[0]
		for _, v := range vals {
			if v < wantLo {
				wantLo = v
			}
			if v > wantHi {
				wantHi = v
			}
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("block %d: zone map [%v,%v], values span [%v,%v]", b, lo, hi, wantLo, wantHi)
		}
		info, err := cr.BlockInfo(b)
		if err != nil {
			t.Fatal(err)
		}
		if info.Min != wantLo || info.Max != wantHi || info.Count != len(vals) {
			t.Fatalf("block %d: BlockInfo = %+v", b, info)
		}
	}

	// The ReaderAt-backed reader sees the same column.
	lazy, err := zukowski.OpenColumnReaderAt[T](bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("OpenColumnReaderAt: %v", err)
	}
	checkReads(t, lazy, src)
}

// TestZKC2RoundTripAllTypes: the new format round-trips for all 8 element
// types through both column sources.
func TestZKC2RoundTripAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	t.Run("int8", func(t *testing.T) { zkc2RoundTrip[int8](t, rng) })
	t.Run("int16", func(t *testing.T) { zkc2RoundTrip[int16](t, rng) })
	t.Run("int32", func(t *testing.T) { zkc2RoundTrip[int32](t, rng) })
	t.Run("int64", func(t *testing.T) { zkc2RoundTrip[int64](t, rng) })
	t.Run("uint8", func(t *testing.T) { zkc2RoundTrip[uint8](t, rng) })
	t.Run("uint16", func(t *testing.T) { zkc2RoundTrip[uint16](t, rng) })
	t.Run("uint32", func(t *testing.T) { zkc2RoundTrip[uint32](t, rng) })
	t.Run("uint64", func(t *testing.T) { zkc2RoundTrip[uint64](t, rng) })
}

// TestZKC2NegativeZoneMaps: signed columns with negative values keep
// correct zone-map ordering through the 64-bit directory representation.
func TestZKC2NegativeZoneMaps(t *testing.T) {
	src := make([]int32, 1000)
	for i := range src {
		src[i] = int32(i%200) - 100 // spans [-100, 99]
	}
	data := buildColumnV2(t, zukowski.PFOR[int32]{}, 250, src)
	cr, err := zukowski.OpenColumn[int32](data)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := cr.ZoneMap(0)
	if !ok || lo != -100 || hi != 99 {
		t.Fatalf("ZoneMap(0) = %d, %d, %v; want -100, 99, true", lo, hi, ok)
	}
	cs := oneColumn(t, cr)
	if n := candidateBlocks(t, cs, rangeQuery[int32](-200, -101)); n != 0 {
		t.Fatalf("candidate blocks below range = %d, want 0", n)
	}
	if n := candidateBlocks(t, cs, rangeQuery[int32](-100, -100)); n != cr.NumBlocks() {
		t.Fatalf("candidate blocks of [-100,-100] = %d, want %d", n, cr.NumBlocks())
	}
}

// candidateBlocks is the number of blocks q's zone-map analysis cannot
// exclude: the set's blocks less Candidates' pruned count.
func candidateBlocks[T zukowski.Integer](t *testing.T, cs *zukowski.ColumnSet[T], q zukowski.Query[T]) int {
	t.Helper()
	pruned, err := cs.Candidates(context.Background(), q, func(zukowski.Candidate[T]) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return cs.NumBlocks() - pruned
}

// --- checksum corruption ------------------------------------------------

// TestZKC2PayloadBitFlip: a single flipped bit in any block payload makes
// every read path fail with ErrChecksumMismatch (which also matches the
// ErrCorruptColumn umbrella).
func TestZKC2PayloadBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := genValues[int64](rng, 4000)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, src)

	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cr.BlockInfo(2)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(data)
	bad[int(info.Offset)+info.Length/2] ^= 0x01 // one bit, mid-payload of block 2

	crBad, err := zukowski.OpenColumn[int64](bad) // directory is intact
	if err != nil {
		t.Fatalf("OpenColumn after payload flip: %v", err)
	}
	if _, err := crBad.ReadAll(nil); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("ReadAll err = %v, want ErrChecksumMismatch", err)
	}
	row := 2*512 + 17 // inside the damaged block
	if _, err := crBad.Get(row); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("Get err = %v, want ErrChecksumMismatch", err)
	}
	if err := crBad.Scan(func([]int64) bool { return true }); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("Scan err = %v, want ErrChecksumMismatch", err)
	}
	if err := crBad.VerifyBlock(2); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("VerifyBlock err = %v, want ErrChecksumMismatch", err)
	}
	if !errors.Is(crBad.Verify(), zukowski.ErrCorruptColumn) {
		t.Fatal("checksum mismatch does not match ErrCorruptColumn umbrella")
	}
	// Undamaged blocks still read fine.
	if _, err := crBad.ReadBlock(0, nil); err != nil {
		t.Fatalf("ReadBlock(0) on column with damage elsewhere: %v", err)
	}

	// The same flip through the lazy ReaderAt source is also caught.
	lazy, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.Get(row); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("lazy Get err = %v, want ErrChecksumMismatch", err)
	}
}

// TestZKC2DirectoryBitFlip: a flipped bit in the directory footer is
// caught by the directory checksum at open time.
func TestZKC2DirectoryBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	src := genValues[uint16](rng, 2000)
	data := buildColumnV2[uint16](t, nil, 256, src)

	// The directory sits between the last frame and the 24-byte tail.
	// Flip one bit in a zone-map byte of the first entry.
	cr, err := zukowski.OpenColumn[uint16](data)
	if err != nil {
		t.Fatal(err)
	}
	dirStart := len(data) - 24 - cr.NumBlocks()*40
	bad := bytes.Clone(data)
	bad[dirStart+24] ^= 0x80
	if _, err := zukowski.OpenColumn[uint16](bad); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("OpenColumn err = %v, want ErrChecksumMismatch", err)
	}
	if _, err := zukowski.OpenColumnReaderAt[uint16](bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("OpenColumnReaderAt err = %v, want ErrChecksumMismatch", err)
	}
}

// --- zone-map pruning of a one-column Query -------------------------------

// TestScanWhereOracle: for random ranges over random data, a zone-pruned
// one-column range Query selects exactly the rows and values filtering a
// full ReadAll selects.
func TestScanWhereOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	src := genValues[int64](rng, 10_000)
	data := buildColumnV2[int64](t, nil, 512, src)
	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	cs := oneColumn(t, cr)
	for trial := 0; trial < 50; trial++ {
		lo := rng.Int63n(130) - 2
		hi := lo + rng.Int63n(40)
		var wantRows, want []int64
		for i, v := range src {
			if v >= lo && v <= hi {
				wantRows, want = append(wantRows, int64(i)), append(want, v)
			}
		}
		rows, got, err := collectRun(t, cs, rangeQuery(lo, hi))
		if err != nil {
			t.Fatalf("[%d,%d]: %v", lo, hi, err)
		}
		if !slices.Equal(rows, wantRows) || !slices.Equal(got, want) {
			t.Fatalf("[%d,%d] selected %d values, oracle %d", lo, hi, len(got), len(want))
		}
	}
}

// TestScanWherePrunes: on a sorted column a selective range leaves strictly
// fewer candidate blocks than the column has — the zone-map pruning claim,
// asserted on Candidates' count and on the blocks Run delivers.
func TestScanWherePrunes(t *testing.T) {
	src := make([]int64, 20_000)
	for i := range src {
		src[i] = int64(i) // sorted: zone maps partition the domain
	}
	data := buildColumnV2(t, zukowski.PFORDelta[int64]{}, 1024, src)
	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}

	fullBlocks := 0
	if err := cr.Scan(func([]int64) bool { fullBlocks++; return true }); err != nil {
		t.Fatal(err)
	}
	if fullBlocks != cr.NumBlocks() {
		t.Fatalf("Scan visited %d of %d blocks", fullBlocks, cr.NumBlocks())
	}

	cs := oneColumn(t, cr)
	ctx := context.Background()
	lo, hi := int64(5000), int64(5999)
	q := rangeQuery(lo, hi)
	candidates := candidateBlocks(t, cs, q)
	if candidates >= fullBlocks {
		t.Fatalf("%d candidate blocks of %d — no pruning", candidates, fullBlocks)
	}
	delivered := 0
	var selected []int64
	if err := cs.Run(ctx, q, func(_ int, _ []int64, cols [][]int64) bool {
		delivered++
		selected = append(selected, cols[0]...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if delivered != candidates {
		t.Fatalf("Run delivered %d blocks, Candidates left %d", delivered, candidates)
	}
	if len(selected) != 1000 {
		t.Fatalf("Run selected %d values, want 1000", len(selected))
	}
	// A range outside the domain touches nothing.
	if n := candidateBlocks(t, cs, rangeQuery[int64](-100, -1)); n != 0 {
		t.Fatalf("%d candidate blocks for a range outside the domain", n)
	}
	if err := cs.Run(ctx, rangeQuery[int64](-100, -1), func(int, []int64, [][]int64) bool {
		t.Fatal("Run delivered a block for an empty range")
		return false
	}); err != nil {
		t.Fatal(err)
	}
}

// --- ReaderAt source ----------------------------------------------------

// TestColumnReaderAtFile: a ZKC2 column streams from an actual *os.File
// through OpenColumnReaderAt, including a zone-pruned range Query.
func TestColumnReaderAtFile(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	src := genValues[uint32](rng, 8000)
	data := buildColumnV2[uint32](t, nil, 512, src)

	path := filepath.Join(t.TempDir(), "col.zkc2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	cr, err := zukowski.OpenColumnReaderAt[uint32](f, fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	if cr.CompressedBytes() != len(data) {
		t.Fatalf("CompressedBytes = %d, want %d", cr.CompressedBytes(), len(data))
	}
	checkReads(t, cr, src)
	rows, _, err := collectRun(t, oneColumn(t, cr), rangeQuery[uint32](0, 10))
	if err != nil {
		t.Fatal(err)
	}
	count, want := len(rows), 0
	for _, v := range src {
		if v <= 10 {
			want++
		}
	}
	if count != want {
		t.Fatalf("file-backed range Query selected %d, oracle %d", count, want)
	}
}

// TestColumnReaderAtReverifies: a ReaderAt source re-reads bytes on every
// fetch, so checksum verification must not be memoized across fetches —
// corruption that appears after a block was first read (bit rot, a
// concurrently rewritten file) still surfaces as ErrChecksumMismatch.
func TestColumnReaderAtReverifies(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	src := genValues[int64](rng, 3000)
	data := buildColumnV2[int64](t, nil, 512, src)

	cr, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Verify(); err != nil { // every block passes, pre-corruption
		t.Fatal(err)
	}
	var scanned int
	if err := cr.Scan(func(vals []int64) bool { scanned += len(vals); return true }); err != nil {
		t.Fatal(err)
	}
	if scanned != len(src) {
		t.Fatalf("scanned %d values", scanned)
	}

	// Rot a payload byte in the shared backing slice after the fact.
	info, err := cr.BlockInfo(1)
	if err != nil {
		t.Fatal(err)
	}
	data[int(info.Offset)+3] ^= 0x20
	if err := cr.Scan(func([]int64) bool { return true }); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("Scan after rot err = %v, want ErrChecksumMismatch", err)
	}
	if err := cr.VerifyBlock(1); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("VerifyBlock after rot err = %v, want ErrChecksumMismatch", err)
	}
}

// TestColumnReaderAtTruncated: a ReaderAt whose claimed size exceeds the
// data reports typed errors, not panics.
func TestColumnReaderAtTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	src := genValues[int64](rng, 2000)
	data := buildColumnV2[int64](t, nil, 256, src)
	for _, cut := range []int{0, 10, len(data) / 2, len(data) - 5} {
		_, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(data[:cut]), int64(len(data)))
		if err == nil {
			t.Fatalf("cut %d: open succeeded on truncated source", cut)
		}
		if !errors.Is(err, zukowski.ErrCorruptColumn) && !errors.Is(err, zukowski.ErrCorruptSegment) {
			t.Fatalf("cut %d: err = %v", cut, err)
		}
	}
}

// TestColumnEmptyV2: an empty ZKC2 container round-trips through both
// sources.
func TestColumnEmptyV2(t *testing.T) {
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int8](&buf, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func() (*zukowski.ColumnReader[int8], error){
		func() (*zukowski.ColumnReader[int8], error) { return zukowski.OpenColumn[int8](buf.Bytes()) },
		func() (*zukowski.ColumnReader[int8], error) {
			return zukowski.OpenColumnReaderAt[int8](bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		},
	} {
		cr, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if cr.Len() != 0 || cr.NumBlocks() != 0 {
			t.Fatalf("Len=%d NumBlocks=%d", cr.Len(), cr.NumBlocks())
		}
		if err := cr.Verify(); err != nil {
			t.Fatal(err)
		}
		if rows, _, err := collectRun(t, oneColumn(t, cr), rangeQuery[int8](0, 100)); err != nil || len(rows) != 0 {
			t.Fatalf("range Query over an empty column: %d rows, %v", len(rows), err)
		}
	}
}
