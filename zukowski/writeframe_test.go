package zukowski_test

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/zukowski"
)

// blockOf fetches block b of cr the way a splicing caller does: the
// verified frame and its directory entry.
func blockOf(t *testing.T, cr *zukowski.ColumnReader[int64], b int) ([]byte, zukowski.BlockInfo[int64]) {
	t.Helper()
	frame, err := cr.FrameBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cr.BlockInfo(b)
	if err != nil {
		t.Fatal(err)
	}
	return frame, info
}

// TestWriteFrameRefusals: every way a frame can be unfit for splicing is
// refused without disturbing the writer, which afterwards splices the good
// frames into a container byte for byte the one they came from.
func TestWriteFrameRefusals(t *testing.T) {
	const bv = 100
	vals := synthColumn(rand.New(rand.NewSource(150)), 2*bv+30)
	src := buildColumnV2[int64](t, zukowski.PFOR[int64]{}, bv, vals)
	cr, err := zukowski.OpenColumn[int64](src)
	if err != nil {
		t.Fatal(err)
	}
	frame, info := blockOf(t, cr, 0)
	shortFrame, shortInfo := blockOf(t, cr, 2)

	// Frames of an unknown kind whose checksums are nonetheless right: only
	// the magic check can stop them. 0xB6 is the magic of the comparator
	// frames containers no longer hold.
	alienOf := func(magic byte) ([]byte, zukowski.BlockInfo[int64]) {
		alien := slices.Clone(frame)
		alien[0] = magic
		alienInfo := info
		alienInfo.CRC32C = crc32.Checksum(alien, crc32.MakeTable(crc32.Castagnoli))
		return alien, alienInfo
	}
	alien, alienInfo := alienOf(0x7f)
	retired, retiredInfo := alienOf(0xB6)

	rotten := slices.Clone(frame)
	rotten[len(rotten)/2] ^= 0x10

	otherSize := info
	otherSize.Count = bv / 2

	var out bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&out, zukowski.PFOR[int64]{}, bv)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		info  zukowski.BlockInfo[int64]
		want  error // nil: any error
	}{
		{"short block", shortFrame, shortInfo, nil},
		{"another block size", frame, otherSize, nil},
		{"unknown magic", alien, alienInfo, zukowski.ErrUnknownCodec},
		{"retired magic", retired, retiredInfo, zukowski.ErrUnknownCodec},
		{"empty frame", nil, info, zukowski.ErrUnknownCodec},
		{"flipped bit", rotten, info, zukowski.ErrChecksumMismatch},
	} {
		err := cw.WriteFrame(tc.frame, tc.info)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: WriteFrame = %v, want %v", tc.name, err, tc.want)
		}
		if cw.Len() != 0 || cw.NumBlocks() != 0 || out.Len() != 16 {
			t.Fatalf("%s: the refusal left %d values, %d blocks, %d bytes behind", tc.name, cw.Len(), cw.NumBlocks(), out.Len())
		}
	}

	if err := cw.WriteFrame(frame, info); err != nil {
		t.Fatalf("WriteFrame of a good block: %v", err)
	}
	// Values buffered mid-block: a frame here would sit at the wrong rows.
	if err := cw.Write(vals[bv : bv+1]); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteFrame(blockOf(t, cr, 1)); err == nil {
		t.Fatal("WriteFrame with a value buffered mid-block succeeded")
	}
	if err := cw.Write(vals[bv+1:]); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), src) {
		t.Fatalf("one spliced block and the rest written: %d bytes differ from the source container's %d", out.Len(), len(src))
	}
	if err := cw.WriteFrame(frame, info); !errors.Is(err, zukowski.ErrClosed) {
		t.Fatalf("WriteFrame on a closed writer = %v, want ErrClosed", err)
	}
}

// TestWriteFrameKeepsFrequencyOrderedDictionaries: the fixture's frames,
// whose dictionaries are laid out by falling frequency, spliced between a
// block written today and a short tail, are still the frames the fixture
// holds — DictAscending false — and the column answers like the oracle.
func TestWriteFrameKeepsFrequencyOrderedDictionaries(t *testing.T) {
	const bv = 1000
	data, err := os.ReadFile(filepath.Join("testdata", "zkc2_int64_pdict_freq.bin"))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	legacyVals := legacyPDictValues(rand.New(rand.NewSource(14)))
	head, tail := legacyVals[:bv], legacyVals[bv:bv+123]
	vals := slices.Concat(head, legacyVals, tail)

	var out bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&out, zukowski.PDict[int64]{}, bv)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(head); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < legacy.NumBlocks(); b++ {
		if err := cw.WriteFrame(blockOf(t, legacy, b)); err != nil {
			t.Fatalf("WriteFrame of fixture block %d: %v", b, err)
		}
	}
	if err := cw.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if cw.Len() != len(vals) || cw.NumBlocks() != 5 {
		t.Fatalf("writer holds %d values in %d blocks, want %d in 5", cw.Len(), cw.NumBlocks(), len(vals))
	}

	cr, err := zukowski.OpenColumn[int64](out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkReads(t, cr, vals)
	_, ascending := parsedDicts(t, cr)
	if want := []bool{true, false, false, false, true}; !slices.Equal(ascending, want) {
		t.Fatalf("dictionaries ascending = %v, want %v", ascending, want)
	}
	for b := 0; b < legacy.NumBlocks(); b++ {
		want, _ := blockOf(t, legacy, b)
		got, info := blockOf(t, cr, b+1)
		lo, hi, _ := legacy.ZoneMap(b)
		if !bytes.Equal(got, want) || info.Min != lo || info.Max != hi {
			t.Fatalf("block %d is not fixture block %d with its zone map", b+1, b)
		}
	}

	cs, err := zukowski.NewColumnSet(cr)
	if err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 40; trial++ {
		lo, hi := sorted[rng.Intn(len(sorted))], sorted[rng.Intn(len(sorted))]
		lo, hi = min(lo, hi)-int64(trial%2), max(lo, hi)+int64(trial%2)
		q := zukowski.Query[int64]{Expr: zukowski.Range(0, lo, hi)}
		var wantRows []int64
		var want zukowski.Aggregate[int64]
		for i, v := range vals {
			if v >= lo && v <= hi {
				wantRows = append(wantRows, int64(i))
				want.Merge(zukowski.Aggregate[int64]{Count: 1, Sum: v, Min: v, Max: v})
			}
		}
		var gotRows []int64
		if err := cs.Run(context.Background(), q, func(_ int, rows []int64, _ [][]int64) bool {
			gotRows = append(gotRows, rows...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotRows, wantRows) {
			t.Fatalf("[%d,%d]: Run selected %d rows, oracle %d", lo, hi, len(gotRows), len(wantRows))
		}
		if got, err := cs.RunAggregate(context.Background(), q, 0); err != nil || got != want {
			t.Fatalf("[%d,%d]: RunAggregate = %+v, %v; oracle %+v", lo, hi, got, err, want)
		}
	}
}
