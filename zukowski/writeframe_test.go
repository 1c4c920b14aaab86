package zukowski_test

import (
	"bytes"
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

// TestWriteFrameRefusesFrequencyOrderedDictionaries: the fixture's frames,
// whose dictionaries are laid out by falling frequency, are CRC-valid but
// unreadable, so WriteFrame refuses each of them and the refusal changes
// nothing: the writer goes on to store the same bytes as one that was
// never offered them.
func TestWriteFrameRefusesFrequencyOrderedDictionaries(t *testing.T) {
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

	write := func(offer bool) []byte {
		var out bytes.Buffer
		cw, err := zukowski.NewColumnWriter[int64](&out, zukowski.PDict[int64]{}, bv)
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Write(head); err != nil {
			t.Fatal(err)
		}
		for b := 0; offer && b < legacy.NumBlocks(); b++ {
			err := cw.WriteFrame(blockOf(t, legacy, b))
			if !errors.Is(err, zukowski.ErrUnknownCodec) || !refusesOrder(err) {
				t.Fatalf("WriteFrame of fixture block %d = %v, want the dictionary order refused", b, err)
			}
		}
		if err := cw.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	got, want := write(true), write(false)
	if !bytes.Equal(got, want) {
		t.Fatalf("a writer offered the fixture's frames wrote %d bytes unlike the %d of one never offered them", len(got), len(want))
	}
	cr, err := zukowski.OpenColumn[int64](got)
	if err != nil {
		t.Fatal(err)
	}
	checkReads(t, cr, slices.Concat(head, tail))
}
