package zktable

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	zkseg "repro/internal/segment"
	"repro/zukowski"
)

// resealedTable creates a table of columns k and v in dir, 1000-value
// blocks under codec, appends vals to both, and then overwrites column
// v's block 1 with edit's result, re-sealing the frame CRC in the container
// directory, the directory CRC in the tail, and the frame CRC the manifest
// committed: a table whose every checksum is valid around a frame of
// the caller's choosing.
func resealedTable(t *testing.T, dir, codec string, vals []int64, edit func(frame []byte)) {
	t.Helper()
	tb, err := Create[int64](dir, []string{"k", "v"}, 1000, Options{Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Append([][]int64{vals, vals}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := Fsck(dir); err != nil || !rep.OK() {
		t.Fatalf("clean table: %v, %v", rep, err)
	}
	man, _, _, _, err := manifestsOnDisk(dir, defaultKeep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segFileName(man.Segs[0].ID, "v"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cr.BlockInfo(1)
	if err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	frame := data[info.Offset : info.Offset+int64(info.Length)]
	edit(frame)
	crc := crc32.Checksum(frame, castagnoli)
	const dirEntry, tailSize = 40, 24
	dirStart := len(data) - tailSize - cr.NumBlocks()*dirEntry
	binary.LittleEndian.PutUint32(data[dirStart+1*dirEntry+16:], crc)
	binary.LittleEndian.PutUint32(data[len(data)-tailSize+12:], crc32.Checksum(data[dirStart:len(data)-tailSize], castagnoli))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	man.Segs[0].Cols[1].CRCs[1] = crc
	if err := os.WriteFile(filepath.Join(dir, manifestName(man.Generation)), man.encode(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkRefused asserts that the table in dir opens (nothing it checks at
// open is wrong), that a scan fails on column v's block 1 with
// ErrCorruptSegment, and that Fsck refuses the table with one problem
// naming the column, the block — once — and what (a phrase of the cause).
func checkRefused(t *testing.T, dir, what string) {
	t.Helper()
	tb, _, err := Open[int64](dir, Options{})
	if err != nil {
		t.Fatalf("open of the re-sealed table: %v", err)
	}
	defer tb.Close()
	sink := func(int, []int64, [][]int64) bool { return true }
	if err := tb.Run(context.Background(), zukowski.Query[int64]{}, sink); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("read of the re-sealed frame: %v, want ErrCorruptSegment", err)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Problems) != 1 {
		t.Fatalf("Fsck: OK=%v, problems %v; want the one block", rep.OK(), rep.Problems)
	}
	if p := rep.Problems[0]; !strings.Contains(p, `column "v"`) || strings.Count(p, "block 1") != 1 || !strings.Contains(p, what) {
		t.Fatalf("problem %q does not name column v, block 1 (once) and %q", p, what)
	}
}

// TestFsckRefusesRetiredFrame: a table appended by a build that still
// wrote comparator codecs holds frames whose checksums are valid all the
// way up — container directory and manifest — but whose first byte is a
// retired magic (0xB6), which every scan of the block refuses. Fsck must
// refuse it too, naming the column and the block, rather than pass a
// table nothing can read.
func TestFsckRefusesRetiredFrame(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = int64(i % 13)
	}
	resealedTable(t, dir, "", vals, func(frame []byte) { frame[0] = 0xB6 })
	checkRefused(t, dir, "magic")
}

// TestFsckRefusesEscapingPatchList: the same for a PFOR frame that parses
// but whose first patch-list hop leaves its group, which every read of the
// block refuses when it walks the list: block 1's first exception (row 0
// of the block) has its gap code raised to the width's maximum, and the
// frame's own FNV re-sealed too.
func TestFsckRefusesEscapingPatchList(t *testing.T) {
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = int64(i % 100)
	}
	vals[1000], vals[1010] = 1<<40, 1<<41 // exceptions at rows 0 and 10 of block 1
	dir := filepath.Join(t.TempDir(), "tbl")
	resealedTable(t, dir, "pfor", vals, func(frame []byte) {
		blk, err := zkseg.Unmarshal[int64](frame)
		if err != nil {
			t.Fatal(err)
		}
		if blk.Scheme != core.SchemePFOR || blk.Entries[0]&0x7F != 0 || blk.B < 7 {
			t.Fatalf("block 1 is scheme %v, width %d, patch start %d; want PFOR of width ≥ 7 patching from row 0",
				blk.Scheme, blk.B, blk.Entries[0]&0x7F)
		}
		codes := 44 + 4*len(blk.Entries)
		mask := uint32(1)<<blk.B - 1
		word := binary.LittleEndian.Uint32(frame[codes:])
		if word&mask != 9 {
			t.Fatalf("row 0's gap code is %d, want 9 (the exception at row 10)", word&mask)
		}
		binary.LittleEndian.PutUint32(frame[codes:], word|mask)
		h := fnv.New32a()
		h.Write(frame[44:])
		binary.LittleEndian.PutUint32(frame[40:], h.Sum32())
	})
	checkRefused(t, dir, "patch list")
}

// TestFsckRefusesFrequencyOrderedDictionary: the same for a PDICT frame
// whose dictionary is laid out by falling frequency, as writers did
// before dictionaries were stored ascending: block 1 of the zukowski
// fixture zkc2_int64_pdict_freq.bin, spliced over the frame today's
// writer makes of the same values, which is as long.
func TestFsckRefusesFrequencyOrderedDictionary(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("..", "zukowski", "testdata", "zkc2_int64_pdict_freq.bin"))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := zukowski.OpenColumn[int64](fixture)
	if err != nil {
		t.Fatal(err)
	}
	old, err := legacy.FrameBytes(1)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "tbl")
	resealedTable(t, dir, "pdict", frequencyOrderedValues(), func(frame []byte) {
		if len(frame) != len(old) {
			t.Fatalf("today's frame of the fixture's block 1 is %d bytes, the fixture's %d", len(frame), len(old))
		}
		copy(frame, old)
	})
	checkRefused(t, dir, "ascending")
}

// frequencyOrderedValues regenerates the 3,000 values of the zukowski
// fixture zkc2_int64_pdict_freq.bin (zukowski's legacyPDictValues): a
// dozen hot values, each about half as frequent as the one before, plus
// one outlier in a hundred.
func frequencyOrderedValues() []int64 {
	rng := rand.New(rand.NewSource(14))
	hot := []int64{900, 17, 512, 64, 3, 333, 128, 77, 5000, 41, 256, 1}
	vals := make([]int64, 3000)
	for i := range vals {
		j := 0
		for j < len(hot)-1 && rng.Intn(2) == 0 {
			j++
		}
		vals[i] = hot[j]
		if rng.Intn(100) == 0 {
			vals[i] = rng.Int63()
		}
	}
	return vals
}

// TestFsckRefusesCountMismatch: a raw frame whose header counts half the
// values its directory entry and the manifest count for it — every
// checksum valid — is refused by every scan of the block, by Fsck (one
// problem naming column v and block 1 once), and by Compact, which fails
// without publishing a manifest. Block 1 is a full block, which Compact
// splices as a frame, and then a column's short last block, which it
// decodes and re-encodes.
func TestFsckRefusesCountMismatch(t *testing.T) {
	for _, n := range []int{3000, 1500} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(i)
			}
			count := min(n-1000, 1000)
			dir := filepath.Join(t.TempDir(), "tbl")
			resealedTable(t, dir, "none", vals, func(frame []byte) {
				if got := binary.LittleEndian.Uint32(frame[4:]); got != uint32(count) {
					t.Fatalf("block 1's raw header counts %d values, want %d", got, count)
				}
				binary.LittleEndian.PutUint32(frame[4:], uint32(count/2))
			})
			mismatch := fmt.Sprintf("holds %d values, directory says %d", count/2, count)
			tb, _, err := Open[int64](dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			sink := func(int, []int64, [][]int64) bool { return true }
			if err := tb.Run(context.Background(), zukowski.Query[int64]{}, sink); !zukowski.IsDataFault(err) ||
				!strings.Contains(err.Error(), mismatch) {
				t.Fatalf("scan: %v, want a data fault: %s", err, mismatch)
			}
			rep, err := Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() || len(rep.Problems) != 1 {
				t.Fatalf("Fsck: OK=%v, problems %v; want the one block", rep.OK(), rep.Problems)
			}
			if p := rep.Problems[0]; !strings.Contains(p, `column "v"`) || strings.Count(p, "block 1") != 1 || !strings.Contains(p, mismatch) {
				t.Fatalf("problem %q does not name column v, block 1 (once) and %q", p, mismatch)
			}
			if _, err := tb.Append([][]int64{vals[:1000], vals[:1000]}); err != nil {
				t.Fatal(err)
			}
			gen := tb.Generation()
			if _, err := tb.Compact(); !zukowski.IsDataFault(err) || !strings.Contains(err.Error(), mismatch) {
				t.Fatalf("Compact: %v, want a data fault: %s", err, mismatch)
			}
			man, _, _, _, err := manifestsOnDisk(dir, defaultKeep)
			if err != nil {
				t.Fatal(err)
			}
			if tb.Generation() != gen || man.Generation != gen {
				t.Fatalf("after the failed Compact: generation %d published, %d on disk; want %d", tb.Generation(), man.Generation, gen)
			}
		})
	}
}
