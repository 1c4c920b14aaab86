package zktable

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/zukowski"
)

// TestFsckRefusesRetiredFrame: a table appended by a build that still
// wrote comparator codecs holds frames whose checksums are valid all the
// way up — container directory and manifest — but whose first byte is a
// retired magic (0xB6), which every scan of the block refuses. Fsck must
// refuse it too, naming the column and the block, rather than pass a
// table nothing can read.
func TestFsckRefusesRetiredFrame(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb, err := Create[int64](dir, []string{"k", "v"}, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, v := make([]int64, 200), make([]int64, 200)
	for i := range k {
		k[i], v[i] = int64(i), int64(i%13)
	}
	if _, err := tb.Append([][]int64{k, v}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := Fsck(dir); err != nil || !rep.OK() {
		t.Fatalf("clean table: %v, %v", rep, err)
	}

	// Rewrite column v's block 1 to open with 0xB6, then re-seal the frame
	// CRC in the container directory, the directory CRC in the tail, and
	// the frame CRC the manifest committed.
	man, _, _, _, err := manifestsOnDisk(dir)
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
	frame[0] = 0xB6
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

	// The table opens (nothing it checks at open is wrong) and a scan of
	// the block fails, as it did before Fsck looked at frames.
	tb2, _, err := Open[int64](dir, Options{})
	if err != nil {
		t.Fatalf("open of the re-sealed table: %v", err)
	}
	defer tb2.Close()
	sink := func(int, []int64, [][]int64) bool { return true }
	if err := tb2.Run(context.Background(), zukowski.Query[int64]{}, sink); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("read of the retired frame: %v, want ErrCorruptSegment", err)
	}

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Problems) != 1 {
		t.Fatalf("Fsck of a table holding a 0xB6 frame: OK=%v, problems %v; want the one block", rep.OK(), rep.Problems)
	}
	if p := rep.Problems[0]; !strings.Contains(p, `column "v"`) || !strings.Contains(p, "block 1") || !strings.Contains(p, "magic") {
		t.Fatalf("problem %q does not name column v, block 1 and the magic", p)
	}
}
