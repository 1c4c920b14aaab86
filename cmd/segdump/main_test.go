package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/zktable"
	"repro/zukowski"
)

// buildContainer writes a small PFOR column and returns its bytes.
func buildContainer(t *testing.T) []byte {
	t.Helper()
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(i % 750)
	}
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&buf, zukowski.PFOR[int64]{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(vals); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunExitContract pins the probe contract main's exit code is built
// on: run returns nil for intact inputs and an error — never a silent
// success — for any corrupt block, in both the table and -verify modes.
func TestRunExitContract(t *testing.T) {
	good := buildContainer(t)
	for _, verifyOnly := range []bool{false, true} {
		if err := run("int64", verifyOnly, good); err != nil {
			t.Fatalf("verify=%v: clean container reported %v", verifyOnly, err)
		}
	}

	// A payload bit flip must surface as an error from every mode.
	bad := bytes.Clone(good)
	bad[len(bad)/3] ^= 0x40
	for _, verifyOnly := range []bool{false, true} {
		if err := run("int64", verifyOnly, bad); err == nil {
			t.Fatalf("verify=%v: corrupt block went unreported (exit code would be 0)", verifyOnly)
		}
	}

	// A truncated container must fail, not dump garbage.
	if err := run("int64", false, good[:len(good)-5]); err == nil {
		t.Fatal("truncated container went unreported")
	}

	// Same contract for a bare segment frame.
	seg, err := zukowski.PFOR[int64]{Base: 0, Width: 10}.Encode(nil, []int64{1, 2, 3, 1 << 40, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := run("int64", true, seg); err != nil {
		t.Fatalf("clean segment reported %v", err)
	}
	segBad := bytes.Clone(seg)
	segBad[len(segBad)-2] ^= 0x01
	if err := run("int64", false, segBad); err == nil {
		t.Fatal("corrupt segment went unreported")
	}

	if err := run("float64", false, good); err == nil {
		t.Fatal("unknown element type went unreported")
	}
}

// TestFsckExitContract pins the table-directory probe: fsck returns nil
// for an intact table and an error for any committed-data mismatch, in
// both full and -verify modes, so the exit code alone gates a pipeline.
func TestFsckExitContract(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb, err := zktable.Create[int64](dir, []string{"a", "b"}, 512, zktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	if _, err := tb.Append([][]int64{vals, vals}); err != nil {
		t.Fatal(err)
	}
	tb.Close()

	for _, verifyOnly := range []bool{false, true} {
		if err := fsck(dir, verifyOnly); err != nil {
			t.Fatalf("verify=%v: clean table reported %v", verifyOnly, err)
		}
	}

	// An orphan temp file is informational, not a failure.
	if err := os.WriteFile(filepath.Join(dir, ".seg-00000002-a.zkc.tmp-9"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsck(dir, true); err != nil {
		t.Fatalf("orphan temp failed the check: %v", err)
	}

	// A flipped payload byte must fail both modes.
	p := filepath.Join(dir, "seg-00000001-b.zkc")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, verifyOnly := range []bool{false, true} {
		if err := fsck(dir, verifyOnly); err == nil {
			t.Fatalf("verify=%v: corrupt segment column went unreported", verifyOnly)
		}
	}

	// Every checksum valid, but column v's block 1 is a PDICT frame whose
	// dictionary is in frequency order, as writers laid it out before
	// dictionaries were stored ascending, and which every read refuses:
	// the table zktable's TestFsckRefusesFrequencyOrderedDictionary builds.
	for _, verifyOnly := range []bool{false, true} {
		if err := fsck(filepath.Join("testdata", "pdict_freq_table"), verifyOnly); err == nil {
			t.Fatalf("verify=%v: frequency-ordered dictionary went unreported", verifyOnly)
		}
	}

	// A non-table directory is an error, not a zero exit.
	if err := fsck(t.TempDir(), true); err == nil {
		t.Fatal("non-table directory went unreported")
	}
}

// TestFsckListsStaleManifest: a valid manifest older than the retention
// window — what a crash between a commit's rename and its prune leaves —
// is debris the next writable open sweeps. fsck passes the table and
// lists that manifest as an orphan.
func TestFsckListsStaleManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb, err := zktable.Create[int64](dir, []string{"a"}, 512, zktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	if _, err := tb.Append([][]int64{vals}); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(dir, "MANIFEST-00000002"))
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // generations 3 and 4 age generation 2 out
		if _, err := tb.Append([][]int64{vals}); err != nil {
			t.Fatal(err)
		}
	}
	tb.Close()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST-00000002"), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = fsck(dir, false)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("fsck of a table with a stale manifest: %v (exit code would be 1)", err)
	}
	report, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report, []byte("orphan:        MANIFEST-00000002")) {
		t.Fatalf("fsck did not list MANIFEST-00000002 as an orphan:\n%s", report)
	}
}
