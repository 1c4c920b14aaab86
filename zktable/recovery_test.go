package zktable_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/zktable"
)

// TestFsckOrphansAreWhatOpenSweeps holds Fsck and Open to one recovery
// model: on every directory, what a writable Open with default Options
// sweeps is exactly what Fsck lists as orphans or damaged manifests, and
// both name the same damaged manifests.
func TestFsckOrphansAreWhatOpenSweeps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, dir string)
		swept int // files the sweep must remove
	}{
		{"crash debris", buildCrashDebris, 1 + len(testSchema)},
		{"stale manifests", buildStaleManifests, 2 + 2*len(testSchema)},
		{"damaged manifest past retention", buildDamagedOldManifest, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "tbl")
			tc.build(t, dir)
			fsck, err := zktable.Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			tb, rep, err := zktable.Open[int64](dir, zktable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			want := sorted(append(slices.Clone(fsck.Orphans), fsck.CorruptManifests...))
			if got := sorted(rep.Swept); !slices.Equal(got, want) || len(got) != tc.swept {
				t.Fatalf("Open swept %v; Fsck listed orphans %v and damaged manifests %v; want %d files",
					got, fsck.Orphans, fsck.CorruptManifests, tc.swept)
			}
			if got, want := sorted(rep.CorruptManifests), sorted(fsck.CorruptManifests); !slices.Equal(got, want) {
				t.Fatalf("Open found damaged manifests %v, Fsck %v", got, want)
			}
			for _, name := range rep.Swept {
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Fatalf("%s survived the sweep", name)
				}
			}
			if after, err := zktable.Fsck(dir); err != nil || !after.OK() || len(after.Orphans) != 0 {
				t.Fatalf("Fsck after the sweep: %+v, %v", after, err)
			}
		})
	}
}

func sorted(names []string) []string { return slices.Sorted(slices.Values(names)) }

// buildCrashDebris is TestOpenSweepsCrashDebris's directory: a committed
// table plus a dot-temp and a whole segment whose manifest never landed.
func buildCrashDebris(t *testing.T, dir string) {
	base, _ := seedBaseline(t, 1200)
	copyDir(t, base, dir)
	if err := os.WriteFile(filepath.Join(dir, ".seg-00000002-k.zkc.tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	scratch := filepath.Join(t.TempDir(), "scratch")
	copyDir(t, base, scratch)
	tb, _, err := zktable.Open[int64](scratch, zktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, tb, synthCols(102, 600))
	tb.Close()
	restore(t, scratch, dir, "seg-00000002-")
}

// buildStaleManifests is a crash between a commit's rename and its
// prune: two appends, a compaction and two more appends, with the
// manifests and segment files that aged out put back.
func buildStaleManifests(t *testing.T, dir string) {
	tb := mustCreate(t, dir, zktable.Options{})
	mustAppend(t, tb, synthCols(130, 700))
	mustAppend(t, tb, synthCols(131, 900))
	saved := filepath.Join(t.TempDir(), "saved")
	copyDir(t, dir, saved)
	if _, err := tb.Compact(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, tb, synthCols(132, 500))
	mustAppend(t, tb, synthCols(133, 600))
	tb.Close()
	restore(t, saved, dir, "MANIFEST-00000002", "MANIFEST-00000003", "seg-00000001-", "seg-00000002-")
}

// buildDamagedOldManifest puts back a manifest older than the retention
// window, with a flipped byte.
func buildDamagedOldManifest(t *testing.T, dir string) {
	tb := mustCreate(t, dir, zktable.Options{})
	mustAppend(t, tb, synthCols(140, 700))
	saved := filepath.Join(t.TempDir(), "saved")
	copyDir(t, dir, saved)
	mustAppend(t, tb, synthCols(141, 800))
	mustAppend(t, tb, synthCols(142, 900))
	tb.Close()
	restore(t, saved, dir, "MANIFEST-00000002")
	flipByte(t, filepath.Join(dir, "MANIFEST-00000002"), 40)
}

// restore copies the files of src whose names start with one of
// prefixes into dst.
func restore(t *testing.T, src, dst string, prefixes ...string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		for _, p := range prefixes {
			if strings.HasPrefix(e.Name(), p) {
				data, err := os.ReadFile(filepath.Join(src, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// fixtureSegs are the segments testdata/table was committed from.
func fixtureSegs() [][][]int64 {
	return [][][]int64{synthCols(150, 1200), synthCols(151, 700), synthCols(152, 300)}
}

// buildFixture commits fixtureSegs through every write path — two
// appends, a compaction that splices and recodes, and an append after
// it — into a new table at dir.
func buildFixture(t *testing.T, dir string) {
	segs := fixtureSegs()
	tb := mustCreate(t, dir, zktable.Options{})
	defer tb.Close()
	mustAppend(t, tb, segs[0])
	mustAppend(t, tb, segs[1])
	if _, err := tb.Compact(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, tb, segs[2])
}

// TestCommitWritesTheFixture pins what a commit writes: buildFixture
// leaves exactly the files of testdata/table, byte for byte, segment
// columns and manifests alike.
func TestCommitWritesTheFixture(t *testing.T) {
	fixture := filepath.Join("testdata", "table")
	dir := filepath.Join(t.TempDir(), "tbl")
	buildFixture(t, dir)
	want, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("the fixture's commits left %d files, testdata/table holds %d", len(got), len(want))
	}
	for i, e := range want {
		a, err := os.ReadFile(filepath.Join(dir, got[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Name() != e.Name() || !slices.Equal(a, b) {
			t.Fatalf("file %d: wrote %s (%d bytes), testdata/table holds %s (%d bytes)",
				i, got[i].Name(), len(a), e.Name(), len(b))
		}
	}
}

// TestFsckPassesTheFixture: the committed fixture, whose manifests hoist
// every container's statistics, passes the full walk with nothing to
// sweep.
func TestFsckPassesTheFixture(t *testing.T) {
	fsck, err := zktable.Fsck(filepath.Join("testdata", "table"))
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.OK() || len(fsck.Orphans) != 0 || fsck.Segments != 2 {
		t.Fatalf("Fsck of testdata/table: %+v", fsck)
	}
}

// TestOpenServesTheFixture: the committed fixture opens with every
// segment in service and serves the values appended.
func TestOpenServesTheFixture(t *testing.T) {
	tb, rep, err := zktable.Open[int64](filepath.Join("testdata", "table"), zktable.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if rep.FellBack || len(rep.CorruptManifests) > 0 || len(rep.Quarantined) > 0 {
		t.Fatalf("Open of testdata/table: %+v", rep)
	}
	all := appendAll(fixtureSegs()...)
	vals := make([][]int64, len(all))
	err = tb.Run(bg, where(), func(_ int, _ []int64, cols [][]int64) bool {
		for ci := range cols {
			vals[ci] = append(vals[ci], cols[ci]...)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range all {
		if !slices.Equal(vals[ci], all[ci]) {
			t.Fatalf("column %q of testdata/table does not hold the values appended", testSchema[ci])
		}
	}
}

// TestReadOnlyRefusesWrites: Append and Compact on a handle opened
// ReadOnly fail with ErrReadOnly and leave the directory as it was, name
// for name and byte for byte.
func TestReadOnlyRefusesWrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	copyDir(t, filepath.Join("testdata", "table"), dir)
	before := readDir(t, dir)
	tb, _, err := zktable.Open[int64](dir, zktable.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := tb.Append(fixtureSegs()[0]); !errors.Is(err, zktable.ErrReadOnly) {
		t.Fatalf("Append on a read-only handle: %v, want ErrReadOnly", err)
	}
	if _, err := tb.Compact(); !errors.Is(err, zktable.ErrReadOnly) {
		t.Fatalf("Compact on a read-only handle: %v, want ErrReadOnly", err)
	}
	after := readDir(t, dir)
	if len(after) != len(before) {
		t.Fatalf("the directory held %d files, now %d", len(before), len(after))
	}
	for name, data := range before {
		if got, ok := after[name]; !ok || !slices.Equal(got, data) {
			t.Fatalf("%s changed under a read-only handle", name)
		}
	}
}
