package zktable_test

import (
	"bytes"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultio"
	"repro/zktable"
	"repro/zukowski"
)

// tornBudget tears the table's write stream after a global byte budget
// spanning files: each file the table stages gets a faultio.Writer whose
// FailAfter is whatever remains of the budget, so one budget value
// deterministically places the tear in the first column, a later column,
// or the manifest. With a huge budget it just meters total bytes.
type tornBudget struct {
	remaining int64
	total     int64
	writes    []int64 // the size of every write that reached a file, in order
}

func (tb *tornBudget) wrap(_ string, w io.Writer) io.Writer {
	return &faultio.Writer{W: &meteredWriter{tb, w}, FailAfter: tb.remaining}
}

type meteredWriter struct {
	tb *tornBudget
	w  io.Writer
}

func (m *meteredWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.tb.remaining -= int64(n)
	m.tb.total += int64(n)
	m.tb.writes = append(m.tb.writes, int64(n))
	return n, err
}

func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// seedBaseline builds a committed table of one segment per row count to
// crash against.
func seedBaseline(t *testing.T, rows ...int) (dir string, baseRows int64) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "base")
	tb := mustCreate(t, dir, zktable.Options{})
	for _, seg := range synthSegs(100, rows...) {
		mustAppend(t, tb, seg)
		baseRows += int64(len(seg[0]))
	}
	tb.Close()
	return dir, baseRows
}

// checkRecovered reopens dir after a torn commit and asserts what the
// protocol promises: generation gen0 is served whole — no fallback, no
// quarantine, no lost row — and the directory passes Fsck.
func checkRecovered(t *testing.T, budget int64, dir string, gen0 uint64, baseRows int64) {
	t.Helper()
	tb, rep, err := zktable.Open[int64](dir, zktable.Options{})
	if err != nil {
		t.Fatalf("budget %d: reopen: %v", budget, err)
	}
	defer tb.Close()
	if rep.Generation != gen0 || rep.Rows != baseRows {
		t.Fatalf("budget %d: reopened at gen %d / %d rows, want %d / %d",
			budget, rep.Generation, rep.Rows, gen0, baseRows)
	}
	if rep.FellBack || len(rep.Quarantined) > 0 || rep.RowsUnavailable != 0 {
		t.Fatalf("budget %d: reopen report %+v", budget, rep)
	}
	if got := countRows(t, tb); got != baseRows {
		t.Fatalf("budget %d: recovered scan saw %d rows, want %d", budget, got, baseRows)
	}
	fsck, err := zktable.Fsck(dir)
	if err != nil {
		t.Fatalf("budget %d: fsck: %v", budget, err)
	}
	if !fsck.OK() {
		t.Fatalf("budget %d: fsck problems: %v", budget, fsck.Problems)
	}
}

// TestAppendTornWriteMatrix tears an ingest at byte budgets spanning the
// whole write — first column, middle column, manifest — and asserts the
// invariant the commit protocol promises: the previous generation stays
// fully intact, both on the live handle and across a reopen, with zero
// committed-row loss.
func TestAppendTornWriteMatrix(t *testing.T) {
	base, baseRows := seedBaseline(t, 1500)
	next := synthCols(101, 2000)

	// Meter a successful append to learn the total byte cost.
	meter := &tornBudget{remaining: 1 << 62}
	mDir := filepath.Join(t.TempDir(), "meter")
	copyDir(t, base, mDir)
	mtb, _, err := zktable.Open[int64](mDir, zktable.Options{WriteWrapper: meter.wrap})
	if err != nil {
		t.Fatalf("Open meter copy: %v", err)
	}
	if _, err := mtb.Append(next); err != nil {
		t.Fatalf("metered append: %v", err)
	}
	mtb.Close()
	total := meter.total
	if total < 1024 {
		t.Fatalf("metered append wrote only %d bytes", total)
	}

	budgets := []int64{0, 1, 7, 64, 1024, total / 4, total / 2, 3 * total / 4, total - 128, total - 9, total - 1}
	for _, budget := range budgets {
		dir := filepath.Join(t.TempDir(), "crash")
		copyDir(t, base, dir)
		tn := &tornBudget{remaining: budget}
		tb, _, err := zktable.Open[int64](dir, zktable.Options{WriteWrapper: tn.wrap})
		if err != nil {
			t.Fatalf("budget %d: Open: %v", budget, err)
		}
		gen0 := tb.Generation()
		if _, err := tb.Append(next); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("budget %d: append error = %v, want ErrInjected", budget, err)
		}
		// The live handle still serves the previous generation in full.
		if g := tb.Generation(); g != gen0 {
			t.Fatalf("budget %d: failed append moved generation %d -> %d", budget, gen0, g)
		}
		if got := countRows(t, tb); got != baseRows {
			t.Fatalf("budget %d: live scan saw %d rows, want %d", budget, got, baseRows)
		}
		tb.Close()

		checkRecovered(t, budget, dir, gen0, baseRows)
	}
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestCompactTornWriteMatrix tears a compaction that copies its first
// blocks as frames and encodes the rest anew, once in front of and once
// halfway into every write it makes — each container header, frame,
// footer and the manifest. Whatever the tear, the handle and a reopen
// serve the generation committed before, whole.
func TestCompactTornWriteMatrix(t *testing.T) {
	base, baseRows := seedBaseline(t, 2*testBV, testBV, testBV+188, testBV)

	meter := &tornBudget{remaining: 1 << 62}
	mDir := filepath.Join(t.TempDir(), "meter")
	copyDir(t, base, mDir)
	mtb, _, err := zktable.Open[int64](mDir, zktable.Options{WriteWrapper: meter.wrap})
	if err != nil {
		t.Fatalf("Open meter copy: %v", err)
	}
	if _, err := mtb.Compact(); err != nil {
		t.Fatalf("metered compact: %v", err)
	}
	mtb.Close()
	// Per column: a header, six frames and a footer; then the manifest.
	if want := len(testSchema)*8 + 1; len(meter.writes) != want {
		t.Fatalf("metered compact made %d writes, want %d", len(meter.writes), want)
	}

	var budgets []int64
	var off int64
	for _, n := range meter.writes {
		budgets = append(budgets, off, off+n/2)
		off += n
	}
	for _, budget := range budgets {
		dir := filepath.Join(t.TempDir(), "crash")
		copyDir(t, base, dir)
		before := readDir(t, dir)
		tn := &tornBudget{remaining: budget}
		tb, _, err := zktable.Open[int64](dir, zktable.Options{WriteWrapper: tn.wrap})
		if err != nil {
			t.Fatalf("budget %d: Open: %v", budget, err)
		}
		gen0 := tb.Generation()
		if _, err := tb.Compact(); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("budget %d: compact error = %v, want ErrInjected", budget, err)
		}
		if g, n := tb.Generation(), tb.NumSegments(); g != gen0 || n != 4 {
			t.Fatalf("budget %d: failed compact left generation %d with %d segments, want %d with 4", budget, g, n, gen0)
		}
		if got := countRows(t, tb); got != baseRows {
			t.Fatalf("budget %d: live scan saw %d rows, want %d", budget, got, baseRows)
		}
		tb.Close()
		if after := readDir(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Fatalf("budget %d: the failed compact changed the directory", budget)
		}

		checkRecovered(t, budget, dir, gen0, baseRows)
	}
}

// TestCompactRefusesRottenFrame flips a byte of a committed frame under an
// open handle. A compaction that copies frames must not give the damage a
// fresh checksum: it fails with ErrChecksumMismatch, the committed
// generation stays in service, and the directory holds what it held — no
// new segment, no temp file.
func TestCompactRefusesRottenFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows []int
	}{
		{"copied frame", []int{2 * testBV, 2 * testBV}},
		{"recoded block", []int{2*testBV + 9, 2 * testBV}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := seedBaseline(t, tc.rows...)
			tb, _, err := zktable.Open[int64](dir, zktable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			gen0 := tb.Generation()
			// Offset 600 lies in the frames of the second segment's "v".
			flipByte(t, filepath.Join(dir, "seg-00000002-v.zkc"), 600)
			before := readDir(t, dir)

			if _, err := tb.Compact(); !errors.Is(err, zukowski.ErrChecksumMismatch) {
				t.Fatalf("Compact over a flipped frame = %v, want ErrChecksumMismatch", err)
			}
			if g, n := tb.Generation(), tb.NumSegments(); g != gen0 || n != 2 {
				t.Fatalf("failed compact left generation %d with %d segments, want %d with 2", g, n, gen0)
			}
			if after := readDir(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
				t.Fatal("the failed compact changed the directory")
			}
			// The first segment is still served; the damaged one reports itself.
			err = tb.Run(bg, where(), func(int, []int64, [][]int64) bool { return true })
			if !errors.Is(err, zukowski.ErrChecksumMismatch) {
				t.Fatalf("scan over the flipped frame = %v, want ErrChecksumMismatch", err)
			}
		})
	}
}

// TestOpenSweepsCrashDebris simulates kill -9 at the two interesting
// moments cleanup never ran: temp files still staged, and segment files
// renamed but the manifest commit missing. Open must sweep both and
// serve the committed generation.
func TestOpenSweepsCrashDebris(t *testing.T) {
	base, baseRows := seedBaseline(t, 1200)

	// Stage debris: a temp from an interrupted atomic write, and a full
	// set of renamed segment files no manifest references (crash between
	// the last column rename and the manifest commit).
	dir := filepath.Join(t.TempDir(), "crashed")
	copyDir(t, base, dir)
	if err := os.WriteFile(filepath.Join(dir, ".seg-00000002-k.zkc.tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Build real orphan segment files by committing to a scratch copy and
	// carrying only the new seg files (not its manifest) back.
	scratch := filepath.Join(t.TempDir(), "scratch")
	copyDir(t, base, scratch)
	stb, _, err := zktable.Open[int64](scratch, zktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stb.Append(synthCols(102, 600)); err != nil {
		t.Fatal(err)
	}
	stb.Close()
	ents, err := os.ReadDir(scratch)
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "seg-00000002-") {
			data, err := os.ReadFile(filepath.Join(scratch, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
			orphans = append(orphans, e.Name())
		}
	}
	if len(orphans) != len(testSchema) {
		t.Fatalf("staged %d orphan segment files, want %d", len(orphans), len(testSchema))
	}

	// Fsck (read-only) sees the debris as informational orphans, not damage.
	fsck, err := zktable.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.OK() {
		t.Fatalf("fsck of crash debris reported problems: %v", fsck.Problems)
	}
	if len(fsck.Orphans) != len(orphans)+1 {
		t.Fatalf("fsck saw %d orphans (%v), want %d", len(fsck.Orphans), fsck.Orphans, len(orphans)+1)
	}

	tb, rep, err := zktable.Open[int64](dir, zktable.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer tb.Close()
	if rep.Rows != baseRows || len(rep.Quarantined) > 0 {
		t.Fatalf("recovery report %+v, want %d rows and no quarantine", rep, baseRows)
	}
	if len(rep.Swept) != len(orphans)+1 {
		t.Fatalf("swept %v, want the temp plus %d orphan files", rep.Swept, len(orphans))
	}
	for _, name := range append(orphans, ".seg-00000002-k.zkc.tmp-123") {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the sweep", name)
		}
	}
	if got := countRows(t, tb); got != baseRows {
		t.Fatalf("scan saw %d rows, want %d", got, baseRows)
	}

	// The swept segment id must not be reused in a way that collides: the
	// next append commits cleanly and scans stay exact.
	mustAppend(t, tb, synthCols(103, 500))
	if got := countRows(t, tb); got != baseRows+500 {
		t.Fatalf("post-recovery append: scan saw %d rows, want %d", got, baseRows+500)
	}
}

// TestManifestCorruptionFallback damages the newest manifest and expects
// Open to fall back to the previous committed generation, report the
// damage, and sweep the now-unreferenced newer segment.
func TestManifestCorruptionFallback(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	mustAppend(t, tb, synthCols(110, 1000)) // gen 2
	mustAppend(t, tb, synthCols(111, 800))  // gen 3
	tb.Close()

	manNewest := filepath.Join(dir, "MANIFEST-00000003")
	flipByte(t, manNewest, 40)

	tb2, rep, err := zktable.Open[int64](dir, zktable.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer tb2.Close()
	if !rep.FellBack {
		t.Fatal("report.FellBack = false")
	}
	if len(rep.CorruptManifests) != 1 || rep.CorruptManifests[0] != "MANIFEST-00000003" {
		t.Fatalf("CorruptManifests = %v", rep.CorruptManifests)
	}
	if rep.Generation != 2 || rep.Rows != 1000 {
		t.Fatalf("fell back to gen %d / %d rows, want 2 / 1000", rep.Generation, rep.Rows)
	}
	if got := countRows(t, tb2); got != 1000 {
		t.Fatalf("scan saw %d rows, want 1000", got)
	}
	// The damaged manifest and the segment only it referenced are gone.
	if _, err := os.Stat(manNewest); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("damaged manifest survived the sweep")
	}
	for _, col := range testSchema {
		if _, err := os.Stat(filepath.Join(dir, "seg-00000002-"+col+".zkc")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("segment file seg-00000002-%s.zkc survived the sweep", col)
		}
	}
	// Writes continue from the fallback generation.
	mustAppend(t, tb2, synthCols(112, 300))
	if g := tb2.Generation(); g != 3 {
		t.Fatalf("post-fallback append committed generation %d, want 3", g)
	}
}

// TestAllManifestsDamaged: every manifest unusable -> ErrNoUsableManifest.
func TestAllManifestsDamaged(t *testing.T) {
	dir, _ := seedBaseline(t, 500)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "MANIFEST-") {
			flipByte(t, filepath.Join(dir, e.Name()), 8)
		}
	}
	_, rep, err := zktable.Open[int64](dir, zktable.Options{})
	if !errors.Is(err, zktable.ErrNoUsableManifest) {
		t.Fatalf("Open = %v, want ErrNoUsableManifest", err)
	}
	if rep == nil || len(rep.CorruptManifests) == 0 {
		t.Fatalf("report %+v lists no corrupt manifests", rep)
	}
	// The segment files are untouched: salvage by hand stays possible.
	if _, err := os.Stat(filepath.Join(dir, "seg-00000001-k.zkc")); err != nil {
		t.Fatalf("segment file gone after failed open: %v", err)
	}
}

// TestSalvageFooterDamage flips a byte in a column container's footer:
// the payload is intact, so RecoverColumn restores the exact committed
// geometry and the segment returns to service with zero loss.
func TestSalvageFooterDamage(t *testing.T) {
	base, baseRows := seedBaseline(t, 1500)
	seg := "seg-00000001-v.zkc"

	damage := func(t *testing.T, dir string) {
		p := filepath.Join(dir, seg)
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		flipByte(t, p, st.Size()-3) // inside the container tail
	}

	// Without Salvage: quarantined, loss accounted exactly.
	dirQ := filepath.Join(t.TempDir(), "q")
	copyDir(t, base, dirQ)
	damage(t, dirQ)
	tbQ, repQ, err := zktable.Open[int64](dirQ, zktable.Options{})
	if err != nil {
		t.Fatalf("Open without salvage: %v", err)
	}
	if len(repQ.Quarantined) != 1 || repQ.RowsUnavailable != baseRows {
		t.Fatalf("report %+v, want 1 quarantined segment / %d rows unavailable", repQ, baseRows)
	}
	if err := tbQ.Run(bg, where(), func(int, []int64, [][]int64) bool { return true }); !errors.Is(err, zktable.ErrSegmentQuarantined) {
		t.Fatalf("exact scan over quarantine = %v, want ErrSegmentQuarantined", err)
	}
	tbQ.Close()

	// With Salvage: healed in place, zero loss.
	dirS := filepath.Join(t.TempDir(), "s")
	copyDir(t, base, dirS)
	damage(t, dirS)
	tbS, repS, err := zktable.Open[int64](dirS, zktable.Options{Salvage: true})
	if err != nil {
		t.Fatalf("Open with salvage: %v", err)
	}
	defer tbS.Close()
	if len(repS.Salvaged) != 1 || repS.Salvaged[0] != 1 {
		t.Fatalf("Salvaged = %v, want [1]", repS.Salvaged)
	}
	if len(repS.Quarantined) != 0 || repS.RowsUnavailable != 0 {
		t.Fatalf("salvage left quarantine: %+v", repS)
	}
	if got := countRows(t, tbS); got != baseRows {
		t.Fatalf("salvaged scan saw %d rows, want %d", got, baseRows)
	}
	fsck, err := zktable.Fsck(dirS)
	if err != nil || !fsck.OK() {
		t.Fatalf("fsck after salvage: %v / %+v", err, fsck)
	}
}

// TestQuarantineDegradedScan truncates one column of the middle segment:
// salvage cannot restore the committed geometry, so the segment stays
// quarantined; exact scans fail, SkipCorrupt scans return every surviving
// row and account the loss to the block and row.
func TestQuarantineDegradedScan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	segA, segB, segC := synthCols(120, 900), synthCols(121, 1300), synthCols(122, 700)
	mustAppend(t, tb, segA)
	mustAppend(t, tb, segB)
	mustAppend(t, tb, segC)
	tb.Close()

	victim := filepath.Join(dir, "seg-00000002-d.zkc")
	st, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, st.Size()-200); err != nil {
		t.Fatal(err)
	}

	tb2, rep, err := zktable.Open[int64](dir, zktable.Options{Salvage: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer tb2.Close()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Seg != 2 {
		t.Fatalf("Quarantined = %+v, want segment 2", rep.Quarantined)
	}
	if rep.RowsUnavailable != 1300 {
		t.Fatalf("RowsUnavailable = %d, want 1300", rep.RowsUnavailable)
	}

	// Exact scans refuse.
	err = tb2.Run(bg, where(), func(int, []int64, [][]int64) bool { return true })
	if !errors.Is(err, zktable.ErrSegmentQuarantined) {
		t.Fatalf("exact scan = %v, want ErrSegmentQuarantined", err)
	}
	if _, err := tb2.RunAggregate(bg, where(), 0); !errors.Is(err, zktable.ErrSegmentQuarantined) {
		t.Fatalf("exact aggregate = %v, want ErrSegmentQuarantined", err)
	}

	// Degraded scans return the survivors and account the loss exactly.
	srep := &zukowski.ScanReport{}
	var got int64
	count := func(_ int, rows []int64, _ [][]int64) bool {
		got += int64(len(rows))
		return true
	}
	err = tb2.Run(bg, zukowski.Query[int64]{SkipCorrupt: true, Report: srep}, count)
	if err != nil {
		t.Fatalf("degraded scan: %v", err)
	}
	if got != 900+700 {
		t.Fatalf("degraded scan saw %d rows, want %d", got, 900+700)
	}
	if srep.RowsLost != 1300 {
		t.Fatalf("RowsLost = %d, want 1300", srep.RowsLost)
	}
	wantBlocks := (1300 + testBV - 1) / testBV
	if srep.BlocksSkipped != wantBlocks {
		t.Fatalf("BlocksSkipped = %d, want %d", srep.BlocksSkipped, wantBlocks)
	}
	if !errors.Is(srep.FirstErr, zktable.ErrSegmentQuarantined) {
		t.Fatalf("FirstErr = %v", srep.FirstErr)
	}

	// Parallel degraded scan agrees.
	prep := &zukowski.ScanReport{}
	got = 0
	err = tb2.Run(bg, zukowski.Query[int64]{Workers: 4, SkipCorrupt: true, Report: prep}, count)
	if err != nil {
		t.Fatalf("parallel degraded scan: %v", err)
	}
	if got != 900+700 {
		t.Fatalf("parallel degraded scan saw %d rows, want %d", got, 900+700)
	}
	if prep.RowsLost != 1300 {
		t.Fatalf("parallel RowsLost = %d, want 1300", prep.RowsLost)
	}

	// Compact refuses to silently drop the quarantined rows.
	if _, err := tb2.Compact(); !errors.Is(err, zktable.ErrSegmentQuarantined) {
		t.Fatalf("Compact over quarantine = %v, want ErrSegmentQuarantined", err)
	}

	// Fsck names the damage.
	fsck, err := zktable.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fsck.OK() {
		t.Fatal("fsck passed a table with a truncated segment column")
	}
}

func TestFsckDetectsPayloadRot(t *testing.T) {
	dir, _ := seedBaseline(t, 2000)
	fsck, err := zktable.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.OK() {
		t.Fatalf("clean table: %v", fsck.Problems)
	}
	wantBlocks := len(testSchema) * ((2000 + testBV - 1) / testBV)
	if fsck.BlocksVerified != wantBlocks {
		t.Fatalf("BlocksVerified = %d, want %d", fsck.BlocksVerified, wantBlocks)
	}

	// Flip one payload byte mid-file. The container directory still
	// matches the manifest (spot checks pass; a plain Open succeeds), but
	// the full walk recomputes payload CRCs and catches it.
	flipByte(t, filepath.Join(dir, "seg-00000001-v.zkc"), 100)
	fsck2, err := zktable.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fsck2.OK() {
		t.Fatal("fsck missed a flipped payload byte")
	}
	found := false
	for _, p := range fsck2.Problems {
		if strings.Contains(p, `column "v"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("problems %v do not name the damaged column", fsck2.Problems)
	}
}

func TestPeekAndIsTableDir(t *testing.T) {
	dir, baseRows := seedBaseline(t, 800)
	if !zktable.IsTableDir(dir) {
		t.Fatal("IsTableDir(table) = false")
	}
	if zktable.IsTableDir(t.TempDir()) {
		t.Fatal("IsTableDir(empty) = true")
	}
	info, err := zktable.Peek(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 || info.Rows != baseRows || info.Segments != 1 ||
		info.WidthBytes != 8 || info.BlockValues != testBV {
		t.Fatalf("Peek = %+v", info)
	}
	if len(info.Columns) != len(testSchema) || info.Columns[0] != "k" {
		t.Fatalf("Peek columns = %v", info.Columns)
	}
}
