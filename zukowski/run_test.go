package zukowski_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/faultio"
	"repro/zukowski"
)

// Runs: a sequential scan over file-backed columns reads the frames it is
// about to need with one ReadAt per run of adjacent frames, then checks
// and uses them one block at a time. These tests pin what that must not
// change — every frame checked before use, exactly the damaged block
// quarantined, nothing reported for a frame that was only read ahead,
// transient I/O retried — and how few reads a cold scan now issues.

// openAt opens data through r (bytes.Reader when nil) with opts.
func openAt(t *testing.T, data []byte, r io.ReaderAt, opts ...zukowski.ReaderOption) *zukowski.ColumnReader[int64] {
	t.Helper()
	if r == nil {
		r = bytes.NewReader(data)
	}
	cr, err := zukowski.OpenColumnReaderAt[int64](r, int64(len(data)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// TestRunQuarantinesExactlyTheBadFrame: damage at rest in the middle of a
// run fails an exact scan, costs a degraded one exactly that block and
// quarantines exactly it; its neighbours in the same run are served.
func TestRunQuarantinesExactlyTheBadFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const n, blockValues, bad = 8 * 512, 512, 3
	src := genValues[int64](rng, n)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, blockValues, src)
	lo, hi := blockRows(bad, blockValues, n)
	want := slices.Concat(src[:lo], src[hi:])
	for _, torn := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			name := map[bool]string{false: "bitflip", true: "torn"}[torn] + map[bool]string{false: "/nocache", true: "/cache"}[cached]
			t.Run(name, func(t *testing.T) {
				damaged := damageFrame(t, data, bad, torn)
				var opts []zukowski.ReaderOption
				if cached {
					opts = append(opts, zukowski.WithBlockCache(zukowski.NewBlockLRU(1<<20)))
				}
				src := &countingReaderAt{r: bytes.NewReader(damaged)}
				cs := oneColumn(t, openAt(t, damaged, src, opts...))
				before := src.reads.Load()
				if _, _, err := collectRun(t, cs, zukowski.Query[int64]{}); !errors.Is(err, zukowski.ErrChecksumMismatch) {
					t.Fatalf("exact Run over a damaged frame: %v, want a checksum mismatch", err)
				}
				// One run up to the bad frame, then its re-read.
				if reads := src.reads.Load() - before; reads != 2 {
					t.Fatalf("exact Run issued %d reads, want the run and one re-read", reads)
				}
				var rep zukowski.ScanReport
				_, got, err := collectRun(t, cs, zukowski.Query[int64]{SkipCorrupt: true, Report: &rep})
				if err != nil {
					t.Fatalf("degraded Run: %v", err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("degraded Run: %d values, want the %d outside block %d", len(got), len(want), bad)
				}
				if rep.BlocksSkipped != 1 || rep.RowsLost != int64(hi-lo) {
					t.Fatalf("report = %d blocks, %d rows; want 1, %d", rep.BlocksSkipped, rep.RowsLost, hi-lo)
				}
				if q := cs.Column(0).QuarantinedBlocks(); !slices.Equal(q, []int{bad}) {
					t.Fatalf("QuarantinedBlocks = %v, want [%d]", q, bad)
				}
			})
		}
	}
}

// TestRunReadAheadDamageUnreported: a damaged frame that a run reads ahead
// but the scan never takes — the predicate on column 0 empties block j's
// bitmap before column 1, whose zone map leaves it undecided, is
// evaluated there — neither fails the scan nor is reported or quarantined.
func TestRunReadAheadDamageUnreported(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const n, blockValues, j = 8 * 512, 512, 5
	a, b := make([]int64, n), make([]int64, n)
	for i := range a {
		a[i] = rng.Int63n(101)
		if i/blockValues == j {
			a[i] = 100 * int64(i%2) // 0 and 100: [40, 60] is undecided and matches nothing
		}
		b[i] = rng.Int63n(1001)
	}
	dataA := buildColumnV2(t, zukowski.PFOR[int64]{}, blockValues, a)
	dataB := buildColumnV2(t, zukowski.PFOR[int64]{}, blockValues, b)
	info, err := openAt(t, dataB, nil).BlockInfo(j)
	if err != nil {
		t.Fatal(err)
	}
	fr := faultio.NewReaderAt(bytes.NewReader(dataB), 1,
		faultio.Rule{Kind: faultio.BitFlip, Off: info.Offset + int64(info.Length)/2, Len: 1, Mask: 0x10})
	crB := openAt(t, dataB, fr)
	cs, err := zukowski.NewColumnSet(openAt(t, dataA, nil), crB)
	if err != nil {
		t.Fatal(err)
	}
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: 40, Hi: 60}, {Col: 1, Lo: 0, Hi: 500}}
	var wantRows []int64
	for i := range a {
		if a[i] >= 40 && a[i] <= 60 && b[i] <= 500 {
			wantRows = append(wantRows, int64(i))
		}
	}
	var rep zukowski.ScanReport
	for _, q := range []zukowski.Query[int64]{
		{Preds: preds, Cols: []int{0}},
		{Preds: preds, Cols: []int{0}, SkipCorrupt: true, Report: &rep},
	} {
		rows, _, err := collectRun(t, cs, q)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !slices.Equal(rows, wantRows) {
			t.Fatalf("Run: %d rows, oracle %d", len(rows), len(wantRows))
		}
	}
	if fr.Stats().Injected[faultio.BitFlip] == 0 {
		t.Fatal("the damaged frame was never read: nothing was read ahead")
	}
	if rep.BlocksSkipped != 0 || len(crB.QuarantinedBlocks()) != 0 {
		t.Fatalf("a frame read ahead but never used was reported (%d blocks) or quarantined (%v)",
			rep.BlocksSkipped, crB.QuarantinedBlocks())
	}
	if err := crB.VerifyBlock(j); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("VerifyBlock(%d) = %v: the damage the scan rightly ignored is not there", j, err)
	}
}

// TestRunRetriesTransientIO: a run whose read fails with a transient I/O
// error is read again under the reader's RetryPolicy, and nothing is lost
// or quarantined.
func TestRunRetriesTransientIO(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	src := genValues[int64](rng, 8*512)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, src)
	info, err := openAt(t, data, nil).BlockInfo(4)
	if err != nil {
		t.Fatal(err)
	}
	fr := faultio.NewReaderAt(bytes.NewReader(data), 1,
		faultio.Rule{Kind: faultio.TransientErr, Off: info.Offset, Len: int64(info.Length), Count: 2})
	cr := openAt(t, data, fr, zukowski.WithRetryPolicy(zukowski.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}))
	before := fr.Stats().Reads
	_, got, err := collectRun(t, oneColumn(t, cr), zukowski.Query[int64]{})
	if err != nil {
		t.Fatalf("Run with a RetryPolicy: %v", err)
	}
	if !slices.Equal(got, src) {
		t.Fatal("retried run diverges from the source values")
	}
	if st := fr.Stats(); st.Injected[faultio.TransientErr] != 2 || st.Reads-before != 3 {
		t.Fatalf("%d faults injected over %d reads; want 2 over 3 (one run, read three times)",
			st.Injected[faultio.TransientErr], st.Reads-before)
	}
	if q := cr.QuarantinedBlocks(); len(q) != 0 {
		t.Fatalf("retried-away fault quarantined blocks %v", q)
	}
}

// TestRunUnreadableNeighbour: a run that cannot be read — one of its
// frames sits on a region the source keeps failing — shrinks to the one
// frame the scan needs, so a degraded scan loses the unreadable block and
// nothing before it.
func TestRunUnreadableNeighbour(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	const n, blockValues, bad = 8 * 512, 512, 5
	src := genValues[int64](rng, n)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, blockValues, src)
	info, err := openAt(t, data, nil).BlockInfo(bad)
	if err != nil {
		t.Fatal(err)
	}
	fr := faultio.NewReaderAt(bytes.NewReader(data), 1,
		faultio.Rule{Kind: faultio.PermanentErr, Off: info.Offset, Len: int64(info.Length)})
	cr := openAt(t, data, fr)
	var rep zukowski.ScanReport
	_, got, err := collectRun(t, oneColumn(t, cr), zukowski.Query[int64]{SkipCorrupt: true, Report: &rep})
	if err != nil {
		t.Fatalf("degraded Run: %v", err)
	}
	lo, hi := blockRows(bad, blockValues, n)
	if want := slices.Concat(src[:lo], src[hi:]); !slices.Equal(got, want) {
		t.Fatalf("degraded Run: %d values, want the %d outside block %d", len(got), len(want), bad)
	}
	if rep.BlocksSkipped != 1 || !errors.Is(rep.FirstErr, zukowski.ErrIO) {
		t.Fatalf("report = %d blocks, first error %v; want 1 block lost to ErrIO", rep.BlocksSkipped, rep.FirstErr)
	}
	if q := cr.QuarantinedBlocks(); len(q) != 0 {
		t.Fatalf("an I/O failure quarantined blocks %v", q)
	}
}

// TestColdScanReadCount: a cold scan over file-backed columns issues at
// most ceil(bytes/RunCap) + columns ReadAt calls — one per run of adjacent
// frames — where a read per frame fetched was the rule before runs. A
// cache, cold, counts one miss per frame fetched, which gives that count.
func TestColdScanReadCount(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	const n, blockValues = 100 * 4096, 4096
	k, a, b := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range k {
		k[i] = int64(i)*4 + rng.Int63n(4)
		a[i] = rng.Int63n(1 << 10)
		b[i] = rng.Int63n(1 << 16)
	}
	datas := [][]byte{
		buildColumnV2(t, zukowski.PFORDelta[int64]{}, blockValues, k),
		buildColumnV2(t, zukowski.PFOR[int64]{}, blockValues, a),
		buildColumnV2(t, zukowski.PFOR[int64]{}, blockValues, b),
	}
	w := n / 10
	window := []zukowski.Pred[int64]{{Col: 0, Lo: k[n/3], Hi: k[n/3+w]}, {Col: 1, Lo: 0, Hi: 600}}
	for _, tc := range []struct {
		name string
		q    zukowski.Query[int64]
	}{
		{"window", zukowski.Query[int64]{Preds: window, Cols: []int{2}}},
		{"full", zukowski.Query[int64]{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := zukowski.NewBlockLRU(1 << 30)
			srcs := make([]*countingReaderAt, len(datas))
			crs := make([]*zukowski.ColumnReader[int64], len(datas))
			for c, d := range datas {
				srcs[c] = &countingReaderAt{r: bytes.NewReader(d)}
				crs[c] = openAt(t, d, srcs[c], zukowski.WithBlockCache(cache))
				srcs[c].reads.Store(0)
				srcs[c].bytes.Store(0)
			}
			cs, err := zukowski.NewColumnSet(crs...)
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.Run(context.Background(), tc.q, func(int, []int64, [][]int64) bool { return true }); err != nil {
				t.Fatal(err)
			}
			var reads, bytes int64
			for _, s := range srcs {
				reads, bytes = reads+s.reads.Load(), bytes+s.bytes.Load()
			}
			limit := (bytes+zukowski.RunCap-1)/zukowski.RunCap + int64(len(datas))
			frames := cache.Stats().Misses
			t.Logf("%s: %d frames, %d bytes: %d ReadAt calls (bound %d; one per frame: %d)", tc.name, frames, bytes, reads, limit, frames)
			if reads > limit {
				t.Fatalf("%d ReadAt calls for %d bytes over %d columns, want at most %d", reads, bytes, len(datas), limit)
			}
			if frames < 3*reads {
				t.Fatalf("%d frames in %d reads: the scan hardly read ahead", frames, reads)
			}
		})
	}
}
