package zukowski_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/faultio"
	"repro/zukowski"
)

// corruptPayloadByte flips one byte in the middle of block b's payload and
// returns the block's directory row count — the rows a degraded scan must
// report lost when it skips the block.
func corruptPayloadByte[T zukowski.Integer](t *testing.T, data []byte, block int) int {
	t.Helper()
	cr, err := zukowski.OpenColumn[T](data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cr.BlockInfo(block)
	if err != nil {
		t.Fatal(err)
	}
	data[int(info.Offset)+info.Length/2] ^= 0x04
	return info.Count
}

// blockRows returns [start, end) row numbers of block b in a column of
// uniform blockValues-sized blocks over n rows.
func blockRows(block, blockValues, n int) (int, int) {
	return block * blockValues, min((block+1)*blockValues, n)
}

// TestDegradedScanSkipCorrupt: a scan over a container with one corrupt
// block fails by default, but a whole-column Query with SkipCorrupt
// completes, delivers exactly the surviving rows, and reports exactly the
// damaged block's rows lost.
func TestDegradedScanSkipCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	src := genValues[int64](rng, 4000)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, src)
	const bad = 2
	lost := corruptPayloadByte[int64](t, data, bad)

	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	// Default contract: fail-stop.
	if err := cr.Scan(func([]int64) bool { return true }); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("Scan err = %v, want ErrChecksumMismatch", err)
	}

	// Degraded: the scan completes and matches the decode oracle on the
	// surviving rows.
	lo, hi := blockRows(bad, 512, len(src))
	want := slices.Concat(src[:lo], src[hi:])
	cs := oneColumn(t, cr)
	var rep zukowski.ScanReport
	_, got, err := collectRun(t, cs, zukowski.Query[int64]{SkipCorrupt: true, Report: &rep})
	if err != nil {
		t.Fatalf("degraded Scan: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("degraded Scan delivered %d rows, oracle %d", len(got), len(want))
	}
	if rep.BlocksSkipped != 1 || rep.RowsLost != int64(lost) || !rep.Degraded() {
		t.Fatalf("report = {blocks %d, rows %d}, want {1, %d}", rep.BlocksSkipped, rep.RowsLost, lost)
	}
	if !errors.Is(rep.FirstErr, zukowski.ErrChecksumMismatch) {
		t.Fatalf("FirstErr = %v, want ErrChecksumMismatch", rep.FirstErr)
	}

	// The persistent mismatch quarantined the block: later non-degraded
	// touches fail fast with the latched error.
	if got := cr.QuarantinedBlocks(); !slices.Equal(got, []int{bad}) {
		t.Fatalf("QuarantinedBlocks = %v, want [%d]", got, bad)
	}
	if _, err := cr.Get(lo + 1); !errors.Is(err, zukowski.ErrBlockQuarantined) {
		t.Fatalf("Get in quarantined block err = %v, want ErrBlockQuarantined", err)
	}
	// VerifyBlock bypasses the quarantine latch and re-checks the bytes.
	if err := cr.VerifyBlock(bad); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("VerifyBlock err = %v, want ErrChecksumMismatch", err)
	}
	// A second degraded pass skips via the latch and still matches.
	var rep2 zukowski.ScanReport
	if _, got, err = collectRun(t, cs, zukowski.Query[int64]{SkipCorrupt: true, Report: &rep2}); err != nil || !slices.Equal(got, want) {
		t.Fatalf("second degraded Scan: err=%v rows=%d", err, len(got))
	}
	if !errors.Is(rep2.FirstErr, zukowski.ErrBlockQuarantined) {
		t.Fatalf("second pass FirstErr = %v, want ErrBlockQuarantined", rep2.FirstErr)
	}
}

// TestDegradedSelectAndAggregate: a one-column range Query and its
// RunAggregate honor SkipCorrupt the same way, against the decode oracle.
func TestDegradedSelectAndAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	src := genValues[int64](rng, 5000)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, src)
	const bad = 4
	lost := corruptPayloadByte[int64](t, data, bad)
	lo, hi := blockRows(bad, 512, len(src))

	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	surviving := slices.Concat(src[:lo], src[hi:])
	plo, phi := int64(5), int64(40)
	cs := oneColumn(t, cr)
	ctx := context.Background()

	// The range Query fails by default; the degraded pass matches filtering
	// the surviving rows.
	q := rangeQuery(plo, phi)
	if _, _, err := collectRun(t, cs, q); !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("Run err = %v", err)
	}
	var rep zukowski.ScanReport
	q.SkipCorrupt, q.Report = true, &rep
	_, got, err := collectRun(t, cs, q)
	if err != nil {
		t.Fatalf("degraded Run: %v", err)
	}
	var want []int64
	for _, v := range surviving {
		if v >= plo && v <= phi {
			want = append(want, v)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("degraded Run selected %d, oracle %d", len(got), len(want))
	}
	if rep.BlocksSkipped != 1 || rep.RowsLost != int64(lost) {
		t.Fatalf("select report = %+v", &rep)
	}

	// RunAggregate over the full domain: count is exactly the surviving
	// rows, sum matches the oracle.
	q = rangeQuery(slices.Min(src), slices.Max(src))
	if _, err := cs.RunAggregate(ctx, q, 0); !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("RunAggregate err = %v", err)
	}
	var arep zukowski.ScanReport
	q.SkipCorrupt, q.Report = true, &arep
	agg, err := cs.RunAggregate(ctx, q, 0)
	if err != nil {
		t.Fatalf("degraded RunAggregate: %v", err)
	}
	var wantSum int64
	for _, v := range surviving {
		wantSum += v
	}
	if agg.Count != int64(len(surviving)) || agg.Sum != wantSum {
		t.Fatalf("degraded aggregate = %+v, want count %d sum %d", agg, len(surviving), wantSum)
	}
	if arep.RowsLost != int64(lost) {
		t.Fatalf("aggregate report = %+v", &arep)
	}
}

// TestDegradedParallelScanSelect: a one-column range Query with Workers
// skips the damaged block from whichever worker hits it, race-clean, and
// the report is still exact.
func TestDegradedParallelScanSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	src := genValues[int64](rng, 8000)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, src)
	const bad = 7
	lost := corruptPayloadByte[int64](t, data, bad)
	lo, hi := blockRows(bad, 512, len(src))
	surviving := slices.Concat(src[:lo], src[hi:])

	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	cs := oneColumn(t, cr)
	q := rangeQuery[int64](0, 1<<40)
	q.Workers = 4
	if _, _, err := collectRun(t, cs, q); !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("parallel Run err = %v", err)
	}
	for _, workers := range []int{1, 4} {
		var rep zukowski.ScanReport
		q.Workers, q.SkipCorrupt, q.Report = workers, true, &rep
		_, got, err := collectRun(t, cs, q) // fn is never called concurrently
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var want []int64
		for _, v := range surviving {
			if v >= 0 {
				want = append(want, v)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: %d rows, oracle %d", workers, len(got), len(want))
		}
		if rep.BlocksSkipped != 1 || rep.RowsLost != int64(lost) {
			t.Fatalf("workers=%d: report = %+v", workers, &rep)
		}
	}
}

// TestDegradedRunParallel: conjunctive multi-column scans and aggregates
// skip a block that is corrupt in any member column, losing that block's
// rows across the whole set — sequential, parallel and aggregate forms
// agree.
func TestDegradedRunParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	a := genValues[int64](rng, 6000)
	b := genValues[int64](rng, 6000)
	dataA := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, a)
	dataB := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, b)
	const bad = 3
	lost := corruptPayloadByte[int64](t, dataB, bad)
	lo, hi := blockRows(bad, 512, len(a))

	crA, err := zukowski.OpenColumn[int64](dataA)
	if err != nil {
		t.Fatal(err)
	}
	crB, err := zukowski.OpenColumn[int64](dataB)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := zukowski.NewColumnSet(crA, crB)
	if err != nil {
		t.Fatal(err)
	}
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: 50}, {Col: 1, Lo: 0, Hi: 50}}

	// Oracle: filter rows outside the damaged block.
	var wantRows []int64
	var wantSum int64
	for i := range a {
		if i >= lo && i < hi {
			continue
		}
		if a[i] >= 0 && a[i] <= 50 && b[i] >= 0 && b[i] <= 50 {
			wantRows = append(wantRows, int64(i))
			wantSum += a[i]
		}
	}

	ctx := context.Background()
	if err := cs.Run(ctx, zukowski.Query[int64]{Preds: preds}, func(int, []int64, [][]int64) bool { return true }); !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("Run err = %v", err)
	}

	var rep zukowski.ScanReport
	var gotRows []int64
	collect := func(_ int, rows []int64, _ [][]int64) bool {
		gotRows = append(gotRows, rows...)
		return true
	}
	if err := cs.Run(ctx, zukowski.Query[int64]{Preds: preds, SkipCorrupt: true, Report: &rep}, collect); err != nil {
		t.Fatalf("degraded Run: %v", err)
	}
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("degraded Run: %d rows, oracle %d", len(gotRows), len(wantRows))
	}
	if rep.BlocksSkipped != 1 || rep.RowsLost != int64(lost) {
		t.Fatalf("report = %+v, want 1 block / %d rows", &rep, lost)
	}

	var prep zukowski.ScanReport
	gotRows = gotRows[:0]
	if err := cs.Run(ctx, zukowski.Query[int64]{Preds: preds, Workers: 4, SkipCorrupt: true, Report: &prep}, collect); err != nil {
		t.Fatalf("degraded parallel Run: %v", err)
	}
	if !slices.Equal(gotRows, wantRows) || prep.BlocksSkipped != 1 {
		t.Fatalf("parallel: %d rows (oracle %d), report %+v", len(gotRows), len(wantRows), &prep)
	}

	var agrep zukowski.ScanReport
	agg, err := cs.RunAggregate(ctx, zukowski.Query[int64]{Preds: preds, SkipCorrupt: true, Report: &agrep}, 0)
	if err != nil {
		t.Fatalf("degraded RunAggregate: %v", err)
	}
	if agg.Count != int64(len(wantRows)) || agg.Sum != wantSum {
		t.Fatalf("aggregate = %+v, want count %d sum %d", agg, len(wantRows), wantSum)
	}
}

// TestDegradedGroupAggregateJoinOn: one flipped bit in a frame of the column
// GroupAggregate groups by and JoinOn probes fails both exact scans with a
// typed fault. Under SkipCorrupt each loses exactly that block: the report
// names one block and its rows, and the answer — code-space paths included
// — equals the oracle over the surviving blocks.
func TestDegradedGroupAggregateJoinOn(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	const n, blockValues, bad = 6000, 512, 5
	base := []int64{11, 23, 35, 47, 59}
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = base[rng.Intn(len(base))]
		if rng.Intn(100) == 0 {
			keys[i] = 1000 + rng.Int63n(20) // out of the dictionary: exception slots
		}
	}
	vals := genValues[int64](rng, n)
	dataK := buildColumnV2(t, zukowski.PDict[int64]{}, blockValues, keys)
	lost := corruptPayloadByte[int64](t, dataK, bad)
	crK, err := zukowski.OpenColumn[int64](dataK)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := zukowski.NewColumnSet(crK, buildSelectColumn(t, zukowski.PFOR[int64]{}, blockValues, vals))
	if err != nil {
		t.Fatal(err)
	}
	lostLo, lostHi := blockRows(bad, blockValues, n)
	survives := func(i int) bool { return (i < lostLo || i >= lostHi) && vals[i] <= 50 }
	q := zukowski.Query[int64]{Expr: zukowski.Range[int64](1, 0, 50)}

	specs := []zukowski.AggSpec[int64]{
		{Kind: zukowski.AggCount},
		{Kind: zukowski.AggSum, Col: 1},
		{Kind: zukowski.AggMax, Cols: []int{0, 1}, Map: func(c [][]int64, i int) int64 { return c[0][i] - c[1][i] }},
	}
	buildKeys := []int64{23, 47, 23, 1005, 4}
	jt := zukowski.BuildJoin(buildKeys)
	join := func(q zukowski.Query[int64]) (probe []int64, build []int32, err error) {
		err = cs.JoinOn(q, 0, jt, func(pr []int64, br []int32) bool {
			probe, build = append(probe, pr...), append(build, br...)
			return true
		})
		return probe, build, err
	}

	if _, err := cs.GroupAggregate(q, []int{0}, specs); !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("exact GroupAggregate over a damaged frame: %v, want a data fault", err)
	}
	if _, _, err := join(q); !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("exact JoinOn over a damaged frame: %v, want a data fault", err)
	}

	var grep, jrep zukowski.ScanReport
	q.SkipCorrupt, q.Report = true, &grep
	got, err := cs.GroupAggregate(q, []int{0}, specs)
	if err != nil {
		t.Fatalf("degraded GroupAggregate: %v", err)
	}
	checkGrouped(t, "degraded GroupAggregate", got,
		groupOracle([][]int64{keys, vals}, func(_ [][]int64, i int) bool { return survives(i) }, []int{0}, specs))

	q.Report = &jrep
	gotProbe, gotBuild, err := join(q)
	if err != nil {
		t.Fatalf("degraded JoinOn: %v", err)
	}
	var wantProbe []int64
	var wantBuild []int32
	for i, k := range keys {
		if !survives(i) {
			continue
		}
		for bi, bk := range buildKeys {
			if k == bk {
				wantProbe, wantBuild = append(wantProbe, int64(i)), append(wantBuild, int32(bi))
			}
		}
	}
	if !slices.Equal(gotProbe, wantProbe) || !slices.Equal(gotBuild, wantBuild) {
		t.Fatalf("degraded JoinOn: %d pairs, oracle %d", len(gotProbe), len(wantProbe))
	}

	for name, r := range map[string]*zukowski.ScanReport{"GroupAggregate": &grep, "JoinOn": &jrep} {
		if r.BlocksSkipped != 1 || r.RowsLost != int64(lost) || !zukowski.IsDataFault(r.FirstErr) {
			t.Fatalf("%s report = {blocks %d, rows %d, first %v}, want {1, %d, a data fault}",
				name, r.BlocksSkipped, r.RowsLost, r.FirstErr, lost)
		}
	}
}

// damageFrame returns a copy of data with block b's frame damaged: one
// bit flipped, or — torn — its second half zeroed, what a write cut short
// leaves behind.
func damageFrame(t *testing.T, data []byte, block int, torn bool) []byte {
	t.Helper()
	out := bytes.Clone(data)
	if !torn {
		corruptPayloadByte[int64](t, out, block)
		return out
	}
	cr, err := zukowski.OpenColumn[int64](out)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cr.BlockInfo(block)
	if err != nil {
		t.Fatal(err)
	}
	clear(out[int(info.Offset)+info.Length/2 : int(info.Offset)+info.Length])
	return out
}

// TestDegradedScanReportsWhatItRead pins the rule that a scan reports
// damage in the frames it read. A window on the sorted key k covers blocks
// 2..5 whole and cuts blocks 1 and 6; the query filters on k and a and
// materializes b. Damage in k's block 3 — covered whole, so the zone map
// decides the conjunct and the frame is never fetched — leaves the answer
// exact, the report empty and nothing quarantined. The same damage in k's
// block 1 (the conjunct is evaluated there) or in b's block 3 (a
// materialized column) fails an exact scan and costs a degraded one
// exactly that block, which is then quarantined.
func TestDegradedScanReportsWhatItRead(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	const n, blockValues = 4000, 512
	k := make([]int64, n)
	for i := range k {
		k[i] = int64(i)*5 + rng.Int63n(5)
	}
	a := genValues[int64](rng, n)
	b := genValues[int64](rng, n)
	lo, hi := k[blockValues+200], k[6*blockValues+100]
	q := zukowski.Query[int64]{
		Preds: []zukowski.Pred[int64]{{Col: 0, Lo: lo, Hi: hi}, {Col: 1, Lo: 0, Hi: 30}},
		Cols:  []int{2},
	}
	dataK := buildColumnV2(t, zukowski.PFORDelta[int64]{}, blockValues, k)
	dataA := buildColumnV2(t, zukowski.PFOR[int64]{}, blockValues, a)
	dataB := buildColumnV2(t, zukowski.PFOR[int64]{}, blockValues, b)

	for _, tc := range []struct {
		name       string
		col, block int
		read       bool // the scan fetches the damaged frame
	}{
		{"k/covered-whole", 0, 3, false},
		{"k/cut-by-the-window", 0, 1, true},
		{"b/materialized", 2, 3, true},
	} {
		for _, torn := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				name := tc.name + map[bool]string{false: "/bitflip", true: "/torn"}[torn] + map[int]string{1: "/seq", 4: "/par"}[workers]
				t.Run(name, func(t *testing.T) {
					datas := [][]byte{dataK, dataA, dataB}
					datas[tc.col] = damageFrame(t, datas[tc.col], tc.block, torn)
					crs := make([]*zukowski.ColumnReader[int64], len(datas))
					for c := range datas {
						var err error
						if crs[c], err = zukowski.OpenColumn[int64](datas[c]); err != nil {
							t.Fatal(err)
						}
					}
					cs, err := zukowski.NewColumnSet(crs...)
					if err != nil {
						t.Fatal(err)
					}

					lostLo, lostHi := 0, 0
					if tc.read {
						lostLo, lostHi = blockRows(tc.block, blockValues, n)
					}
					var wantRows, wantB []int64
					var wantAgg zukowski.Aggregate[int64]
					for i := range k {
						if (i >= lostLo && i < lostHi) || k[i] < lo || k[i] > hi || a[i] > 30 {
							continue
						}
						wantRows, wantB = append(wantRows, int64(i)), append(wantB, b[i])
						wantAgg.Merge(zukowski.Aggregate[int64]{Count: 1, Sum: b[i], Min: b[i], Max: b[i]})
					}

					ctx := context.Background()
					q := q
					q.Workers = workers
					if tc.read {
						err := cs.Run(ctx, q, func(int, []int64, [][]int64) bool { return true })
						if !errors.Is(err, zukowski.ErrCorruptColumn) {
							t.Fatalf("exact Run over a damaged frame it reads: %v, want a data fault", err)
						}
					}
					var rep, aggRep zukowski.ScanReport
					q.SkipCorrupt, q.Report = true, &rep
					var gotRows, gotB []int64
					if err := cs.Run(ctx, q, func(_ int, rows []int64, cols [][]int64) bool {
						gotRows, gotB = append(gotRows, rows...), append(gotB, cols[0]...)
						return true
					}); err != nil {
						t.Fatalf("degraded Run: %v", err)
					}
					if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotB, wantB) {
						t.Fatalf("degraded Run: %d rows, oracle %d", len(gotRows), len(wantRows))
					}
					q.Report = &aggRep
					if agg, err := cs.RunAggregate(ctx, q, 2); err != nil || agg != wantAgg {
						t.Fatalf("degraded RunAggregate = %+v, %v; want %+v", agg, err, wantAgg)
					}

					wantBlocks, wantLost, wantQuar := 0, int64(0), []int(nil)
					if tc.read {
						wantBlocks, wantLost, wantQuar = 1, int64(lostHi-lostLo), []int{tc.block}
					}
					for _, r := range []*zukowski.ScanReport{&rep, &aggRep} {
						if r.BlocksSkipped != wantBlocks || r.RowsLost != wantLost || r.Degraded() != tc.read {
							t.Fatalf("report = {blocks %d, rows %d, first %v}, want {%d, %d}", r.BlocksSkipped, r.RowsLost, r.FirstErr, wantBlocks, wantLost)
						}
					}
					for c, cr := range crs {
						want := []int(nil)
						if c == tc.col {
							want = wantQuar
						}
						if got := cr.QuarantinedBlocks(); !slices.Equal(got, want) {
							t.Fatalf("column %d: quarantined blocks %v, want %v", c, got, want)
						}
					}
				})
			}
		}
	}
}

// TestRetryTransientFaults: a source that fails a block read at most twice
// is invisible to a reader with a 3-attempt RetryPolicy, and fatal to one
// without.
func TestRetryTransientFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	src := genValues[int64](rng, 4000)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, src)
	cr0, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cr0.BlockInfo(3)
	if err != nil {
		t.Fatal(err)
	}
	// Arm 2 transient failures on block 3's byte range only, so the
	// open-time header and footer reads stay clean.
	rules := []faultio.Rule{{Kind: faultio.TransientErr, Off: int64(info.Offset), Len: int64(info.Length), Count: 2}}

	// No policy: the first scan through block 3 dies with ErrIO.
	plain, err := zukowski.OpenColumnReaderAt[int64](faultio.NewReaderAt(bytes.NewReader(data), 1, rules...), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	err = plain.Scan(func([]int64) bool { return true })
	if !errors.Is(err, zukowski.ErrIO) || !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("no-policy Scan err = %v, want ErrIO under ErrCorruptColumn", err)
	}
	if errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("I/O failure misclassified as checksum mismatch: %v", err)
	}
	// Transient means transient: the same reader succeeds once the fault
	// budget is exhausted, and nothing was quarantined.
	if len(plain.QuarantinedBlocks()) != 0 {
		t.Fatalf("transient fault quarantined blocks %v", plain.QuarantinedBlocks())
	}

	fr := faultio.NewReaderAt(bytes.NewReader(data), 1, rules...)
	retrying, err := zukowski.OpenColumnReaderAt[int64](fr, int64(len(data)),
		zukowski.WithRetryPolicy(zukowski.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := retrying.ReadAll(nil)
	if err != nil {
		t.Fatalf("ReadAll with RetryPolicy: %v", err)
	}
	if !slices.Equal(got, src) {
		t.Fatal("retried read diverges from source values")
	}
	if st := fr.Stats(); st.Injected[faultio.TransientErr] != 2 {
		t.Fatalf("injected %d transient faults, want 2", st.Injected[faultio.TransientErr])
	}
	if len(retrying.QuarantinedBlocks()) != 0 {
		t.Fatalf("retried-away fault quarantined blocks %v", retrying.QuarantinedBlocks())
	}
}

// TestRetryQuarantineFailFast: at-rest corruption through a ReaderAt
// source is re-read once, then quarantined — later touches fail fast
// without hitting the source, and the corrupt frame never enters an
// attached cache.
func TestRetryQuarantineFailFast(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	src := genValues[int64](rng, 4000)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, src)
	cr0, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cr0.BlockInfo(1)
	if err != nil {
		t.Fatal(err)
	}
	// A persistent bit-flip in block 1's payload: every read of those bytes
	// comes back damaged.
	fr := faultio.NewReaderAt(bytes.NewReader(data), 1,
		faultio.Rule{Kind: faultio.BitFlip, Off: int64(info.Offset) + int64(info.Length)/2, Len: 1, Mask: 0x10})
	cache := zukowski.NewBlockLRU(1 << 20)
	cr, err := zukowski.OpenColumnReaderAt[int64](fr, int64(len(data)),
		zukowski.WithBlockCache(cache),
		zukowski.WithRetryPolicy(zukowski.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}

	row := 512 // first row of block 1
	_, err = cr.Get(row)
	if !errors.Is(err, zukowski.ErrBlockQuarantined) || !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("Get err = %v, want quarantined checksum mismatch", err)
	}
	if got := cr.QuarantinedBlocks(); !slices.Equal(got, []int{1}) {
		t.Fatalf("QuarantinedBlocks = %v", got)
	}

	// Checksum path reads the block, re-reads once to rule out in-flight
	// corruption, and must not touch the source again afterwards.
	before := fr.Stats().Reads
	for i := 0; i < 5; i++ {
		if _, err := cr.Get(row + i); !errors.Is(err, zukowski.ErrBlockQuarantined) {
			t.Fatalf("Get after quarantine err = %v", err)
		}
	}
	if after := fr.Stats().Reads; after != before {
		t.Fatalf("quarantined block still read the source: %d -> %d reads", before, after)
	}

	// Degraded scan over the same reader: surviving rows intact — which
	// also proves the corrupt frame never entered the cache.
	var rep zukowski.ScanReport
	_, got, err := collectRun(t, oneColumn(t, cr), zukowski.Query[int64]{SkipCorrupt: true, Report: &rep})
	if err != nil {
		t.Fatalf("degraded Scan: %v", err)
	}
	want := slices.Concat(src[:512], src[1024:])
	if !slices.Equal(got, want) {
		t.Fatalf("degraded Scan: %d rows, want %d", len(got), len(want))
	}
	if rep.BlocksSkipped != 1 || rep.RowsLost != 512 {
		t.Fatalf("report = %+v", &rep)
	}
}
