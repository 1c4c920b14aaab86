package zukowski_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/experiments"
	"repro/zukowski"
)

// oracleWhereAll is the decode-then-filter reference of a conjunctive
// scan: decode every column in full, keep the rows where every predicate
// holds, and return their row numbers plus each column's values there.
func oracleWhereAll[T zukowski.Integer](t testing.TB, cols []*zukowski.ColumnReader[T], preds []zukowski.Pred[T]) (rows []int64, vals [][]T) {
	t.Helper()
	all := make([][]T, len(cols))
	for i, cr := range cols {
		var err error
		if all[i], err = cr.ReadAll(nil); err != nil {
			t.Fatal(err)
		}
	}
	vals = make([][]T, len(cols))
	for i := 0; i < cols[0].Len(); i++ {
		ok := true
		for _, p := range preds {
			if v := all[p.Col][i]; v < p.Lo || v > p.Hi {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		rows = append(rows, int64(i))
		for c := range cols {
			vals[c] = append(vals[c], all[c][i])
		}
	}
	return rows, vals
}

// collectWhereAll gathers a full conjunctive Run, checking the batch
// shape contract along the way.
func collectWhereAll[T zukowski.Integer](t testing.TB, cs *zukowski.ColumnSet[T], preds []zukowski.Pred[T]) (rows []int64, vals [][]T) {
	t.Helper()
	vals = make([][]T, cs.Columns())
	err := cs.Run(context.Background(), zukowski.Query[T]{Preds: preds}, func(_ int, r []int64, cols [][]T) bool {
		if len(r) == 0 {
			t.Fatal("Run delivered an empty batch")
		}
		if len(cols) != cs.Columns() {
			t.Fatalf("Run handed %d columns, set has %d", len(cols), cs.Columns())
		}
		for c := range cols {
			if len(cols[c]) != len(r) {
				t.Fatalf("column %d batch holds %d values for %d rows", c, len(cols[c]), len(r))
			}
			vals[c] = append(vals[c], cols[c]...)
		}
		rows = append(rows, r...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, vals
}

func checkWhereAll[T zukowski.Integer](t *testing.T, cs *zukowski.ColumnSet[T], cols []*zukowski.ColumnReader[T], preds []zukowski.Pred[T]) {
	t.Helper()
	wantRows, wantVals := oracleWhereAll(t, cols, preds)
	gotRows, gotVals := collectWhereAll(t, cs, preds)
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("preds %v: rows mismatch: got %d, want %d", preds, len(gotRows), len(wantRows))
	}
	for c := range wantVals {
		if !slices.Equal(gotVals[c], wantVals[c]) {
			t.Fatalf("preds %v: column %d values mismatch", preds, c)
		}
	}

	// The aggregate over each column must fold exactly the oracle's values.
	for c := range cols {
		agg, err := cs.RunAggregate(context.Background(), zukowski.Query[T]{Preds: preds}, c)
		if err != nil {
			t.Fatal(err)
		}
		var want zukowski.Aggregate[T]
		for _, v := range wantVals[c] {
			if want.Count == 0 {
				want.Min, want.Max = v, v
			} else {
				want.Min, want.Max = min(want.Min, v), max(want.Max, v)
			}
			want.Count++
			want.Sum += int64(v)
		}
		if agg != want {
			t.Fatalf("preds %v col %d: RunAggregate = %+v, want %+v", preds, c, agg, want)
		}
	}
}

// synthColumn builds unsorted values with outliers, the worst case for
// zone maps and the home turf of compressed-domain selection.
func synthColumn(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 12)
		if rng.Intn(40) == 0 {
			vals[i] = rng.Int63n(1 << 30)
		}
	}
	return vals
}

// TestRunConjunctionOracle drives conjunctive scans over two and three
// columns across codec mixes (patched, analyzed, raw) against the
// decode-then-filter oracle.
func TestRunConjunctionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 40_000
	a := synthColumn(rng, n)
	b := synthColumn(rng, n)
	c := make([]int64, n) // clustered: kind to zone maps, orders predicates
	for i := range c {
		c[i] = int64(i / 100)
	}

	codecMixes := [][]string{
		{"pfor", "pfor", "pfor-delta"},
		{"pfor", "pdict", "none"},
		{"auto", "pdict", "none"},
	}
	for _, mix := range codecMixes {
		cols := make([]*zukowski.ColumnReader[int64], 3)
		for i, vals := range [][]int64{a, b, c} {
			codec, err := zukowski.Lookup[int64](mix[i])
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = buildSelectColumn(t, codec, 3000, vals)
		}
		cs, err := zukowski.NewColumnSet(cols...)
		if err != nil {
			t.Fatal(err)
		}
		predSets := [][]zukowski.Pred[int64]{
			nil, // empty conjunction: every row
			{{Col: 0, Lo: 0, Hi: 100}},
			{{Col: 0, Lo: 0, Hi: 500}, {Col: 1, Lo: 0, Hi: 500}},
			{{Col: 0, Lo: 0, Hi: 2000}, {Col: 1, Lo: 100, Hi: 3000}, {Col: 2, Lo: 50, Hi: 250}},
			{{Col: 0, Lo: 0, Hi: 1 << 31}, {Col: 1, Lo: 0, Hi: 1 << 31}}, // everything matches
			{{Col: 0, Lo: -5, Hi: -1}, {Col: 1, Lo: 0, Hi: 100}},         // first predicate empty
			{{Col: 0, Lo: 10, Hi: 5}},                                    // inverted: trivially empty
			{{Col: 0, Lo: 0, Hi: 800}, {Col: 0, Lo: 400, Hi: 4000}},      // same column twice
			{{Col: 2, Lo: 100, Hi: 120}, {Col: 0, Lo: 0, Hi: 600}},       // zone-prunable first
		}
		for _, preds := range predSets {
			checkWhereAll(t, cs, cols, preds)
		}
	}
}

// TestRunConjunctionEdgeGeometry pins bitmap edge cases: tail rows not a
// multiple of 32, single-row blocks, a single-value column, and empty and
// full selections over each.
func TestRunConjunctionEdgeGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, tc := range []struct {
		name        string
		n           int
		blockValues int
	}{
		{"tail-rows", 1037, 100}, // last block 37 rows, 37%32 != 0
		{"odd-blocks", 999, 31},  // every block 31 rows
		{"single-row-blocks", 65, 1},
		{"one-value", 1, 10},
		{"exact-word", 4096, 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := synthColumn(rng, tc.n)
			b := synthColumn(rng, tc.n)
			colA := buildSelectColumn(t, zukowski.PFOR[int64]{}, tc.blockValues, a)
			colB := buildSelectColumn(t, zukowski.Auto[int64]{}, tc.blockValues, b)
			cs, err := zukowski.NewColumnSet(colA, colB)
			if err != nil {
				t.Fatal(err)
			}
			for _, preds := range [][]zukowski.Pred[int64]{
				{{Col: 0, Lo: 0, Hi: 1 << 40}, {Col: 1, Lo: 0, Hi: 1 << 40}}, // full bitmap
				{{Col: 0, Lo: -10, Hi: -1}},                                  // empty bitmap
				{{Col: 0, Lo: 0, Hi: 300}, {Col: 1, Lo: 0, Hi: 300}},
				{{Col: 0, Lo: a[tc.n-1], Hi: a[tc.n-1]}}, // the very last row's value
			} {
				checkWhereAll(t, cs, []*zukowski.ColumnReader[int64]{colA, colB}, preds)
			}
		})
	}
}

// TestColumnSetMismatch pins the typed geometry error: differing row
// counts, differing block boundaries, and the empty set.
func TestColumnSetMismatch(t *testing.T) {
	a := make([]int64, 1000)
	for i := range a {
		a[i] = int64(i)
	}
	base := buildSelectColumn(t, zukowski.PFOR[int64]{}, 100, a)

	if _, err := zukowski.NewColumnSet[int64](); !errors.Is(err, zukowski.ErrColumnSetMismatch) {
		t.Fatalf("empty set: %v, want ErrColumnSetMismatch", err)
	}

	short := buildSelectColumn(t, zukowski.PFOR[int64]{}, 100, a[:999])
	if _, err := zukowski.NewColumnSet(base, short); !errors.Is(err, zukowski.ErrColumnSetMismatch) {
		t.Fatalf("row-count mismatch: %v, want ErrColumnSetMismatch", err)
	}

	skewed := buildSelectColumn(t, zukowski.PFOR[int64]{}, 125, a)
	if _, err := zukowski.NewColumnSet(base, skewed); !errors.Is(err, zukowski.ErrColumnSetMismatch) {
		t.Fatalf("block-boundary mismatch: %v, want ErrColumnSetMismatch", err)
	}

	// Same geometry, different codecs: fine.
	other := buildSelectColumn(t, zukowski.PFORDelta[int64]{}, 100, a)
	cs, err := zukowski.NewColumnSet(base, other)
	if err != nil {
		t.Fatal(err)
	}

	// Predicate addressing a column outside the set is a typed error.
	bad := []zukowski.Pred[int64]{{Col: 2, Lo: 0, Hi: 10}}
	if err := cs.Run(context.Background(), zukowski.Query[int64]{Preds: bad}, func(int, []int64, [][]int64) bool { return true }); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
		t.Fatalf("out-of-range predicate column: %v, want ErrIndexOutOfRange", err)
	}
	if _, err := cs.RunAggregate(context.Background(), zukowski.Query[int64]{}, 5); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
		t.Fatalf("out-of-range aggregate column: %v, want ErrIndexOutOfRange", err)
	}
}

// TestRunWorkersMatchesSequential checks the parallel conjunctive scan
// (Query.Workers) against the sequential one, byte for byte and in the
// same block order.
func TestRunWorkersMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n = 60_000
	a := synthColumn(rng, n)
	b := synthColumn(rng, n)
	colA := buildSelectColumn(t, zukowski.PFOR[int64]{}, 2500, a)
	colB := buildSelectColumn(t, zukowski.PFORDelta[int64]{}, 2500, b)
	cs, err := zukowski.NewColumnSet(colA, colB)
	if err != nil {
		t.Fatal(err)
	}
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: 700}, {Col: 1, Lo: 0, Hi: 900}}

	seq := map[int]csBatch{}
	var seqOrder []int
	ctx := context.Background()
	if err := cs.Run(ctx, zukowski.Query[int64]{Preds: preds, Workers: 1}, func(blk int, rows []int64, cols [][]int64) bool {
		seq[blk] = csBatch{slices.Clone(rows), slices.Clone(cols[0]), slices.Clone(cols[1])}
		seqOrder = append(seqOrder, blk)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("predicates selected nothing; test data broken")
	}

	for _, workers := range []int{2, 4, 8} {
		var order []int
		got := map[int]csBatch{}
		if err := cs.Run(ctx, zukowski.Query[int64]{Preds: preds, Workers: workers}, func(blk int, rows []int64, cols [][]int64) bool {
			order = append(order, blk)
			got[blk] = csBatch{slices.Clone(rows), slices.Clone(cols[0]), slices.Clone(cols[1])}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(order, seqOrder) {
			t.Fatalf("%d workers: block order %v, want %v", workers, order, seqOrder)
		}
		compareBatches(t, workers, got, seq)
	}

	// Early stop: at most one more delivery after false.
	deliveries := 0
	if err := cs.Run(ctx, zukowski.Query[int64]{Preds: preds, Workers: 4}, func(int, []int64, [][]int64) bool {
		deliveries++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if deliveries != 1 {
		t.Fatalf("%d deliveries after immediate stop, want 1", deliveries)
	}
}

// csBatch is one delivered block of a two-column conjunctive scan.
type csBatch struct {
	rows []int64
	a, b []int64
}

func compareBatches(t *testing.T, workers int, got, want map[int]csBatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d workers: %d delivered blocks, want %d", workers, len(got), len(want))
	}
	for blk, w := range want {
		g, ok := got[blk]
		if !ok {
			t.Fatalf("%d workers: block %d missing", workers, blk)
		}
		if !slices.Equal(g.rows, w.rows) || !slices.Equal(g.a, w.a) || !slices.Equal(g.b, w.b) {
			t.Fatalf("%d workers: block %d batch differs", workers, blk)
		}
	}
}

// TestRunConjunctionCorruptBlock flips a payload bit in one column and
// expects the typed checksum error from both scan forms and the
// aggregate.
func TestRunConjunctionCorruptBlock(t *testing.T) {
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&buf, zukowski.PFOR[int64]{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(vals); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	data[len(data)/3] ^= 0x40
	bad, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	good := buildSelectColumn(t, zukowski.PFOR[int64]{}, 2000, vals)
	cs, err := zukowski.NewColumnSet(good, bad)
	if err != nil {
		t.Fatal(err)
	}
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: 999}, {Col: 1, Lo: 0, Hi: 999}}
	ctx := context.Background()
	sink := func(int, []int64, [][]int64) bool { return true }
	if err := cs.Run(ctx, zukowski.Query[int64]{Preds: preds}, sink); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("Run on corrupt column: %v, want ErrChecksumMismatch", err)
	}
	if err := cs.Run(ctx, zukowski.Query[int64]{Preds: preds, Workers: 4}, sink); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("parallel Run on corrupt column: %v, want ErrChecksumMismatch", err)
	}
	if _, err := cs.RunAggregate(ctx, zukowski.Query[int64]{Preds: preds}, 1); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("RunAggregate on corrupt column: %v, want ErrChecksumMismatch", err)
	}
}

// unprunable rewrites a ZKC2 container's zone maps to claim the whole
// int64 domain for every block — still true bounds, but ones that decide
// nothing and estimate every predicate alike — and reseals the directory
// checksum.
func unprunable(t testing.TB, data []byte) []byte {
	t.Helper()
	const entry, tail = 40, 24
	out := slices.Clone(data)
	blocks := int(binary.LittleEndian.Uint32(out[len(out)-tail+8:]))
	dirStart := len(out) - tail - blocks*entry
	for b := range blocks {
		ent := out[dirStart+b*entry:]
		binary.LittleEndian.PutUint64(ent[24:], 1<<63)         // math.MinInt64
		binary.LittleEndian.PutUint64(ent[32:], math.MaxInt64) // its bit pattern
	}
	dirCRC := crc32.Checksum(out[dirStart:len(out)-tail], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(out[len(out)-tail+12:], dirCRC)
	return out
}

// TestRunConjunctionUnpruned runs one conjunction over the same values
// twice: through zone maps that prune, and through zone maps that decide
// nothing, so every block is a candidate and no predicate is dropped or
// ordered by its estimate. The answers are the same, and the oracle's.
func TestRunConjunctionUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const n = 20_000
	a := synthColumn(rng, n)
	c := make([]int64, n) // clustered: its zone maps prune
	for i := range c {
		c[i] = int64(i / 100)
	}
	build := func(widen bool) (*zukowski.ColumnSet[int64], []*zukowski.ColumnReader[int64]) {
		var cols []*zukowski.ColumnReader[int64]
		for _, vals := range [][]int64{a, c} {
			data := buildColumnV2[int64](t, zukowski.PFOR[int64]{}, 1500, vals)
			if widen {
				data = unprunable(t, data)
			}
			cr, err := zukowski.OpenColumn[int64](data)
			if err != nil {
				t.Fatal(err)
			}
			cols = append(cols, cr)
		}
		cs, err := zukowski.NewColumnSet(cols...)
		if err != nil {
			t.Fatal(err)
		}
		return cs, cols
	}
	pruned, _ := build(false)
	open, openCols := build(true)
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: 600}, {Col: 1, Lo: 40, Hi: 90}}
	q := zukowski.Query[int64]{Preds: preds}
	if got := candidateBlocks(t, pruned, q); got == pruned.NumBlocks() {
		t.Fatalf("the pruning columns left all %d blocks", got)
	}
	if got := candidateBlocks(t, open, q); got != open.NumBlocks() {
		t.Fatalf("unprunable zone maps: %d candidate blocks of %d", got, open.NumBlocks())
	}
	wantRows, wantVals := collectWhereAll(t, pruned, preds)
	gotRows, gotVals := collectWhereAll(t, open, preds)
	if len(wantRows) == 0 || !slices.Equal(gotRows, wantRows) {
		t.Fatalf("unpruned run: %d rows, pruned run %d", len(gotRows), len(wantRows))
	}
	for ci := range wantVals {
		if !slices.Equal(gotVals[ci], wantVals[ci]) {
			t.Fatalf("unpruned run: column %d values differ from the pruned run's", ci)
		}
	}
	checkWhereAll(t, open, openCols, preds)
}

// TestRunSteadyStateAllocs pins the 0 allocs/op contract of warmed
// sequential conjunctive Run and RunAggregate.
func TestRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is asserted in the non-race run")
	}
	rng := rand.New(rand.NewSource(35))
	const n = 64_000
	a := synthColumn(rng, n)
	b := synthColumn(rng, n)
	for _, mix := range [][2]string{{"pfor", "pfor"}, {"pfor", "pfor-delta"}, {"pdict", "none"}} {
		codecA, err := zukowski.Lookup[int64](mix[0])
		if err != nil {
			t.Fatal(err)
		}
		codecB, err := zukowski.Lookup[int64](mix[1])
		if err != nil {
			t.Fatal(err)
		}
		colA := buildSelectColumn(t, codecA, 8000, a)
		colB := buildSelectColumn(t, codecB, 8000, b)
		cs, err := zukowski.NewColumnSet(colA, colB)
		if err != nil {
			t.Fatal(err)
		}
		q := zukowski.Query[int64]{Preds: []zukowski.Pred[int64]{{Col: 0, Lo: 10, Hi: 400}, {Col: 1, Lo: 10, Hi: 2000}}}
		ctx := context.Background()
		sink := func(int, []int64, [][]int64) bool { return true }
		scan := func() {
			if err := cs.Run(ctx, q, sink); err != nil {
				t.Fatal(err)
			}
			if _, err := cs.RunAggregate(ctx, q, 1); err != nil {
				t.Fatal(err)
			}
		}
		scan() // warm the pooled state and verification latches
		if avg := testing.AllocsPerRun(20, scan); avg != 0 {
			t.Errorf("%s+%s: %v allocs/op on warmed Run+RunAggregate, want 0", mix[0], mix[1], avg)
		}
	}

	// What the zone-map verdict and the density switch add to the path: a
	// sorted key under a window that covers blocks whole (the conjunct is
	// dropped, and with nothing else to evaluate the block is filled and
	// decoded whole) and cuts the blocks at its ends (a mixed block: the
	// key is evaluated there), beside a wide range on a (most groups keep
	// more rows than the dense threshold) and a narrow one (sparse groups),
	// through Preds, through a tree with an AND to order, and through Preds
	// beside an Or of ranges — the any_of shape, whose fold gives the AND
	// node a subtree to order among its ranges.
	k := make([]int64, n)
	for i := range k {
		k[i] = int64(i)*3 + rng.Int63n(3)
	}
	delta, err := zukowski.Lookup[int64]("pfor-delta")
	if err != nil {
		t.Fatal(err)
	}
	pfor, err := zukowski.Lookup[int64]("pfor")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := zukowski.NewColumnSet(buildSelectColumn(t, delta, 4000, k),
		buildSelectColumn(t, pfor, 4000, a), buildSelectColumn(t, pfor, 4000, b))
	if err != nil {
		t.Fatal(err)
	}
	window := zukowski.Pred[int64]{Col: 0, Lo: k[6_000], Hi: k[30_000]}
	wide, narrow := zukowski.Pred[int64]{Col: 1, Lo: 0, Hi: 2500}, zukowski.Pred[int64]{Col: 1, Lo: 10, Hi: 60}
	for name, q := range map[string]zukowski.Query[int64]{
		"covered-whole": {Preds: []zukowski.Pred[int64]{window}},
		"mixed-dense":   {Preds: []zukowski.Pred[int64]{window, wide}},
		"mixed-sparse":  {Preds: []zukowski.Pred[int64]{window, narrow}, Cols: []int{2}},
		"tree": {Expr: zukowski.Or(
			zukowski.And(zukowski.Range(0, window.Lo, window.Hi), zukowski.Range(1, wide.Lo, wide.Hi), zukowski.Expr[int64]{}),
			zukowski.In(2, b[0], b[1]))},
		"any-of": {Preds: []zukowski.Pred[int64]{window, wide},
			Expr: zukowski.Or(zukowski.Range(1, narrow.Lo, narrow.Hi), zukowski.Range[int64](2, 0, 400))},
	} {
		ctx := context.Background()
		rows := 0
		sink := func(_ int, r []int64, _ [][]int64) bool { rows += len(r); return true }
		scan := func() {
			if err := cs.Run(ctx, q, sink); err != nil {
				t.Fatal(err)
			}
			if _, err := cs.RunAggregate(ctx, q, 2); err != nil {
				t.Fatal(err)
			}
		}
		scan()
		if rows == 0 {
			t.Fatalf("%s: the query selects nothing", name)
		}
		if avg := testing.AllocsPerRun(20, scan); avg != 0 {
			t.Errorf("%s: %v allocs/op on warmed Run+RunAggregate, want 0", name, avg)
		}
	}
}

func BenchmarkRunConjunction(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	const n = 1 << 20
	av := synthColumn(rng, n)
	bv := synthColumn(rng, n)
	colA := buildSelectColumn(b, zukowski.PFOR[int64]{}, zukowski.DefaultBlockValues, av)
	colB := buildSelectColumn(b, zukowski.PFOR[int64]{}, zukowski.DefaultBlockValues, bv)
	cs, err := zukowski.NewColumnSet(colA, colB)
	if err != nil {
		b.Fatal(err)
	}
	raw := int64(2 * n * 8)
	// ~10% per column => ~1% conjunctive.
	q := zukowski.Query[int64]{Preds: []zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: 400}, {Col: 1, Lo: 0, Hi: 400}}}
	ctx := context.Background()

	b.Run("Run-1pct", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cs.Run(ctx, q, func(int, []int64, [][]int64) bool { return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-then-filter-1pct", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		bufA := make([]int64, 0, zukowski.DefaultBlockValues)
		bufB := make([]int64, 0, zukowski.DefaultBlockValues)
		rows := make([]int64, 0, n)
		outA := make([]int64, 0, n)
		outB := make([]int64, 0, n)
		for i := 0; i < b.N; i++ {
			rows, outA, outB = rows[:0], outA[:0], outB[:0]
			base := int64(0)
			for blk := 0; blk < colA.NumBlocks(); blk++ {
				var err error
				if bufA, err = colA.ReadBlock(blk, bufA[:0]); err != nil {
					b.Fatal(err)
				}
				if bufB, err = colB.ReadBlock(blk, bufB[:0]); err != nil {
					b.Fatal(err)
				}
				for j := range bufA {
					if bufA[j] >= 0 && bufA[j] <= 400 && bufB[j] >= 0 && bufB[j] <= 400 {
						rows = append(rows, base+int64(j))
						outA = append(outA, bufA[j])
						outB = append(outB, bufB[j])
					}
				}
				base += int64(len(bufA))
			}
		}
	})
	b.Run("RunAggregate-1pct", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cs.RunAggregate(ctx, q, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOrScan times the disjunction Or(Range(col 0), Range(col 1)) over
// two unsorted PFOR-shaped columns — zone maps prune nothing, each branch a
// centered window of half the selectivity on its own column — two ways:
// "expr" is Run on the expression tree (a mask per branch, united in the
// compressed domain, both columns materialized at the surviving rows
// only); "oracle" is the decode-then-filter plan it replaces (every block
// a branch's zone map admits decoded on both columns, the OR re-applied
// row by row, matches copied out). Both produce the same rows and values,
// checked once before timing. CI divides the two: per codec and
// selectivity, oracle ns/op over expr ns/op must stay at or above 1.5 — the
// paper's claim for not decoding what a predicate rejects, as a ratio
// within one run and so on any machine.
func BenchmarkOrScan(b *testing.B) {
	const n = 1 << 20
	vals := [2][]int64{
		experiments.SynthPFOR(rand.New(rand.NewSource(1)), n, 10, 0.02),
		experiments.SynthPFOR(rand.New(rand.NewSource(1001)), n, 10, 0.02),
	}
	var sorted [2][]int64
	for c := range vals {
		sorted[c] = slices.Clone(vals[c])
		slices.Sort(sorted[c])
	}
	for _, name := range []string{"pfor", "pdict"} {
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			b.Fatal(err)
		}
		cols := [2]*zukowski.ColumnReader[int64]{
			buildSelectColumn(b, codec, zukowski.DefaultBlockValues, vals[0]),
			buildSelectColumn(b, codec, zukowski.DefaultBlockValues, vals[1]),
		}
		cs, err := zukowski.NewColumnSet(cols[0], cols[1])
		if err != nil {
			b.Fatal(err)
		}
		for _, sel := range []float64{0.02, 0.1} {
			var lo, hi [2]int64
			for c := range sorted {
				width := int(sel / 2 * n)
				first := (n - width) / 2
				lo[c], hi[c] = sorted[c][first], sorted[c][first+width-1]
			}
			q := zukowski.Query[int64]{
				Expr: zukowski.Or(zukowski.Range(0, lo[0], hi[0]), zukowski.Range(1, lo[1], hi[1])),
				Cols: []int{0, 1},
			}

			// The oracle's candidate blocks, by the same zone-map rule the
			// engine applies to an OR: out only when every branch is.
			var candidates []int
			starts := make([]int64, cs.NumBlocks()+1)
			for blk := 0; blk < cs.NumBlocks(); blk++ {
				keep, count := false, 0
				for c, cr := range cols {
					info, err := cr.BlockInfo(blk)
					if err != nil {
						b.Fatal(err)
					}
					keep = keep || (info.Max >= lo[c] && info.Min <= hi[c])
					count = info.Count // the same in every column of a set
				}
				starts[blk+1] = starts[blk] + int64(count)
				if keep {
					candidates = append(candidates, blk)
				}
			}
			var bufs [2][]int64
			rows := make([]int64, 0, n)
			outs := [2][]int64{make([]int64, 0, n), make([]int64, 0, n)}
			oracle := func() {
				rows, outs[0], outs[1] = rows[:0], outs[0][:0], outs[1][:0]
				for _, blk := range candidates {
					for c, cr := range cols {
						var err error
						if bufs[c], err = cr.ReadBlock(blk, bufs[c][:0]); err != nil {
							b.Fatal(err)
						}
					}
					for j, v0 := range bufs[0] {
						v1 := bufs[1][j]
						if (v0 < lo[0] || v0 > hi[0]) && (v1 < lo[1] || v1 > hi[1]) {
							continue
						}
						rows = append(rows, starts[blk]+int64(j))
						outs[0] = append(outs[0], v0)
						outs[1] = append(outs[1], v1)
					}
				}
			}

			b.Run(fmt.Sprintf("%s/sel=%g", name, sel), func(b *testing.B) {
				oracle()
				var gotRows []int64
				var gotVals [2][]int64
				if err := cs.Run(context.Background(), q, func(_ int, r []int64, v [][]int64) bool {
					gotRows = append(gotRows, r...)
					gotVals[0], gotVals[1] = append(gotVals[0], v[0]...), append(gotVals[1], v[1]...)
					return true
				}); err != nil {
					b.Fatal(err)
				}
				if !slices.Equal(gotRows, rows) || !slices.Equal(gotVals[0], outs[0]) || !slices.Equal(gotVals[1], outs[1]) {
					b.Fatalf("Run(Or) selected %d rows, decode-then-filter %d, or their values differ", len(gotRows), len(rows))
				}
				raw := int64(2 * n * 8)
				b.Run("expr", func(b *testing.B) {
					b.SetBytes(raw)
					for i := 0; i < b.N; i++ {
						if err := cs.Run(context.Background(), q, func(int, []int64, [][]int64) bool { return true }); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run("oracle", func(b *testing.B) {
					b.SetBytes(raw)
					for i := 0; i < b.N; i++ {
						oracle()
					}
				})
			})
		}
	}
}
