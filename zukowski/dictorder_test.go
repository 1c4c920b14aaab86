package zukowski_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/zukowski"
)

// legacyPDictValues regenerates the value stream baked into
// testdata/zkc2_int64_pdict_freq.bin: a dozen hot values, each about half
// as frequent as the one before and in no value order, plus one outlier in
// a hundred. The PR-13 writer (PDict codec, 1000-value blocks) laid its
// dictionaries out by falling frequency, so the fixture's code order is
// not value order: the frames readers must keep answering from.
func legacyPDictValues(rng *rand.Rand) []int64 {
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

// parsedDicts parses every block of a PDICT column and returns its
// blocks' dictionaries and whether the parser found each ascending.
func parsedDicts(t *testing.T, cr *zukowski.ColumnReader[int64]) (dicts [][]int64, ascending []bool) {
	t.Helper()
	for b := 0; b < cr.NumBlocks(); b++ {
		frame, err := cr.FrameBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := segment.Unmarshal[int64](frame)
		if err != nil {
			t.Fatal(err)
		}
		if blk.Scheme != core.SchemePDict {
			t.Fatalf("block %d is %v, want PDICT", b, blk.Scheme)
		}
		dicts = append(dicts, blk.Dict[:blk.DictLen])
		ascending = append(ascending, blk.DictAscending)
	}
	return dicts, ascending
}

// TestFrequencyOrderedPDictFixture: a container whose dictionaries are in
// frequency order (written before PR 14) reads, filters, aggregates and
// groups like the scalar oracle, and today's writer stores the same values
// in as many bytes with the same dictionaries in ascending order.
func TestFrequencyOrderedPDictFixture(t *testing.T) {
	vals := legacyPDictValues(rand.New(rand.NewSource(14)))
	data, err := os.ReadFile(filepath.Join("testdata", "zkc2_int64_pdict_freq.bin"))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := legacy.ReadAll(nil); err != nil || !slices.Equal(got, vals) {
		t.Fatalf("fixture reads back differently (err %v)", err)
	}
	if err := legacy.Verify(); err != nil {
		t.Fatal(err)
	}
	oldDicts, oldAsc := parsedDicts(t, legacy)
	if slices.Contains(oldAsc, true) {
		t.Fatalf("fixture dictionaries ascending = %v: not the frequency-ordered frames this test is for", oldAsc)
	}

	var rewritten bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&rewritten, zukowski.PDict[int64]{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(vals); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if rewritten.Len() != len(data) {
		t.Fatalf("today's writer stores the values in %d bytes, the fixture in %d", rewritten.Len(), len(data))
	}
	current, err := zukowski.OpenColumn[int64](rewritten.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	newDicts, newAsc := parsedDicts(t, current)
	if slices.Contains(newAsc, false) {
		t.Fatalf("today's dictionaries ascending = %v, want all", newAsc)
	}
	for b := range oldDicts {
		sorted := slices.Clone(oldDicts[b])
		slices.Sort(sorted)
		if !slices.Equal(sorted, newDicts[b]) {
			t.Fatalf("block %d: today's dictionary is not the fixture's in ascending order", b)
		}
	}

	// The two layouts side by side in one set, with a payload column.
	rng := rand.New(rand.NewSource(15))
	payload := synthColumn(rng, len(vals))
	cs, err := zukowski.NewColumnSet(legacy, current, buildSelectColumn(t, zukowski.PFOR[int64]{}, 1000, payload))
	if err != nil {
		t.Fatal(err)
	}
	all := [][]int64{vals, vals, payload}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	for trial := 0; trial < 60; trial++ {
		lo, hi := sorted[rng.Intn(len(sorted))], sorted[rng.Intn(len(sorted))]
		if trial%10 == 0 {
			lo, hi = lo-1, hi+1 // bounds between dictionary entries
		}
		lo, hi = min(lo, hi), max(lo, hi)
		plo := rng.Int63n(1 << 12)
		for col := 0; col < 2; col++ {
			q := zukowski.Query[int64]{Expr: zukowski.And(zukowski.Range(col, lo, hi), zukowski.Range[int64](2, plo, 1<<30))}
			var wantRows, wantVals []int64
			var want zukowski.Aggregate[int64]
			for i, v := range vals {
				if v >= lo && v <= hi && payload[i] >= plo {
					wantRows = append(wantRows, int64(i))
					wantVals = append(wantVals, v)
					want.Merge(zukowski.Aggregate[int64]{Count: 1, Sum: v, Min: v, Max: v})
				}
			}
			var gotRows, gotVals []int64
			if err := cs.Run(context.Background(), q, func(_ int, rows []int64, cols [][]int64) bool {
				gotRows = append(gotRows, rows...)
				gotVals = append(gotVals, cols[col]...)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotVals, wantVals) {
				t.Fatalf("column %d [%d,%d]: Run selected %d rows, oracle %d", col, lo, hi, len(gotRows), len(wantRows))
			}
			if got, err := cs.RunAggregate(context.Background(), q, col); err != nil || got != want {
				t.Fatalf("column %d [%d,%d]: RunAggregate = %+v, %v; oracle %+v", col, lo, hi, got, err, want)
			}
			specs := []zukowski.AggSpec[int64]{{Kind: zukowski.AggCount}, {Kind: zukowski.AggSum, Col: 2}}
			got, err := cs.GroupAggregate(q, []int{col}, specs)
			if err != nil {
				t.Fatal(err)
			}
			checkGrouped(t, "fixture", got, groupOracle(all, func(_ [][]int64, i int) bool {
				return vals[i] >= lo && vals[i] <= hi && payload[i] >= plo
			}, []int{col}, specs))
		}
	}
}
