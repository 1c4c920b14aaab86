package zukowski_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"repro/zukowski"
)

// FuzzFilteredScan is the differential fuzzer of the one-column filtered
// scans: whatever column the writer produces from arbitrary values — any
// codec, several element types, fuzzed block sizes, predicate windows
// picked from the data itself (including empty and inverted ones) — a
// one-column range Query through sequential Run, RunAggregate and ordered
// two-worker Run must agree exactly with the decode-then-filter oracle. Exception density and clustering are
// whatever the fuzzed values induce, which over the corpus covers none,
// sparse, and compulsory-heavy patch lists.
func FuzzFilteredScan(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(255), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(1), uint8(1), uint8(10), uint8(200), uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 64), uint8(2), uint8(2), uint8(128), uint8(64), uint8(0)) // inverted window
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<40), uint8(3), uint8(3), uint8(0), uint8(255), uint8(7))

	names := zukowski.Codecs()
	f.Fuzz(func(t *testing.T, data []byte, codecSel, typeSel, loSel, hiSel, blockSel uint8) {
		name := names[int(codecSel)%len(names)]
		switch typeSel % 4 {
		case 0:
			fuzzFilteredScan[int64](t, name, data, loSel, hiSel, blockSel)
		case 1:
			fuzzFilteredScan[uint8](t, name, data, loSel, hiSel, blockSel)
		case 2:
			fuzzFilteredScan[int16](t, name, data, loSel, hiSel, blockSel)
		case 3:
			fuzzFilteredScan[uint32](t, name, data, loSel, hiSel, blockSel)
		}
	})
}

func fuzzFilteredScan[T zukowski.Integer](t *testing.T, name string, data []byte, loSel, hiSel, blockSel uint8) {
	codec, err := zukowski.Lookup[T](name)
	if err != nil {
		t.Skip()
	}
	var vals []T
	for chunk := data; len(chunk) > 0; {
		var tail [8]byte
		n := copy(tail[:], chunk)
		vals = append(vals, T(binary.LittleEndian.Uint64(tail[:])))
		chunk = chunk[n:]
	}

	var buf bytes.Buffer
	blockValues := 64 + int(blockSel)*97
	cw, err := zukowski.NewColumnWriter[T](&buf, codec, blockValues)
	if err != nil {
		t.Fatalf("NewColumnWriter: %v", err)
	}
	if err := cw.Write(vals); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := cw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cr, err := zukowski.OpenColumn[T](buf.Bytes())
	if err != nil {
		t.Fatalf("OpenColumn: %v", err)
	}

	all, err := cr.ReadAll(nil)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}

	// Predicate window from the data's own quantiles — loSel/hiSel pick
	// percentiles, so the corpus explores empty, inverted, point and wide
	// windows in the value domain that actually occurs.
	var lo, hi T
	if len(all) > 0 {
		sorted := slices.Clone(all)
		slices.Sort(sorted)
		lo = sorted[int(loSel)*len(sorted)/256]
		hi = sorted[int(hiSel)*len(sorted)/256]
	}

	var wantRows []int64
	var wantVals []T
	for i, v := range all {
		if v >= lo && v <= hi {
			wantRows = append(wantRows, int64(i))
			wantVals = append(wantVals, v)
		}
	}

	cs := oneColumn(t, cr)
	q := rangeQuery(lo, hi)
	gotRows, gotVals, err := collectRun(t, cs, q)
	if err != nil {
		t.Fatalf("%s: Run: %v", name, err)
	}
	if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotVals, wantVals) {
		t.Fatalf("%s [%v,%v]: Run disagrees with oracle: got %d matches, want %d",
			name, lo, hi, len(gotRows), len(wantRows))
	}

	agg, err := cs.RunAggregate(context.Background(), q, 0)
	if err != nil {
		t.Fatalf("%s: RunAggregate: %v", name, err)
	}
	if want := aggregateOf(wantVals); agg != want {
		t.Fatalf("%s [%v,%v]: RunAggregate = %+v, want %+v", name, lo, hi, agg, want)
	}

	q.Workers = 2
	if gotRows, gotVals, err = collectRun(t, cs, q); err != nil {
		t.Fatalf("%s: two-worker Run: %v", name, err)
	}
	if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotVals, wantVals) {
		t.Fatalf("%s [%v,%v]: ordered two-worker Run disagrees with oracle", name, lo, hi)
	}
}
