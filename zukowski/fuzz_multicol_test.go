package zukowski_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/zukowski"
)

// FuzzMultiColumnScan is the differential fuzzer of the conjunctive scan:
// two columns derived from arbitrary bytes — independently fuzzed codecs,
// several element types, fuzzed block sizes, per-column predicate windows
// picked from each column's own quantiles (including empty, inverted and
// all-covering windows) — must agree exactly with the decode-then-filter
// oracle through Run, RunAggregate and an ordered two-worker Run. The
// second column is a deterministic scramble of
// the first, so the two bitmaps genuinely disagree and the refine path
// (zero-group skips included) is exercised, not just self-intersection.
// Bit 2 of typeSel sorts the first column and bit 3 snaps its window to the
// zone maps — from the minimum of block loA to the maximum of block hiA,
// each end moved by -1, 0 or +1 as typeSel's top nibble says — so that the
// conjunct is decided "every row" on the blocks in between, "no row"
// outside, and evaluated only where the window's ends cut a block. The
// same containers are then read through an io.ReaderAt, the source whose
// sequential scans read runs of adjacent frames, once without a cache and
// once through a cache smaller than the containers, and must answer
// exactly as the in-memory readers did. Spelled as one tree, the
// conjunction answers exactly as the Preds form does, exact and degraded,
// over the columns and over a copy with one frame of the first column
// damaged.
func FuzzMultiColumnScan(f *testing.F) {
	names := zukowski.Codecs()
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(255), uint8(30), uint8(220), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(1), uint8(2), uint8(1), uint8(10), uint8(200), uint8(0), uint8(255), uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 64), uint8(2), uint8(3), uint8(2), uint8(128), uint8(64), uint8(0), uint8(255), uint8(0)) // inverted window
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<40), uint8(3), uint8(1), uint8(3), uint8(0), uint8(255), uint8(100), uint8(130), uint8(7))
	// 400 ascending values in 64-row blocks, the window on them snapped to
	// blocks 1..4: exactly (nibble 4), both ends one lower (0: block 4 is
	// cut), both ends one higher (8: block 1 is cut), and a window from
	// above block 3's minimum to below block 2's maximum, which is empty.
	var ramp []byte
	for i := 0; i < 400; i++ {
		ramp = binary.LittleEndian.AppendUint64(ramp, uint64(i*13))
	}
	pfor, delta := uint8(slices.Index(names, "pfor")), uint8(slices.Index(names, "pfor-delta"))
	for _, nibble := range []uint8{4, 0, 8} {
		f.Add(ramp, delta, pfor, nibble<<4|0x0C, uint8(1), uint8(4), uint8(40), uint8(200), uint8(0))
	}
	f.Add(ramp, delta, pfor, uint8(2<<4|0x0C), uint8(3), uint8(2), uint8(0), uint8(255), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, codecA, codecB, typeSel, loA, hiA, loB, hiB, blockSel uint8) {
		nameA := names[int(codecA)%len(names)]
		nameB := names[int(codecB)%len(names)]
		switch typeSel % 4 {
		case 0:
			fuzzMultiColumnScan[int64](t, nameA, nameB, data, typeSel, loA, hiA, loB, hiB, blockSel)
		case 1:
			fuzzMultiColumnScan[uint8](t, nameA, nameB, data, typeSel, loA, hiA, loB, hiB, blockSel)
		case 2:
			fuzzMultiColumnScan[int16](t, nameA, nameB, data, typeSel, loA, hiA, loB, hiB, blockSel)
		case 3:
			fuzzMultiColumnScan[uint32](t, nameA, nameB, data, typeSel, loA, hiA, loB, hiB, blockSel)
		}
	})
}

func fuzzMultiColumnScan[T zukowski.Integer](t *testing.T, nameA, nameB string, data []byte, typeSel, loA, hiA, loB, hiB, blockSel uint8) {
	var valsA []T
	for chunk := data; len(chunk) > 0; {
		var tail [8]byte
		n := copy(tail[:], chunk)
		valsA = append(valsA, T(binary.LittleEndian.Uint64(tail[:])))
		chunk = chunk[n:]
	}
	if typeSel&4 != 0 {
		slices.Sort(valsA)
	}
	// Column B: a value-scrambled, order-scrambled sibling of A with the
	// same length, so conjunctions select genuinely different row sets per
	// column.
	valsB := make([]T, len(valsA))
	for i := range valsB {
		j := (i*7 + 3) % len(valsA)
		valsB[i] = valsA[j]*3 + T(i%5)
	}

	blockValues := 64 + int(blockSel)*97
	var containers [][]byte
	build := func(name string, vals []T) *zukowski.ColumnReader[T] {
		codec, err := zukowski.Lookup[T](name)
		if err != nil {
			t.Skip()
		}
		var buf bytes.Buffer
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
		containers = append(containers, buf.Bytes())
		cr, err := zukowski.OpenColumn[T](buf.Bytes())
		if err != nil {
			t.Fatalf("OpenColumn: %v", err)
		}
		return cr
	}
	colA := build(nameA, valsA)
	colB := build(nameB, valsB)
	cs, err := zukowski.NewColumnSet(colA, colB)
	if err != nil {
		t.Fatalf("NewColumnSet over same-geometry columns: %v", err)
	}

	window := func(vals []T, loSel, hiSel uint8) (lo, hi T) {
		if len(vals) == 0 {
			return lo, hi
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		return sorted[int(loSel)*len(sorted)/256], sorted[int(hiSel)*len(sorted)/256]
	}
	pA0, pA1 := window(valsA, loA, hiA)
	if typeSel&8 != 0 && len(valsA) > 0 {
		blocks := (len(valsA) + blockValues - 1) / blockValues
		block := func(sel uint8) []T {
			b := int(sel) % blocks
			return valsA[b*blockValues : min(len(valsA), (b+1)*blockValues)]
		}
		nudge := typeSel >> 4
		pA0 = slices.Min(block(loA)) + T(nudge%3) - 1
		pA1 = slices.Max(block(hiA)) + T(nudge/3%3) - 1
	}
	pB0, pB1 := window(valsB, loB, hiB)
	preds := []zukowski.Pred[T]{{Col: 0, Lo: pA0, Hi: pA1}, {Col: 1, Lo: pB0, Hi: pB1}}

	var wantRows []int64
	var wantA, wantB []T
	for i := range valsA {
		if valsA[i] >= pA0 && valsA[i] <= pA1 && valsB[i] >= pB0 && valsB[i] <= pB1 {
			wantRows = append(wantRows, int64(i))
			wantA = append(wantA, valsA[i])
			wantB = append(wantB, valsB[i])
		}
	}

	var gotRows []int64
	var gotA, gotB []T
	ctx := context.Background()
	collect := func(_ int, r []int64, cols [][]T) bool {
		gotRows = append(gotRows, r...)
		gotA = append(gotA, cols[0]...)
		gotB = append(gotB, cols[1]...)
		return true
	}
	if err := cs.Run(ctx, zukowski.Query[T]{Preds: preds}, collect); err != nil {
		t.Fatalf("%s+%s: Run: %v", nameA, nameB, err)
	}
	if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotA, wantA) || !slices.Equal(gotB, wantB) {
		t.Fatalf("%s+%s [%v,%v]∧[%v,%v]: Run disagrees with oracle: got %d matches, want %d",
			nameA, nameB, pA0, pA1, pB0, pB1, len(gotRows), len(wantRows))
	}

	agg, err := cs.RunAggregate(ctx, zukowski.Query[T]{Preds: preds}, 1)
	if err != nil {
		t.Fatalf("%s+%s: RunAggregate: %v", nameA, nameB, err)
	}
	var want zukowski.Aggregate[T]
	for _, v := range wantB {
		if want.Count == 0 {
			want.Min, want.Max = v, v
		} else {
			want.Min, want.Max = min(want.Min, v), max(want.Max, v)
		}
		want.Count++
		want.Sum += int64(v)
	}
	if agg != want {
		t.Fatalf("%s+%s: RunAggregate = %+v, want %+v", nameA, nameB, agg, want)
	}

	gotRows, gotA, gotB = nil, nil, nil
	if err := cs.Run(ctx, zukowski.Query[T]{Preds: preds, Workers: 2}, collect); err != nil {
		t.Fatalf("%s+%s: ordered parallel Run: %v", nameA, nameB, err)
	}
	if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotA, wantA) || !slices.Equal(gotB, wantB) {
		t.Fatalf("%s+%s: ordered parallel Run disagrees with oracle", nameA, nameB)
	}

	// A cache of at most half the containers, in which a shard holds one
	// of the largest frames at most.
	var total, largest int
	for c, data := range containers {
		total += len(data)
		for b := range cs.NumBlocks() {
			info, err := cs.Column(c).BlockInfo(b)
			if err != nil {
				t.Fatal(err)
			}
			largest = max(largest, info.Length)
		}
	}
	for _, cache := range []*zukowski.BlockLRU{nil, zukowski.NewBlockLRU(int64(min(total/2, 16*(largest+112))))} {
		var opts []zukowski.ReaderOption
		if cache != nil {
			opts = append(opts, zukowski.WithBlockCache(cache))
		}
		files := make([]*zukowski.ColumnReader[T], len(containers))
		for c, data := range containers {
			if files[c], err = zukowski.OpenColumnReaderAt[T](bytes.NewReader(data), int64(len(data)), opts...); err != nil {
				t.Fatalf("OpenColumnReaderAt: %v", err)
			}
		}
		fs, err := zukowski.NewColumnSet(files...)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			gotRows, gotA, gotB = nil, nil, nil
			if err := fs.Run(ctx, zukowski.Query[T]{Preds: preds}, collect); err != nil {
				t.Fatalf("%s+%s through a ReaderAt (cache %v, pass %d): Run: %v", nameA, nameB, cache != nil, pass, err)
			}
			if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotA, wantA) || !slices.Equal(gotB, wantB) {
				t.Fatalf("%s+%s through a ReaderAt (cache %v, pass %d): Run disagrees with oracle", nameA, nameB, cache != nil, pass)
			}
			if agg, err := fs.RunAggregate(ctx, zukowski.Query[T]{Preds: preds}, 1); err != nil || agg != want {
				t.Fatalf("%s+%s through a ReaderAt (cache %v, pass %d): RunAggregate = %+v, %v; want %+v",
					nameA, nameB, cache != nil, pass, agg, err, want)
			}
		}
	}

	checkPredsForm(t, nameA+"+"+nameB, cs, zukowski.Query[T]{Preds: preds}, 1)
	if cs.NumBlocks() == 0 {
		return
	}
	bad := int(blockSel) % cs.NumBlocks()
	info, err := colA.BlockInfo(bad)
	if err != nil {
		t.Fatal(err)
	}
	damaged := slices.Clone(containers[0])
	damaged[info.Offset+int64(info.Length)/2] ^= 0x10
	cr, err := zukowski.OpenColumn[T](damaged)
	if err != nil {
		t.Fatalf("OpenColumn over a damaged payload: %v", err)
	}
	ds, err := zukowski.NewColumnSet(cr, colB)
	if err != nil {
		t.Fatal(err)
	}
	checkPredsForm(t, fmt.Sprintf("%s+%s, block %d damaged", nameA, nameB, bad), ds, zukowski.Query[T]{Preds: preds}, 1)
}
