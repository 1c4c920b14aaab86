package zukowski_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/zukowski"
)

// legacyPDictValues regenerates the value stream baked into
// testdata/zkc2_int64_pdict_freq.bin: a dozen hot values, each about half
// as frequent as the one before and in no value order, plus one outlier in
// a hundred. The writer that made the fixture (PDict codec, 1000-value
// blocks) laid its dictionaries out by falling frequency, so the
// fixture's code order is not value order: the frames readers refuse.
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
// blocks' dictionaries.
func parsedDicts(t *testing.T, cr *zukowski.ColumnReader[int64]) (dicts [][]int64) {
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
	}
	return dicts
}

// refusesOrder reports whether err is the refusal of a dictionary in
// frequency order.
func refusesOrder(err error) bool {
	return errors.Is(err, zukowski.ErrCorruptSegment) && strings.Contains(err.Error(), "ascending")
}

// TestFrequencyOrderedPDictFixture: a container whose dictionaries are in
// frequency order (laid out by writers from before dictionaries were
// stored ascending) opens — its header and directory are sound — but
// every read of its frames is refused with ErrCorruptSegment naming the
// order: a scan, an aggregate, a lookup, a read-all, a verify and a frame
// decode, in memory and through a cache. Today's writer stores the same
// values in as many bytes, every dictionary ascending: the rewrite the
// upgrade note asks for.
func TestFrequencyOrderedPDictFixture(t *testing.T) {
	vals := legacyPDictValues(rand.New(rand.NewSource(14)))
	data, err := os.ReadFile(filepath.Join("testdata", "zkc2_int64_pdict_freq.bin"))
	if err != nil {
		t.Fatal(err)
	}
	inMemory, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)),
		zukowski.WithBlockCache(zukowski.NewBlockLRU(1<<20)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, cr := range map[string]*zukowski.ColumnReader[int64]{"in memory": inMemory, "cached": cached} {
		if cr.Len() != len(vals) || cr.NumBlocks() != 3 {
			t.Fatalf("%s: fixture opens with %d values in %d blocks, want %d in 3", name, cr.Len(), cr.NumBlocks(), len(vals))
		}
		cs := oneColumn(t, cr)
		for pass := 0; pass < 2; pass++ { // a cold and a warm cache
			for _, q := range []zukowski.Query[int64]{{}, rangeQuery[int64](17, 512)} {
				err := cs.Run(ctx, q, func(int, []int64, [][]int64) bool { return true })
				if !refusesOrder(err) {
					t.Fatalf("%s: Run = %v, want the dictionary order refused", name, err)
				}
				if _, err := cs.RunAggregate(ctx, q, 0); !refusesOrder(err) {
					t.Fatalf("%s: RunAggregate = %v, want the dictionary order refused", name, err)
				}
			}
			if _, err := cr.Get(1500); !refusesOrder(err) {
				t.Fatalf("%s: Get = %v, want the dictionary order refused", name, err)
			}
			if _, err := cr.ReadAll(nil); !refusesOrder(err) {
				t.Fatalf("%s: ReadAll = %v, want the dictionary order refused", name, err)
			}
			if err := cr.Verify(); !refusesOrder(err) {
				t.Fatalf("%s: Verify = %v, want the dictionary order refused", name, err)
			}
		}
		frame, err := cr.FrameBytes(0)
		if err != nil {
			t.Fatalf("%s: FrameBytes, which checks the container CRC only: %v", name, err)
		}
		if _, err := zukowski.DecodeFrame[int64](nil, frame); !refusesOrder(err) {
			t.Fatalf("%s: DecodeFrame = %v, want the dictionary order refused", name, err)
		}
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
	checkReads(t, current, vals)
	for b, dict := range parsedDicts(t, current) {
		if !slices.IsSorted(dict) {
			t.Fatalf("block %d: today's dictionary %v is not ascending", b, dict)
		}
	}
}

// TestPDictGivenDictionaryStoredAscending: a PDICT codec given a
// dictionary out of order encodes frames whose dictionary is that one
// sorted, the values round-trip through every read path, and the
// caller's slice is left as it was.
func TestPDictGivenDictionaryStoredAscending(t *testing.T) {
	given := []int64{900, 17, 512, 64, 3, 333, 128, 77, 5000, 41, 256, 1}
	dict := slices.Clone(given)
	vals := legacyPDictValues(rand.New(rand.NewSource(14)))
	var out bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&out, zukowski.PDict[int64]{Dict: dict, Width: 4}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(vals); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dict, given) {
		t.Fatalf("the codec reordered the caller's dictionary: %v", dict)
	}
	cr, err := zukowski.OpenColumn[int64](out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkReads(t, cr, vals)
	if err := cr.Verify(); err != nil {
		t.Fatal(err)
	}
	sorted := slices.Sorted(slices.Values(given))
	for b, got := range parsedDicts(t, cr) {
		if !slices.Equal(got, sorted) {
			t.Fatalf("block %d: dictionary %v, want the given one ascending %v", b, got, sorted)
		}
	}
	cs := oneColumn(t, cr)
	q := rangeQuery[int64](17, 512)
	var want zukowski.Aggregate[int64]
	for _, v := range vals {
		if v >= 17 && v <= 512 {
			want.Merge(zukowski.Aggregate[int64]{Count: 1, Sum: v, Min: v, Max: v})
		}
	}
	if got, err := cs.RunAggregate(context.Background(), q, 0); err != nil || got != want {
		t.Fatalf("RunAggregate [17,512] = %+v, %v; oracle %+v", got, err, want)
	}
}
