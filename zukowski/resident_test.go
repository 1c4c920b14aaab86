package zukowski_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/zukowski"
)

// The parsed blocks a BlockLRU keeps beside its frames: parsed once per
// residency, indexed, shared read-only by every scan, charged to the
// budget and evicted with their frames.

// residentColumns builds three same-geometry columns of n rows in blocks
// of bv values, one per patched scheme, each with exceptions: a PFOR
// column with 5 % outliers, a PDICT column of 24 values with 3 % outliers
// and a sorted PFOR-DELTA key with jumps.
func residentColumns(t *testing.T, n, bv int) (data [][]byte, src [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	a, d, k := make([]int64, n), make([]int64, n), make([]int64, n)
	var acc int64
	for i := range a {
		a[i] = rng.Int63n(1000)
		if rng.Intn(20) == 0 {
			a[i] = rng.Int63n(1 << 40)
		}
		d[i] = 10 * rng.Int63n(24)
		if rng.Intn(33) == 0 {
			d[i] = 7 + rng.Int63n(1<<30)
		}
		acc += rng.Int63n(8)
		if rng.Intn(40) == 0 {
			acc += rng.Int63n(1 << 20)
		}
		k[i] = acc
	}
	for _, c := range []struct {
		codec string
		vals  []int64
	}{{"pfor", a}, {"pdict", d}, {"pfor-delta", k}} {
		codec, err := zukowski.Lookup[int64](c.codec)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, buildColumnV2(t, codec, bv, c.vals))
		src = append(src, c.vals)
	}
	return data, src
}

// TestResidentParsedAccounting keys its readers' frames by the column ids
// residentIDBase+off+c for column c, at offsets 0 and 1. At offset 1 the
// ids crowd one shard until, under a budget of 4x the stored bytes, it
// lacks the room for some of its frames' forms (six on a 64-bit host, two
// on a 32-bit one, whose forms are smaller); at offset 0 every frame gets
// its form.
const residentIDBase = 1<<40 + 146

// residentSet opens data as one column set through ReaderAts, with cache
// attached when it is not nil.
func residentSet(t *testing.T, data [][]byte, cache *zukowski.BlockLRU) *zukowski.ColumnSet[int64] {
	t.Helper()
	var cols []*zukowski.ColumnReader[int64]
	for _, d := range data {
		var opts []zukowski.ReaderOption
		if cache != nil {
			opts = append(opts, zukowski.WithBlockCache(cache))
		}
		cr, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(d), int64(len(d)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, cr)
	}
	cs, err := zukowski.NewColumnSet(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// residentQueries mixes what the kernels on a resident block do: fresh
// masks, refinements, unions, sparse and dense gathers on every scheme.
func residentQueries(src [][]int64) []zukowski.Query[int64] {
	k := src[2]
	return []zukowski.Query[int64]{
		{},
		{Preds: []zukowski.Pred[int64]{{Col: 0, Lo: 100, Hi: 180}}},
		{Preds: []zukowski.Pred[int64]{{Col: 0, Lo: 1 << 30, Hi: 1 << 41}}}, // the outliers
		{Preds: []zukowski.Pred[int64]{{Col: 1, Lo: 30, Hi: 90}, {Col: 0, Lo: 0, Hi: 500}}},
		{Preds: []zukowski.Pred[int64]{{Col: 2, Lo: k[len(k)/5], Hi: k[len(k)/2]}, {Col: 1, Lo: 7, Hi: 1 << 31}}},
		{Expr: zukowski.Or(zukowski.Range[int64](0, 0, 20), zukowski.Range[int64](1, 100, 100), zukowski.Range[int64](0, 1<<35, 1<<40))},
		{Preds: []zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: 999}}, Cols: []int{1, 2}},
	}
}

// scanAnswer runs every residentQueries query over cs — Run sequentially
// and with four workers, RunAggregate, a GroupAggregate over the PDICT
// column and a JoinOn probing it — and returns a printable digest of all
// the answers: Run's as a checksum of every block's number, rows and
// values.
func scanAnswer(t *testing.T, cs *zukowski.ColumnSet[int64], qs []zukowski.Query[int64]) string {
	t.Helper()
	ctx := context.Background()
	var out bytes.Buffer
	for i, q := range qs {
		for _, workers := range []int{1, 4} {
			q.Workers = workers
			h := crc32.NewIEEE()
			err := cs.Run(ctx, q, func(b int, rows []int64, cols [][]int64) bool {
				fmt.Fprint(h, b, len(rows))
				h.Write(int64Bytes(rows))
				for _, c := range cols {
					h.Write(int64Bytes(c))
				}
				return true
			})
			fmt.Fprintf(&out, "q%d/w%d run %08x %v\n", i, workers, h.Sum32(), err)
		}
		agg, err := cs.RunAggregate(ctx, q, 0)
		fmt.Fprintf(&out, "q%d agg %+v %v\n", i, agg, err)
		g, err := cs.GroupAggregate(q, []int{1}, []zukowski.AggSpec[int64]{{Kind: zukowski.AggCount}, {Kind: zukowski.AggSum, Col: 0}})
		fmt.Fprintf(&out, "q%d group %v %v %v\n", i, g.Keys, g.Aggs, err)
		var pairs int
		err = cs.JoinOn(q, 1, zukowski.BuildJoin([]int64{0, 30, 230, 7}), func(p []int64, b []int32) bool {
			pairs += len(p)
			return true
		})
		fmt.Fprintf(&out, "q%d join %d %v\n", i, pairs, err)
	}
	return out.String()
}

// int64Bytes is the memory of s, for hashing.
func int64Bytes(s []int64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

// blockSum checksums every section of a parsed block, the codes it
// borrows from its frame included.
func blockSum(blk *core.Block[int64]) uint32 {
	h := crc32.NewIEEE()
	fmt.Fprint(h, blk.Scheme, blk.B, blk.N, blk.Base, blk.DeltaBase, blk.DictLen,
		blk.Dict, blk.Exc, blk.Entries, blk.Totals, blk.ExcOff)
	h.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(blk.Codes))), 4*len(blk.Codes)))
	return h.Sum32()
}

// TestResidentParsedAccounting: scans over a cache that holds the table
// answer exactly what uncached readers answer, keep Bytes within
// Capacity, and attach an indexed parsed form to every patched frame whose
// shard has the room to spare for it (BlockLRU.spare) — and to no other.
// The charge is released with the entry, so evicting everything brings
// Bytes back to 0. A cache too small for the table answers the same and
// stays within its budget too.
//
// Room is a shard's, not the cache's: forms are not part of the stored
// bytes, and the column ids the readers key the cache by decide which
// shard each frame falls in. A budget of 4x the stored bytes holds every
// frame, but at some ids one shard takes so many of them that it has no
// room left for a few forms. The readers therefore take fixed ids, at two
// offsets: one with such a spread and one without.
func TestResidentParsedAccounting(t *testing.T) {
	data, src := residentColumns(t, 40*512, 512)
	qs := residentQueries(src)
	want := scanAnswer(t, residentSet(t, data, nil), qs)
	var stored int64
	for _, d := range data {
		stored += int64(len(d))
	}
	missing := 0
	for _, budget := range []int64{4 * stored, stored / 4} {
		offsets := []uint64{0, 1}
		if budget < stored {
			offsets = offsets[:1]
		}
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			for _, off := range offsets {
				t.Run(fmt.Sprintf("ids=%d", off), func(t *testing.T) {
					cache := zukowski.NewBlockLRU(budget)
					cs := residentSet(t, data, nil)
					for c := range cs.Columns() {
						zukowski.SetBlockCacheID(cs.Column(c), cache, residentIDBase+off+uint64(c))
					}
					frames := 0
					for pass := 0; pass < 3; pass++ {
						if got := scanAnswer(t, cs, qs); got != want {
							t.Fatalf("pass %d: cached answers differ from uncached ones\n got %s\nwant %s", pass, got, want)
						}
						st := cache.Stats()
						if st.Bytes > st.Capacity {
							t.Fatalf("pass %d: %d bytes resident, capacity %d", pass, st.Bytes, st.Capacity)
						}
						frames = int(st.Entries)
					}
					if budget > stored {
						n, withRoom := zukowski.MissingForms[int64](cache)
						// At offset 0 no shard is crowded, so every frame has its
						// form, whatever spare says.
						if frames != 3*40 || withRoom != 0 || (off == 0 && n != 0) {
							t.Fatalf("%d of %d frames resident; %d without a parsed form, %d of them in a shard with room for it",
								frames, 3*40, n, withRoom)
						}
						missing += n
					}
					for _, blk := range zukowski.ResidentParsed[int64](cache) {
						if len(blk.Exc) > 0 && len(blk.ExcOff) != len(blk.Exc) {
							t.Fatalf("resident %s block of %d exceptions is not indexed", blk.Scheme, len(blk.Exc))
						}
					}
					zukowski.EvictAll(cache)
					if st := cache.Stats(); st.Bytes != 0 || st.Entries != 0 || st.Puts != st.Evictions {
						t.Fatalf("after evicting everything: %d bytes, %d entries, %d puts, %d evictions",
							st.Bytes, st.Entries, st.Puts, st.Evictions)
					}
					if got := scanAnswer(t, cs, qs); got != want {
						t.Fatalf("after eviction: cached answers differ from uncached ones")
					}
				})
			}
		})
	}
	if missing == 0 {
		t.Fatal("at no offset did a shard lack the room for a form; the ids no longer cover the room rule")
	}
}

// TestConcurrentResidentBlocksIntact: resident parsed blocks are shared
// by every scan and written by none. Concurrent scans of every kind over
// a warmed cache — run under -race in CI — leave each resident block's
// sections bit for bit as they were, and answer what uncached readers do.
func TestConcurrentResidentBlocksIntact(t *testing.T) {
	data, src := residentColumns(t, 24*512, 512)
	qs := residentQueries(src)
	want := scanAnswer(t, residentSet(t, data, nil), qs)
	cache := zukowski.NewBlockLRU(1 << 30)
	cs := residentSet(t, data, cache)
	scanAnswer(t, cs, qs) // misses
	scanAnswer(t, cs, qs) // first hits: parse, index, attach
	resident := zukowski.ResidentParsed[int64](cache)
	if len(resident) != 3*24 {
		t.Fatalf("%d parsed blocks resident, want %d", len(resident), 3*24)
	}
	sums := make([]uint32, len(resident))
	for i, blk := range resident {
		sums[i] = blockSum(blk)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				if got := scanAnswer(t, cs, qs); got != want {
					errs <- got
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, cr := range []int{0, 1, 2} {
			col := cs.Column(cr)
			for i := 0; i < col.Len(); i += 37 {
				if v, err := col.Get(i); err != nil || v != src[cr][i] {
					errs <- fmt.Sprintf("column %d Get(%d) = %d, %v; want %d", cr, i, v, err, src[cr][i])
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent scan over resident blocks: %s", e)
	}
	after := zukowski.ResidentParsed[int64](cache)
	if len(after) != len(resident) {
		t.Fatalf("%d parsed blocks resident after the scans, %d before", len(after), len(resident))
	}
	for i, blk := range resident {
		if got := blockSum(blk); got != sums[i] {
			t.Fatalf("resident %s block changed under concurrent scans: checksum %08x, was %08x", blk.Scheme, got, sums[i])
		}
	}
}

// TestResidentWarmScanZeroAllocs: once the parsed forms are resident, a
// warmed filtered scan over cached readers allocates nothing, as over
// in-memory ones.
func TestResidentWarmScanZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is asserted in the non-race run")
	}
	data, src := residentColumns(t, 16*512, 512)
	cs := residentSet(t, data, zukowski.NewBlockLRU(1<<30))
	ctx := context.Background()
	sink := func(int, []int64, [][]int64) bool { return true }
	for _, q := range residentQueries(src) {
		scan := func() {
			if err := cs.Run(ctx, q, sink); err != nil {
				t.Fatal(err)
			}
			if _, err := cs.RunAggregate(ctx, q, 0); err != nil {
				t.Fatal(err)
			}
		}
		scan()
		scan()
		if avg := testing.AllocsPerRun(20, scan); avg != 0 {
			t.Fatalf("%+v: %v allocs per warmed scan over resident blocks, want 0", q.Preds, avg)
		}
	}
}

// TestResidentInMemoryZeroAllocs: an in-memory reader keeps one parsed
// form per patched block, so once Get, ReadBlock and Run have touched
// every block, none of them allocates — on every patched scheme.
func TestResidentInMemoryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is asserted in the non-race run")
	}
	const bv = 512
	data, src := residentColumns(t, 8*bv, bv)
	ctx := context.Background()
	sink := func(int, []int64, [][]int64) bool { return true }
	for c := range data {
		cr, err := zukowski.OpenColumn[int64](data[c])
		if err != nil {
			t.Fatal(err)
		}
		cs := oneColumn(t, cr)
		dst := make([]int64, 0, bv)
		for name, path := range map[string]func(){
			"Get": func() {
				for b := 0; b < cr.NumBlocks(); b++ {
					if v, err := cr.Get(b*bv + 7); err != nil || v != src[c][b*bv+7] {
						t.Fatalf("Get(%d) = %d, %v", b*bv+7, v, err)
					}
				}
			},
			"ReadBlock": func() {
				for b := 0; b < cr.NumBlocks(); b++ {
					if got, err := cr.ReadBlock(b, dst[:0]); err != nil || got[9] != src[c][b*bv+9] {
						t.Fatalf("ReadBlock(%d): %v", b, err)
					}
				}
			},
			"Run": func() {
				if err := cs.Run(ctx, zukowski.Query[int64]{}, sink); err != nil {
					t.Fatal(err)
				}
			},
		} {
			path()
			if avg := testing.AllocsPerRun(20, path); avg != 0 {
				t.Fatalf("column %d, %s over warm blocks: %v allocs per run, want 0", c, name, avg)
			}
		}
	}
}

// TestResidentBlocksMatchWalked: a resident (indexed) block and the same
// frame parsed afresh (its patch lists walked into scratch) decode to the
// same values.
func TestResidentBlocksMatchWalked(t *testing.T) {
	data, _ := residentColumns(t, 8*512, 512)
	cache := zukowski.NewBlockLRU(1 << 30)
	cs := residentSet(t, data, cache)
	for pass := 0; pass < 2; pass++ {
		if _, err := cs.RunAggregate(context.Background(), zukowski.Query[int64]{Preds: []zukowski.Pred[int64]{{Col: 0, Lo: 1, Hi: 2}}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	resident := zukowski.ResidentParsed[int64](cache)
	if len(resident) == 0 {
		t.Fatal("no parsed form resident")
	}
	for _, blk := range resident {
		walked := *blk
		walked.ExcOff = nil
		got := core.Decompress(blk, make([]int64, blk.N))
		if w := core.Decompress(&walked, make([]int64, blk.N)); !slices.Equal(got, w) {
			t.Fatalf("resident %s block decodes differently indexed and walked", blk.Scheme)
		}
	}
}

// TestResidentCopiedCodes: a frame whose code section sits at an address
// a word load may not use (here an int16 PDICT frame with an odd-length
// dictionary) is parsed by copying its codes into the scan's scratch. The
// resident form kept from that parse must own a copy of its own: the next
// block's parse overwrites the scratch, and every pass must still answer
// what an uncached reader answers.
func TestResidentCopiedCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(516))
	const n, bv = 12 * 512, 512
	vals := make([]int16, n)
	for i := range vals {
		vals[i] = int16(100*(i/bv) + 7*rng.Intn(5)) // five values a block: DictLen 5
	}
	data := buildColumnV2(t, zukowski.PDict[int16]{}, bv, vals)
	open := func(cache *zukowski.BlockLRU) *zukowski.ColumnSet[int16] {
		var opts []zukowski.ReaderOption
		if cache != nil {
			opts = append(opts, zukowski.WithBlockCache(cache))
		}
		cr, err := zukowski.OpenColumnReaderAt[int16](bytes.NewReader(data), int64(len(data)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return oneColumn(t, cr)
	}
	answer := func(cs *zukowski.ColumnSet[int16]) string {
		var out bytes.Buffer
		for _, q := range []zukowski.Query[int16]{{}, rangeQuery[int16](0, 400), rangeQuery[int16](107, 614)} {
			err := cs.Run(context.Background(), q, func(_ int, rows []int64, cols [][]int16) bool {
				fmt.Fprint(&out, rows, cols)
				return true
			})
			fmt.Fprintln(&out, err)
		}
		return out.String()
	}
	want := answer(open(nil))
	cache := zukowski.NewBlockLRU(1 << 30)
	cs := open(cache)
	for pass := 0; pass < 3; pass++ {
		if got := answer(cs); got != want {
			t.Fatalf("pass %d: cached answers differ from uncached ones", pass)
		}
	}
	resident := zukowski.ResidentParsed[int16](cache)
	if len(resident) != n/bv {
		t.Fatalf("%d parsed blocks resident, want %d", len(resident), n/bv)
	}
	for _, blk := range resident {
		if blk.DictLen%2 == 0 {
			t.Fatalf("a dictionary of %d entries: the code section is aligned, the copy is not exercised", blk.DictLen)
		}
	}
}
