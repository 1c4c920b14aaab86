package zukowski_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/zukowski"
)

// This file is the bitpack panic audit: internal/bitpack's kernels panic
// on misuse (width out of range, undersized buffers), and the decompression
// kernels trust header invariants the segment parser enforces. These tests
// craft frames that attack each trusted invariant — with checksums fixed up
// so validation cannot reject them for the wrong reason — and prove that no
// public zukowski entry point lets a kernel fault escape as a panic:
// everything surfaces as ErrCorruptSegment or ErrCorruptColumn.

// segFNV mirrors internal/segment's payload checksum (FNV-1a) so crafted
// frames pass the hash and exercise the deeper validation and recover
// paths.
func segFNV(data []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range data {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// fixSegmentChecksum recomputes the FNV over a mutated segment frame.
func fixSegmentChecksum(frame []byte) {
	binary.LittleEndian.PutUint32(frame[40:], segFNV(frame[44:]))
}

// mustNotPanic asserts f returns a typed corruption error (or, for probes
// where damage may decode to garbage, at worst no error) without panicking.
func mustNotPanic(t *testing.T, name string, f func() error) error {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic escaped the public API: %v", name, r)
		}
	}()
	return f()
}

func wantCorrupt(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: crafted frame accepted", name)
	}
	if !errors.Is(err, zukowski.ErrCorruptSegment) && !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("%s: error %v is neither ErrCorruptSegment nor ErrCorruptColumn", name, err)
	}
}

// pforFrame builds a valid PFOR frame with an exception in the first slot,
// the raw material the crafted mutations start from.
func pforFrame(t *testing.T) []byte {
	t.Helper()
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i % 100)
	}
	vals[0] = 1 << 40  // exception at position 0
	vals[10] = 1 << 41 // and one mid-group
	frame, err := zukowski.PFOR[int64]{Base: 0, Width: 8}.Encode(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// decodeProbes drives every frame-consuming public entry point.
func decodeProbes(name string) []struct {
	probe string
	run   func(frame []byte) error
} {
	codec := zukowski.PFOR[int64]{}
	return []struct {
		probe string
		run   func(frame []byte) error
	}{
		{name + "/Decode", func(frame []byte) error { _, err := codec.Decode(nil, frame); return err }},
		{name + "/Get", func(frame []byte) error { _, err := codec.Get(frame, 5); return err }},
		{name + "/Stats", func(frame []byte) error { _, err := codec.Stats(frame); return err }},
	}
}

// TestCraftedSegmentFrames mutates each trusted header invariant in turn.
func TestCraftedSegmentFrames(t *testing.T) {
	base := pforFrame(t)

	mutations := []struct {
		name   string
		mutate func(frame []byte)
	}{
		{"width-zero", func(f []byte) { f[2] = 0 }},
		{"width-33", func(f []byte) { f[2] = 33 }},
		{"width-wider-than-elem", func(f []byte) { f[3] = 1 }}, // elem says int8, width stays 8... then N*elem shrinks sections
		{"scheme-unknown", func(f []byte) { f[1] = 9 }},
		{"count-negative", func(f []byte) { binary.LittleEndian.PutUint32(f[4:], 1<<31) }},
		{"count-over-max", func(f []byte) { binary.LittleEndian.PutUint32(f[4:], 1<<26) }},
		{"exc-count-over-n", func(f []byte) { binary.LittleEndian.PutUint32(f[28:], 301) }},
		{"code-words-lie", func(f []byte) { binary.LittleEndian.PutUint32(f[32:], 3) }},
		{"dict-on-pfor", func(f []byte) { binary.LittleEndian.PutUint32(f[24:], 4) }},
		{"entry-exc-index-backwards", func(f []byte) {
			// Entry 1's exception index below entry 0's.
			binary.LittleEndian.PutUint32(f[44:], 1<<7)
			binary.LittleEndian.PutUint32(f[48:], 0)
		}},
		{"entry-exc-index-over-count", func(f []byte) { binary.LittleEndian.PutUint32(f[48:], 200<<7) }},
		{"patch-start-past-tail-group", func(f []byte) {
			// Last group holds 300-256=44 values; a patch start of 100 in a
			// short group points outside it.
			binary.LittleEndian.PutUint32(f[44+8:], 100|2<<7)
		}},
	}
	for _, m := range mutations {
		frame := bytes.Clone(base)
		m.mutate(frame)
		fixSegmentChecksum(frame)
		for _, p := range decodeProbes(m.name) {
			wantCorrupt(t, p.probe, mustNotPanic(t, p.probe, func() error { return p.run(frame) }))
		}
	}

	// Unfixed checksum: plain damage must be caught by the hash.
	frame := bytes.Clone(base)
	frame[50] ^= 0xFF
	for _, p := range decodeProbes("bitflip-no-checksum-fix") {
		wantCorrupt(t, p.probe, mustNotPanic(t, p.probe, func() error { return p.run(frame) }))
	}

	// Truncations at every length: typed error, never a panic.
	for cut := 0; cut < len(base); cut += 7 {
		for _, p := range decodeProbes("truncation") {
			if err := mustNotPanic(t, p.probe, func() error { return p.run(base[:cut]) }); err == nil {
				t.Fatalf("%s: %d-byte truncation accepted", p.probe, cut)
			}
		}
	}
}

// TestCraftedPatchListEscape corrupts the gap codes the patch walk trusts:
// the linked exception list then strides far past the block, and the
// recover backstop must convert the kernel fault into ErrCorruptSegment on
// every decode and filtered-scan path.
func TestCraftedPatchListEscape(t *testing.T) {
	// A one-group block of 100 values with exceptions at 0 and 10: the code
	// slot of the first exception stores the gap to the second.
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i % 100)
	}
	vals[0] = 1 << 40
	vals[10] = 1 << 41
	frame, err := zukowski.PFOR[int64]{Base: 0, Width: 8}.Encode(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	// With B=8 the first code is the first byte of the code section
	// (header 44 + one entry word = offset 48); inflating the gap to 255
	// makes the patch walk stride to position 256 — far past the 100-value
	// block.
	frame[48] = 0xFF
	fixSegmentChecksum(frame)

	codec := zukowski.PFOR[int64]{}
	err = mustNotPanic(t, "Decode", func() error { _, err := codec.Decode(nil, frame); return err })
	wantCorrupt(t, "Decode", err)
	err = mustNotPanic(t, "Get", func() error { _, err := codec.Get(frame, 0); return err })
	// Get may resolve position 0 without walking past it; any error must be
	// typed, but success is acceptable for positions before the damage.
	if err != nil {
		wantCorrupt(t, "Get", err)
	}

	// The same frame inside a ZKC2 container: every one-column Query form —
	// Run, RunAggregate, Run with workers, GroupAggregate and JoinOn — must
	// surface the fault as a typed error too. The container checksums are
	// fixed up so the CRC cannot mask the deeper corruption.
	data := containerWithFrame(t, frame, 100)
	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	cs := oneColumn(t, cr)
	ctx := context.Background()
	q := rangeQuery[int64](0, 1<<50)
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { return cs.Run(ctx, q, func(int, []int64, [][]int64) bool { return true }) }},
		{"RunAggregate", func() error { _, err := cs.RunAggregate(ctx, q, 0); return err }},
		{"ReadAll", func() error { _, err := cr.ReadAll(nil); return err }},
		{"Run/workers", func() error {
			pq := q
			pq.Workers = 2
			return cs.Run(ctx, pq, func(int, []int64, [][]int64) bool { return true })
		}},
		{"GroupAggregate", func() error {
			_, err := cs.GroupAggregate(q, []int{0}, []zukowski.AggSpec[int64]{{Kind: zukowski.AggCount}})
			return err
		}},
		{"JoinOn", func() error {
			return cs.JoinOn(q, 0, zukowski.BuildJoin([]int64{1, 2, 3}), func([]int64, []int32) bool { return true })
		}},
	} {
		wantCorrupt(t, p.name, mustNotPanic(t, p.name, p.run))
	}
}

// containerWithFrame hand-assembles a one-block ZKC2 container around an
// arbitrary frame, with both the block CRC and the directory CRC valid —
// the shape a deliberate attacker (or deep bit rot plus a recomputed
// checksum) would present.
func containerWithFrame(t *testing.T, frame []byte, count int) []byte {
	t.Helper()
	var buf bytes.Buffer
	hdr := make([]byte, 16)
	copy(hdr, "ZKC2")
	hdr[4] = 8 // elem size
	binary.LittleEndian.PutUint32(hdr[8:], uint32(count))
	buf.Write(hdr)
	buf.Write(frame)

	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	dir := make([]byte, 40)
	binary.LittleEndian.PutUint64(dir[0:], 16) // offset
	binary.LittleEndian.PutUint32(dir[8:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(dir[12:], uint32(count))
	binary.LittleEndian.PutUint32(dir[16:], crc32.Checksum(frame, castagnoli))
	// zone map spanning everything so nothing is pruned
	zmin, zmax := int64(-1)<<62, int64(1)<<62
	binary.LittleEndian.PutUint64(dir[24:], uint64(zmin))
	binary.LittleEndian.PutUint64(dir[32:], uint64(zmax))
	buf.Write(dir)

	tail := make([]byte, 24)
	binary.LittleEndian.PutUint64(tail[0:], uint64(count))
	binary.LittleEndian.PutUint32(tail[8:], 1)
	binary.LittleEndian.PutUint32(tail[12:], crc32.Checksum(dir, castagnoli))
	copy(tail[20:], "ZKE2")
	buf.Write(tail)
	return buf.Bytes()
}

// TestRetiredFrameInContainer puts a frame with the retired comparator
// magic 0xB6 into a container whose block and directory checksums are
// both valid, so the container opens and only the frame dispatch can
// refuse it: every read of the block is ErrCorruptSegment, never a panic,
// and so is a verification of it — the checksum holds, the format does
// not — and a degraded scan skips it and says so.
func TestRetiredFrameInContainer(t *testing.T) {
	frame := pforFrame(t)
	frame[0] = 0xB6
	cr, err := zukowski.OpenColumn[int64](containerWithFrame(t, frame, 300))
	if err != nil {
		t.Fatalf("OpenColumn of a checksum-valid container: %v", err)
	}
	cs := oneColumn(t, cr)
	ctx := context.Background()
	q := rangeQuery[int64](0, 1<<50)
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"ReadAll", func() error { _, err := cr.ReadAll(nil); return err }},
		{"Get", func() error { _, err := cr.Get(5); return err }},
		{"Run", func() error { return cs.Run(ctx, q, func(int, []int64, [][]int64) bool { return true }) }},
		{"DecodeFrame", func() error { _, err := zukowski.DecodeFrame[int64](nil, frame); return err }},
		{"VerifyBlock", func() error { return cr.VerifyBlock(0) }},
		{"Verify", cr.Verify},
	} {
		if err := mustNotPanic(t, p.name, p.run); !errors.Is(err, zukowski.ErrCorruptSegment) {
			t.Fatalf("%s: err = %v, want ErrCorruptSegment", p.name, err)
		}
	}
	var report zukowski.ScanReport
	dq := q
	dq.SkipCorrupt, dq.Report = true, &report
	if err := cs.Run(ctx, dq, func(int, []int64, [][]int64) bool {
		t.Fatal("a degraded Run delivered the retired block")
		return false
	}); err != nil {
		t.Fatalf("degraded Run: %v", err)
	}
	if report.BlocksSkipped != 1 || report.RowsLost != 300 || !errors.Is(report.FirstErr, zukowski.ErrCorruptSegment) {
		t.Fatalf("ScanReport = %d blocks, %d rows, %v; want the one block of 300 rows, ErrCorruptSegment",
			report.BlocksSkipped, report.RowsLost, report.FirstErr)
	}
}

// TestCraftedCountMismatch puts a frame holding fewer values than the
// directory claims into a checksum-valid container: a filtered Query must
// refuse with ErrCorruptColumn rather than emit wrong row numbers.
func TestCraftedCountMismatch(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	frame, err := zukowski.PFOR[int64]{Base: 0, Width: 8}.Encode(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	data := containerWithFrame(t, frame, 150) // directory lies: 150 values
	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	err = mustNotPanic(t, "Run", func() error {
		return oneColumn(t, cr).Run(context.Background(), rangeQuery[int64](0, 1<<40), func(int, []int64, [][]int64) bool { return true })
	})
	if !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("Run with lying directory: %v, want ErrCorruptColumn", err)
	}
}

// TestCraftedPDictCodePastDictionary packs a code past a PDICT frame's
// dictionary into a checksum-valid container. The decoders read such a
// code through the zero-padded dictionary; GroupAggregate's and JoinOn's
// code-space paths must not index past it either, and must agree with
// grouping and joining the values ReadAll decodes.
func TestCraftedPDictCodePastDictionary(t *testing.T) {
	dict := []int64{10, 20, 30}
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = dict[i%len(dict)]
	}
	frame, err := zukowski.PDict[int64]{Dict: dict, Width: 2}.Encode(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	if exc := binary.LittleEndian.Uint32(frame[28:]); exc != 0 {
		t.Fatalf("fixture frame holds %d exceptions, want none", exc)
	}
	// Rows 0-3 get code 3, one past the three-entry dictionary.
	codeOff := len(frame) - 4*int(binary.LittleEndian.Uint32(frame[32:]))
	frame[codeOff] = 0xFF
	fixSegmentChecksum(frame)
	cr, err := zukowski.OpenColumn[int64](containerWithFrame(t, frame, len(vals)))
	if err != nil {
		t.Fatal(err)
	}
	all, err := cr.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(all, 0) {
		t.Fatal("fixture: no crafted code decoded through the padded dictionary")
	}
	cs := oneColumn(t, cr)

	specs := []zukowski.AggSpec[int64]{{Kind: zukowski.AggCount}}
	var got zukowski.Grouped[int64]
	err = mustNotPanic(t, "GroupAggregate", func() (err error) {
		got, err = cs.GroupAggregate(zukowski.Query[int64]{}, []int{0}, specs)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGrouped(t, "GroupAggregate", got, groupOracle([][]int64{all}, func([][]int64, int) bool { return true }, []int{0}, specs))

	buildKeys := []int64{0, 20, 40}
	var gotProbe, wantProbe []int64
	err = mustNotPanic(t, "JoinOn", func() error {
		return cs.JoinOn(zukowski.Query[int64]{}, 0, zukowski.BuildJoin(buildKeys), func(pr []int64, _ []int32) bool {
			gotProbe = append(gotProbe, pr...)
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range all {
		for _, k := range buildKeys {
			if v == k {
				wantProbe = append(wantProbe, int64(i))
			}
		}
	}
	if !slices.Equal(gotProbe, wantProbe) {
		t.Fatalf("JoinOn probed %v, want %v", gotProbe, wantProbe)
	}
}

// --- caller panics --------------------------------------------------------

// callerPanic is what the caller-code probes below panic with.
type callerPanic struct{ where string }

// recoverCaller runs run and returns the value it panicked with (nil when
// it returned) and the error it returned.
func recoverCaller(run func() error) (r any, err error) {
	defer func() { r = recover() }()
	return nil, run()
}

// TestRunCallerPanic is the other half of the panic audit: a panic in the
// caller's code — Run's fn, sequential or across workers, JoinOn's fn, an
// AggSpec's Map — is not a decoder fault. It reaches the caller as that
// panic, exact or degraded: never an ErrCorruptSegment, never a block a
// degraded scan skips and reports lost.
func TestRunCallerPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	const n, blockValues = 8000, 500
	keys := make([]int64, n)
	base := []int64{11, 23, 35, 47}
	for i := range keys {
		keys[i] = base[rng.Intn(len(base))]
	}
	cs, err := zukowski.NewColumnSet(
		buildSelectColumn(t, zukowski.PDict[int64]{}, blockValues, keys),
		buildSelectColumn(t, zukowski.PFOR[int64]{}, blockValues, genValues[int64](rng, n)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range []struct {
		name string
		run  func(q zukowski.Query[int64]) error
	}{
		{"Run/seq", func(q zukowski.Query[int64]) error {
			return cs.Run(ctx, q, func(int, []int64, [][]int64) bool { panic(callerPanic{"Run"}) })
		}},
		{"Run/workers", func(q zukowski.Query[int64]) error {
			q.Workers = 4
			return cs.Run(ctx, q, func(int, []int64, [][]int64) bool { panic(callerPanic{"Run"}) })
		}},
		{"JoinOn", func(q zukowski.Query[int64]) error {
			return cs.JoinOn(q, 0, zukowski.BuildJoin(base), func([]int64, []int32) bool { panic(callerPanic{"JoinOn"}) })
		}},
		{"GroupAggregate/Map", func(q zukowski.Query[int64]) error {
			_, err := cs.GroupAggregate(q, []int{0}, []zukowski.AggSpec[int64]{{
				Kind: zukowski.AggSum, Cols: []int{1},
				Map: func([][]int64, int) int64 { panic(callerPanic{"Map"}) },
			}})
			return err
		}},
	} {
		for _, degraded := range []bool{false, true} {
			var rep zukowski.ScanReport
			q := zukowski.Query[int64]{Expr: zukowski.Range[int64](1, 0, 50), SkipCorrupt: degraded, Report: &rep}
			r, err := recoverCaller(func() error { return p.run(q) })
			if _, ok := r.(callerPanic); !ok {
				t.Fatalf("%s (degraded %v): recovered %v, returned %v; want the caller's panic", p.name, degraded, r, err)
			}
			if rep.BlocksSkipped != 0 || rep.RowsLost != 0 || rep.FirstErr != nil {
				t.Fatalf("%s (degraded %v): report {blocks %d, rows %d, first %v}, want empty",
					p.name, degraded, rep.BlocksSkipped, rep.RowsLost, rep.FirstErr)
			}
		}
	}
}

// TestCraftedEscapingPatchList: a CRC-valid frame whose patch list hops
// out of its group — row 0's gap code re-pointed from row 10 to row 201,
// in the next group — is ErrCorruptSegment, never a panic and never an
// answer patched from the wrong group: on a reader without a cache, whose
// kernels walk the list as far as each read needs and refuse the hop, and
// on a cached one, which indexes the block when it becomes resident and
// attaches nothing. Every read here needs group 0's list past row 0; a
// plain lookup of a row in another group never reaches the hop and
// answers, where the cached reader has refused the whole block.
func TestCraftedEscapingPatchList(t *testing.T) {
	frame := pforFrame(t)
	const codes = 44 + 4*3 // header, then one entry word per group of the 300 values
	if frame[codes] != 9 {
		t.Fatalf("row 0's gap code is %d, want 9 (the exception at row 10)", frame[codes])
	}
	frame[codes] = 200
	fixSegmentChecksum(frame)
	if _, err := zukowski.DecodeFrame[int64](nil, frame); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("DecodeFrame = %v, want ErrCorruptSegment", err)
	}
	data := containerWithFrame(t, frame, 300)
	plain, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	cache := zukowski.NewBlockLRU(1 << 20)
	cached, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)), zukowski.WithBlockCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, zukowski.ErrCorruptSegment) || !strings.Contains(err.Error(), "patch list") {
			t.Fatalf("%s = %v, want ErrCorruptSegment naming the patch list", what, err)
		}
	}
	for pass := 0; pass < 3; pass++ { // the cached reader: a miss, then hits
		for name, cr := range map[string]*zukowski.ColumnReader[int64]{"plain": plain, "cached": cached} {
			cs := oneColumn(t, cr)
			for i, q := range []zukowski.Query[int64]{
				{},
				rangeQuery[int64](0, 50),
				rangeQuery[int64](1<<40, 1<<42),
				{Expr: zukowski.And(zukowski.Range[int64](0, 0, 99), zukowski.Range[int64](0, 1<<41, 1<<41))},
			} {
				refused(fmt.Sprintf("pass %d %s query %d Run", pass, name, i), mustNotPanic(t, "Run", func() error {
					return cs.Run(ctx, q, func(int, []int64, [][]int64) bool { return true })
				}))
				refused(fmt.Sprintf("pass %d %s query %d RunAggregate", pass, name, i), mustNotPanic(t, "RunAggregate", func() error {
					_, err := cs.RunAggregate(ctx, q, 0)
					return err
				}))
			}
			for _, i := range []int{0, 10, 11, 127} {
				refused(fmt.Sprintf("pass %d %s Get(%d)", pass, name, i), mustNotPanic(t, "Get", func() error {
					_, err := cr.Get(i)
					return err
				}))
			}
		}
	}
	if resident := zukowski.ResidentParsed[int64](cache); len(resident) != 0 {
		t.Fatalf("%d parsed blocks resident, want none: a list leaving its group is not attached", len(resident))
	}
	// The offline checks walk the lists the reads walk, and a writer
	// takes no frame the reads refuse.
	refused("Verify", plain.Verify())
	refused("cached VerifyBlock", cached.VerifyBlock(0))
	info, err := plain.BlockInfo(0)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := zukowski.NewColumnWriter[int64](io.Discard, zukowski.PFOR[int64]{}, 300)
	if err != nil {
		t.Fatal(err)
	}
	refused("WriteFrame", cw.WriteFrame(frame, info))
}

// TestResidentRefusesCountMismatch: a container whose one directory entry
// says 128 values, over a frame that holds 64 with every checksum valid
// (the frame's own, the directory's entry and the directory's), is a data
// fault on every access path — offline checks, whole-block reads, scans,
// lookups, queries and the splice into another container — in memory,
// file-backed and cached, patched (PFOR) and raw. Each refusal names the
// block once, and none returns a short result.
func TestResidentRefusesCountMismatch(t *testing.T) {
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(i % 10)
	}
	vals[5] = 1 << 40
	for _, codec := range []zukowski.Codec[int64]{zukowski.PFOR[int64]{}, zukowski.None[int64]{}} {
		frame, err := codec.Encode(nil, vals)
		if err != nil {
			t.Fatal(err)
		}
		data := containerWithFrame(t, frame, 128)
		plain, err := zukowski.OpenColumn[int64](data)
		if err != nil {
			t.Fatal(err)
		}
		file, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		cached, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data)),
			zukowski.WithBlockCache(zukowski.NewBlockLRU(1<<20)))
		if err != nil {
			t.Fatal(err)
		}
		refused := func(what string, err error) {
			t.Helper()
			if !zukowski.IsDataFault(err) || strings.Count(err.Error(), "block 0") != 1 ||
				!strings.Contains(err.Error(), "holds 64 values, directory says 128") {
				t.Fatalf("%s %s = %v; want a data fault naming block 0 once and both counts", codec.Name(), what, err)
			}
		}
		ctx := context.Background()
		for pass := 0; pass < 2; pass++ { // the cached reader: a miss, then a hit
			for name, cr := range map[string]*zukowski.ColumnReader[int64]{"in memory": plain, "file": file, "cached": cached} {
				what := func(path string) string { return fmt.Sprintf("pass %d %s %s", pass, name, path) }
				refused(what("VerifyBlock"), cr.VerifyBlock(0))
				refused(what("Verify"), cr.Verify())
				got, err := mustNotPanicVals(t, func() ([]int64, error) { return cr.ReadBlock(0, nil) })
				refused(what("ReadBlock"), err)
				if len(got) != 0 {
					t.Fatalf("%s returned %d values", what("ReadBlock"), len(got))
				}
				got, err = mustNotPanicVals(t, func() ([]int64, error) { return cr.ReadAll(nil) })
				refused(what("ReadAll"), err)
				if len(got) != 0 {
					t.Fatalf("%s returned %d values", what("ReadAll"), len(got))
				}
				scanned := 0
				refused(what("Scan"), mustNotPanic(t, "Scan", func() error {
					return cr.Scan(func(v []int64) bool { scanned += len(v); return true })
				}))
				if scanned != 0 {
					t.Fatalf("%s delivered %d values", what("Scan"), scanned)
				}
				for _, i := range []int{0, 63, 64, 127} {
					refused(what(fmt.Sprintf("Get(%d)", i)), mustNotPanic(t, "Get", func() error {
						_, err := cr.Get(i)
						return err
					}))
				}
				delivered := 0
				refused(what("Run"), mustNotPanic(t, "Run", func() error {
					return oneColumn(t, cr).Run(ctx, zukowski.Query[int64]{}, func(_ int, r []int64, _ [][]int64) bool {
						delivered += len(r)
						return true
					})
				}))
				if delivered != 0 {
					t.Fatalf("%s delivered %d rows", what("Run"), delivered)
				}
				refused(what("RunAggregate"), mustNotPanic(t, "RunAggregate", func() error {
					_, err := oneColumn(t, cr).RunAggregate(ctx, zukowski.Query[int64]{}, 0)
					return err
				}))
			}
		}
		info, err := plain.BlockInfo(0)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := zukowski.NewColumnWriter[int64](io.Discard, codec, 128)
		if err != nil {
			t.Fatal(err)
		}
		err = cw.WriteFrame(frame, info)
		if !zukowski.IsDataFault(err) || !strings.Contains(err.Error(), "holds 64 values, directory says 128") {
			t.Fatalf("%s WriteFrame = %v; want a data fault naming both counts", codec.Name(), err)
		}
		if cw.NumBlocks() != 0 {
			t.Fatalf("%s WriteFrame wrote the refused frame", codec.Name())
		}
	}
}

// mustNotPanicVals is mustNotPanic for a read that returns values.
func mustNotPanicVals(t *testing.T, f func() ([]int64, error)) (vals []int64, err error) {
	t.Helper()
	err = mustNotPanic(t, "read", func() error {
		vals, err = f()
		return err
	})
	return vals, err
}
