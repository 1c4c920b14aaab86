package zukowski_test

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/experiments"
	"repro/zukowski"
)

// This file covers the write path's contracts: what Auto decides is what
// Auto.Analyze reports, the steady state allocates nothing, and the five
// value shapes of the benchmark table encode to pinned sizes.

// benchShapes draws n rows of the benchmark table's five column shapes.
func benchShapes(seed int64, n int) map[string][]int64 {
	return experiments.SynthBenchColumns(rand.New(rand.NewSource(seed)), n)
}

// assertCompressionBelowRaw fails unless the frame is smaller than the
// values stored verbatim.
func assertCompressionBelowRaw(t *testing.T, name string, frame []byte, values int) {
	t.Helper()
	if raw := 8 + values*8; len(frame) >= raw {
		t.Errorf("%s: frame of %d bytes is no smaller than the %d raw", name, len(frame), raw)
	}
}

// TestAutoEncodedSizes pins, for one fixed seed, the scheme Auto picks and
// the exact frame size per shape: the analysis may get faster, but what it
// decides — and so what is stored — may not move.
func TestAutoEncodedSizes(t *testing.T) {
	want := map[string]struct {
		scheme string
		width  uint
		bytes  int
	}{
		"k": {"PFOR-DELTA", 3, 1964},
		"a": {"PFOR", 10, 6060},
		"b": {"PFOR", 16, 11588},
		"d": {"PDICT", 6, 4212},
		"u": {"NONE", 0, 32776},
	}
	auto := zukowski.Auto[int64]{}
	for name, vals := range benchShapes(1, 4096) {
		frame, err := auto.Encode(nil, vals)
		if err != nil {
			t.Fatal(err)
		}
		st, err := auto.Stats(frame)
		if err != nil {
			t.Fatal(err)
		}
		w := want[name]
		if st.Scheme != w.scheme || st.BitWidth != w.width || len(frame) != w.bytes {
			t.Errorf("%s: encoded as %s b=%d in %d bytes, want %s b=%d in %d",
				name, st.Scheme, st.BitWidth, len(frame), w.scheme, w.width, w.bytes)
		}
		if w.scheme != "NONE" {
			assertCompressionBelowRaw(t, name, frame, len(vals))
		}
		if a := auto.Analyze(vals); a.Scheme != st.Scheme || a.Width != st.BitWidth {
			t.Errorf("%s: Analyze reports %s b=%d, Encode stored %s b=%d", name, a.Scheme, a.Width, st.Scheme, st.BitWidth)
		}
		back, err := auto.Decode(nil, frame)
		if err != nil || len(back) != len(vals) {
			t.Fatalf("%s: decode: %d values, %v", name, len(back), err)
		}
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("%s: value %d decodes to %d, want %d", name, i, back[i], vals[i])
			}
		}
	}
}

// TestAnalyzeReportsRawFallback: the model can pick a scheme on the sample
// that loses on the whole input. Beyond the sample size the analysis sees
// 64 runs of 1024 values; here those runs are constant and the seven
// eighths of the input between them are noise, so the model projects
// about a bit per value and the block comes out larger than raw. Analyze
// must say what Encode does.
func TestAnalyzeReportsRawFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 8 * 64 * 1024
	vals := make([]int8, n)
	for i := range vals {
		if i%(n/64) >= 1024 {
			vals[i] = int8(rng.Intn(256))
		}
	}
	auto := zukowski.Auto[int8]{}
	frame, err := auto.Encode(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	st, err := auto.Stats(frame)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme != "NONE" {
		t.Fatalf("Encode stored %s in %d bytes; the input was built to defeat the sample", st.Scheme, len(frame))
	}
	a := auto.Analyze(vals)
	if a.Scheme != "NONE" || a.Width != 0 || a.BitsPerValue != 8 || a.DictEntries != 0 {
		t.Fatalf("Analyze reports %+v for an input Encode stores raw", a)
	}
}

// TestColumnWriterSteadyStateAllocs pins the write path's 0 allocs/op: a
// full-block Write through the default codec, after warm-up, for each
// shape (and so each scheme the analyzer picks, raw included).
func TestColumnWriterSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is asserted in the non-race run")
	}
	const blockValues = 4096
	shapes := benchShapes(2, blockValues)
	for _, name := range experiments.BenchColumns {
		vals := shapes[name]
		cw, err := zukowski.NewColumnWriter[int64](io.Discard, nil, blockValues)
		if err != nil {
			t.Fatal(err)
		}
		write := func() {
			if err := cw.Write(vals); err != nil {
				t.Fatal(err)
			}
		}
		write() // grow the writer's buffers and the pooled encoder's scratch
		if avg := testing.AllocsPerRun(100, write); avg != 0 {
			t.Errorf("%s: %v allocs per full-block Write, want 0", name, avg)
		}
		var frame []byte
		encode := func() {
			if frame, err = (zukowski.Auto[int64]{}).Encode(frame[:0], vals); err != nil {
				t.Fatal(err)
			}
		}
		encode()
		if avg := testing.AllocsPerRun(100, encode); avg != 0 {
			t.Errorf("%s: %v allocs per Auto.Encode into a warm dst, want 0", name, avg)
		}
	}
}

// TestAutoEncodeConcurrent drives the pooled encoder state from several
// goroutines at once (run it under -race): each keeps encoding its own
// shape and must read back exactly what it wrote.
func TestAutoEncodeConcurrent(t *testing.T) {
	shapes := benchShapes(3, 2000)
	var wg sync.WaitGroup
	for _, name := range slices.Concat(experiments.BenchColumns, experiments.BenchColumns) {
		vals := shapes[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			auto := zukowski.Auto[int64]{}
			var frame []byte
			var back []int64
			for round := 0; round < 50; round++ {
				var err error
				if frame, err = auto.Encode(frame[:0], vals); err != nil {
					t.Error(err)
					return
				}
				if back, err = auto.Decode(back[:0], frame); err != nil || !slices.Equal(back, vals) {
					t.Errorf("%s: round %d does not decode to its input (%v)", name, round, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkAutoEncode times analysis, compression and serialization of one
// 4096-value block of each shape into a reused frame buffer.
func BenchmarkAutoEncode(b *testing.B) {
	shapes := benchShapes(1, 4096)
	auto := zukowski.Auto[int64]{}
	for _, name := range experiments.BenchColumns {
		vals := shapes[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(vals)) * 8)
			b.ReportAllocs()
			var frame []byte
			var err error
			for b.Loop() {
				if frame, err = auto.Encode(frame[:0], vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEncodedSizePinned pins, byte for byte, the ZKC2 container every
// registered codec writes for four seeded value shapes — sorted with
// random steps, 16-bit random, the PFOR shape at 2 % and at 10 %
// exceptions, and a constant-step sequence — in blocks of 4096. A codec
// may get faster; what it stores may not move, in either direction,
// without this table being edited in the same change. Every patched codec
// is also held to "smaller than raw" wherever the shape gives it something
// to find (PDICT needs repeats: the PFOR shapes draw from 1023 values, the
// others are all but distinct), so that the table cannot be re-pinned to a
// size that no longer compresses.
func TestEncodedSizePinned(t *testing.T) {
	const n, blockValues = 16384, 4096
	rng := rand.New(rand.NewSource(2025))
	rand16 := make([]int64, n)
	for i := range rand16 {
		rand16[i] = int64(rng.Intn(1 << 16))
	}
	monotonic := make([]int64, n)
	for i := range monotonic {
		monotonic[i] = 1000 + 7*int64(i)
	}
	shapes := []struct {
		name    string
		vals    []int64
		repeats bool
		want    map[string]int
	}{
		{"sorted", experiments.SynthSorted(rng, n, 3), false, map[string]int{
			"pfor": 29560, "pfor-delta": 8056, "pdict": 132296, "none": 131304, "auto": 8056}},
		{"rand16", rand16, false, map[string]int{
			"pfor": 33656, "pfor-delta": 36728, "pdict": 133880, "none": 131304, "auto": 33656}},
		{"pfor-2%", experiments.SynthPFOR(rng, n, 10, 0.02), true, map[string]int{
			"pfor": 24072, "pfor-delta": 29784, "pdict": 56064, "none": 131304, "auto": 24072}},
		{"pfor-10%", experiments.SynthPFOR(rng, n, 10, 0.10), true, map[string]int{
			"pfor": 34784, "pfor-delta": 49864, "pdict": 66608, "none": 131304, "auto": 34784}},
		{"monotonic", monotonic, false, map[string]int{
			"pfor": 31608, "pfor-delta": 3960, "pdict": 134008, "none": 131304, "auto": 3960}},
	}
	for _, sh := range shapes {
		for _, name := range zukowski.Codecs() {
			codec, err := zukowski.Lookup[int64](name)
			if err != nil {
				continue // a test's own codec, registered for another element type
			}
			want, pinned := sh.want[name]
			if !pinned {
				t.Errorf("%s: codec %q is registered but has no pinned size", sh.name, name)
				continue
			}
			var buf bytes.Buffer
			cw, err := zukowski.NewColumnWriter(&buf, codec, blockValues)
			if err != nil {
				t.Fatal(err)
			}
			if err = cw.Write(sh.vals); err == nil {
				err = cw.Close()
			}
			if err != nil {
				t.Errorf("%s/%s: %v", sh.name, name, err)
				continue
			}
			if buf.Len() != want {
				t.Errorf("%s/%s: container of %d bytes, pinned at %d", sh.name, name, buf.Len(), want)
			}
			if name == "pfor" || name == "pfor-delta" || name == "auto" || (name == "pdict" && sh.repeats) {
				assertCompressionBelowRaw(t, sh.name+"/"+name, buf.Bytes(), n)
			}
		}
	}
}
