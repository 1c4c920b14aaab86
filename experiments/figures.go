package experiments

import (
	"io"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/simcpu"
	"repro/internal/tpch"
)

// Budget is the per-measurement timing budget; raise it for steadier
// numbers, lower it for quick runs.
var Budget = 100 * time.Millisecond

// Fig2 reproduces Figure 2: compression ratio, compression speed and
// decompression speed of the byte-stream compressors versus PFOR on four
// TPC-H lineitem columns. DEFLATE stands in for zlib (the same algorithm)
// and the semi-static Huffman coder for bzip2, whose Burrows-Wheeler
// stage Go's standard library cannot compress with (compress/bzip2 only
// decompresses).
func Fig2(w io.Writer, sf float64) {
	ds := tpch.Generate(sf, 1)
	li := ds.Rel(tpch.Lineitem)
	columns := []string{"l_orderkey", "l_linenumber", "l_commitdate", "l_extendedprice"}

	tbl := report.NewTable("Figure 2: compression algorithms on TPC-H columns",
		"column", "codec", "ratio", "comp MB/s", "dec MB/s")
	codecs := []baseline.ByteCodec{baseline.Flate{}, baseline.Huffman{}, baseline.LZRW1{}, baseline.LZW{}}

	for _, colName := range columns {
		vals := li.Column(colName)
		raw := int64sToBytes(vals)

		for _, codec := range codecs {
			enc := codec.Compress(nil, raw)
			compSecs := TimeIt(Budget, func() { codec.Compress(enc[:0], raw) })
			decBuf, err := codec.Decompress(nil, enc)
			if err != nil {
				panic(err)
			}
			decSecs := TimeIt(Budget, func() { codec.Decompress(decBuf[:0], enc) })
			tbl.Row(colName, codec.Name(),
				float64(len(raw))/float64(len(enc)),
				MBps(len(raw), compSecs), MBps(len(raw), decSecs))
		}

		// PFOR family at analyzer-chosen parameters.
		choice := core.Choose(core.Sample(vals, core.DefaultSampleSize))
		if choice.Scheme == core.SchemeNone {
			choice = core.AnalyzePFOR(vals)
		}
		blk := choice.Compress(vals)
		compSecs := TimeIt(Budget, func() { choice.Compress(vals) })
		var d DecompressOnce
		d.Run(blk)
		decSecs := TimeIt(Budget, func() { d.Run(blk) })
		tbl.Row(colName, choice.Scheme.String(),
			float64(len(raw))/float64(blk.CompressedBytes()),
			MBps(len(raw), compSecs), MBps(len(raw), decSecs))
	}
	tbl.Print(w)
}

// Fig4 reproduces Figure 4: decompression bandwidth (measured) and branch
// miss rate (simulated) as a function of the exception rate, for the NAIVE
// escape scheme versus patched PFOR and PDICT.
func Fig4(w io.Writer, n int) {
	rng := rand.New(rand.NewSource(4))
	s := report.NewSeries("Figure 4: decompression vs exception rate",
		"exc_rate", "NAIVE MB/s", "PFOR MB/s", "PDICT MB/s", "NAIVE miss%", "PFOR miss%")
	raw := make([]uint32, n)
	out := make([]int64, n)
	var d core.Decoder[int64]

	for _, rate := range []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0} {
		vals := SynthPFOR(rng, n, 8, rate)
		nb := core.CompressNaive(vals, 0, 8)
		pb := core.CompressPFOR(vals, 0, 8)
		dvals, dict := SynthDict(rng, n, 8, rate)
		db := core.CompressPDict(dvals, dict, 8)

		naiveSecs := TimeIt(Budget, func() { nb.Decompress(raw, out) })
		pforSecs := TimeIt(Budget, func() { d.Decompress(pb, out) })
		pdictSecs := TimeIt(Budget, func() { d.Decompress(db, out) })

		bytes := 8 * n
		s.Point(rate,
			MBps(bytes, naiveSecs), MBps(bytes, pforSecs), MBps(bytes, pdictSecs),
			100*simcpu.ReplayNaiveDecompress(nb).MissRate(),
			100*simcpu.ReplayPatchedDecompress(pb).MissRate())
	}
	s.Print(w)
}

// Fig5 reproduces Figure 5: compression bandwidth as a function of the
// exception rate for the branchy (NAIVE), predicated (PRED) and
// double-cursor (DC) detection loops, plus their simulated branch miss
// rates.
func Fig5(w io.Writer, n int) {
	rng := rand.New(rand.NewSource(5))
	s := report.NewSeries("Figure 5: compression vs exception rate",
		"exc_rate", "NAIVE MB/s", "PRED MB/s", "DC MB/s", "NAIVE miss%", "PRED miss%")

	for _, rate := range []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0} {
		vals := SynthPFOR(rng, n, 8, rate)
		naiveSecs := TimeIt(Budget, func() { core.CompressPFORNaive(vals, 0, 8) })
		predSecs := TimeIt(Budget, func() { core.CompressPFORPred(vals, 0, 8) })
		dcSecs := TimeIt(Budget, func() { core.CompressPFOR(vals, 0, 8) })

		flags := make([]bool, n)
		window := int64(1) << 8
		for i, v := range vals {
			flags[i] = v >= window
		}
		bytes := 8 * n
		s.Point(rate,
			MBps(bytes, naiveSecs), MBps(bytes, predSecs), MBps(bytes, dcSecs),
			100*simcpu.ReplayNaiveCompress(flags).MissRate(),
			100*simcpu.ReplayPredicatedCompress(n).MissRate())
	}
	s.Print(w)
}

// Fig6 reproduces Figure 6: the effective exception rate E' as a function
// of the data exception rate E for small bit widths — both the analytic
// curve and the rate actually measured from the compressor.
func Fig6(w io.Writer, n int) {
	rng := rand.New(rand.NewSource(6))
	s := report.NewSeries("Figure 6: compulsory exceptions",
		"E", "E'(b=1)", "E'(b=2)", "E'(b=3)", "E'(b=4)", "measured(b=2)")

	for _, e := range []float64{0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3} {
		vals := SynthPFOR(rng, n, 2, e)
		blk := core.CompressPFOR(vals, 0, 2)
		s.Point(e,
			core.CompulsoryExceptionRate(e, 1),
			core.CompulsoryExceptionRate(e, 2),
			core.CompulsoryExceptionRate(e, 3),
			core.CompulsoryExceptionRate(e, 4),
			blk.ExceptionRate())
	}
	s.Print(w)
}

// Fig7 reproduces Figure 7: I/O-RAM (page-wise) versus RAM-CPU cache
// (vector-wise) PFOR decompression — measured wall-clock bandwidth plus
// the simulated L2 miss rates of the two traffic patterns.
func Fig7(w io.Writer, pageValues int) {
	rng := rand.New(rand.NewSource(7))
	s := report.NewSeries("Figure 7: I/O-RAM vs RAM-CPU cache decompression",
		"exc_rate", "page-wise MB/s", "vector-wise MB/s", "pw L2miss%", "vw L2miss%")

	const vector = 8192 // values per vector: 64KB of int64, cache resident
	pageOut := make([]int64, pageValues)
	vecOut := make([]int64, vector)
	sink := int64(0)
	var d core.Decoder[int64]

	for _, rate := range []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0} {
		vals := SynthPFOR(rng, pageValues, 8, rate)
		// One block per vector so both modes decode identical units.
		var blocks []*core.Block[int64]
		for lo := 0; lo < pageValues; lo += vector {
			blocks = append(blocks, core.CompressPFOR(vals[lo:min(lo+vector, pageValues)], 0, 8))
		}

		// Page-wise: decompress the whole page into a RAM-sized buffer,
		// then the "query" reads it back from RAM.
		pwSecs := TimeIt(Budget, func() {
			for i, blk := range blocks {
				d.Decompress(blk, pageOut[i*vector:i*vector+blk.N])
			}
			for _, v := range pageOut {
				sink += v
			}
		})
		// Vector-wise: decompress one cache-resident vector at a time and
		// consume it immediately.
		vwSecs := TimeIt(Budget, func() {
			for _, blk := range blocks {
				d.Decompress(blk, vecOut[:blk.N])
				for _, v := range vecOut[:blk.N] {
					sink += v
				}
			}
		})

		compBytes := 0
		for _, blk := range blocks {
			compBytes += blk.CompressedBytes()
		}
		ratio := float64(8*pageValues) / float64(compBytes)
		pw := simcpu.ReplayPagewiseDecompress(simcpu.NewHierarchy(), 8*pageValues, ratio)
		vw := simcpu.ReplayVectorwiseDecompress(simcpu.NewHierarchy(), 8*pageValues, 8*vector, ratio)

		bytes := 8 * pageValues
		s.Point(rate, MBps(bytes, pwSecs), MBps(bytes, vwSecs),
			100*pw.L2MissRate(), 100*vw.L2MissRate())
	}
	s.Print(w)
	_ = sink
}

func int64sToBytes(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		u := uint64(v)
		for k := 0; k < 8; k++ {
			out[8*i+k] = byte(u >> (8 * k))
		}
	}
	return out
}
