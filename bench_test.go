// Benchmarks, one family per table/figure of the paper's evaluation.
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The cmd/ harnesses print the corresponding tables/series; these benches
// expose the same kernels to `go test -bench` tooling. Bandwidth claims are
// reported via b.SetBytes, so the MB/s column is directly comparable to the
// paper's numbers.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/experiments"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/invfile"
	"repro/internal/tpch"
)

// --- Figure 2: compression algorithms on TPC-H columns --------------------

func BenchmarkFig2(b *testing.B) {
	ds := tpch.Generate(0.01, 1)
	li := ds.Rel(tpch.Lineitem)
	codecs := []baseline.ByteCodec{baseline.Flate{}, baseline.Huffman{}, baseline.LZRW1{}, baseline.LZW{}}

	for _, col := range []string{"l_orderkey", "l_linenumber", "l_commitdate", "l_extendedprice"} {
		vals := li.Column(col)
		raw := make([]byte, 8*len(vals))
		for i, v := range vals {
			u := uint64(v)
			for k := 0; k < 8; k++ {
				raw[8*i+k] = byte(u >> (8 * k))
			}
		}
		for _, codec := range codecs {
			enc := codec.Compress(nil, raw)
			b.Run(fmt.Sprintf("%s/%s/compress", col, codec.Name()), func(b *testing.B) {
				b.SetBytes(int64(len(raw)))
				for i := 0; i < b.N; i++ {
					codec.Compress(enc[:0], raw)
				}
			})
			dec, _ := codec.Decompress(nil, enc)
			b.Run(fmt.Sprintf("%s/%s/decompress", col, codec.Name()), func(b *testing.B) {
				b.SetBytes(int64(len(raw)))
				for i := 0; i < b.N; i++ {
					if _, err := codec.Decompress(dec[:0], enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		choice := core.Choose(core.Sample(vals, core.DefaultSampleSize))
		if choice.Scheme == core.SchemeNone {
			choice = core.AnalyzePFOR(vals)
		}
		blk := choice.Compress(vals)
		b.Run(fmt.Sprintf("%s/%s/compress", col, choice.Scheme), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				choice.Compress(vals)
			}
		})
		out := make([]int64, len(vals))
		var d core.Decoder[int64]
		b.Run(fmt.Sprintf("%s/%s/decompress", col, choice.Scheme), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				d.Decompress(blk, out)
			}
		})
	}
}

// --- Figure 4: decompression bandwidth vs exception rate -------------------

func BenchmarkFig4Decompress(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n = 1 << 20
	raw := make([]uint32, n)
	out := make([]int64, n)
	var d core.Decoder[int64]

	for _, rate := range []float64{0, 0.1, 0.3, 0.5, 1.0} {
		vals := experiments.SynthPFOR(rng, n, 8, rate)
		nb := core.CompressNaive(vals, 0, 8)
		pb := core.CompressPFOR(vals, 0, 8)
		dvals, dict := experiments.SynthDict(rng, n, 8, rate)
		db := core.CompressPDict(dvals, dict, 8)

		b.Run(fmt.Sprintf("NAIVE/exc=%.1f", rate), func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				nb.Decompress(raw, out)
			}
		})
		b.Run(fmt.Sprintf("PFOR/exc=%.1f", rate), func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				d.Decompress(pb, out)
			}
		})
		b.Run(fmt.Sprintf("PDICT/exc=%.1f", rate), func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				d.Decompress(db, out)
			}
		})
	}
}

// --- Figure 5: compression bandwidth: NAIVE vs PRED vs DC, and with analysis

func BenchmarkFig5Compress(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 1 << 20
	for _, rate := range []float64{0, 0.1, 0.3, 0.5} {
		vals := experiments.SynthPFOR(rng, n, 8, rate)
		for name, f := range map[string]func([]int64, int64, uint) *core.Block[int64]{
			"NAIVE": core.CompressPFORNaive[int64],
			"PRED":  core.CompressPFORPred[int64],
			"DC":    core.CompressPFOR[int64],
		} {
			b.Run(fmt.Sprintf("%s/exc=%.1f", name, rate), func(b *testing.B) {
				b.SetBytes(8 * n)
				for i := 0; i < b.N; i++ {
					f(vals, 0, 8)
				}
			})
		}
		// What a writer pays per block when nobody hands it (base, b): the
		// compression-mode analysis of a sample, then DC compression with
		// what it chose, both out of one reused Encoder.
		b.Run(fmt.Sprintf("AUTO/exc=%.1f", rate), func(b *testing.B) {
			b.SetBytes(8 * n)
			b.ReportAllocs()
			var e core.Encoder[int64]
			for i := 0; i < b.N; i++ {
				e.Compress(e.Analyze(vals), vals)
			}
		})
	}
}

// --- Figure 6: small-width compression with compulsory exceptions ----------

func BenchmarkFig6CompulsoryExceptions(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const n = 1 << 20
	for _, width := range []uint{1, 2, 3, 4} {
		vals := experiments.SynthPFOR(rng, n, width, 0.05)
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				core.CompressPFOR(vals, 0, width)
			}
		})
	}
}

// --- Figure 7: page-wise vs vector-wise decompression ----------------------

func BenchmarkFig7(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const pageValues = 1 << 21
	const vector = 8192
	vals := experiments.SynthPFOR(rng, pageValues, 8, 0.05)
	var blocks []*core.Block[int64]
	for lo := 0; lo < pageValues; lo += vector {
		blocks = append(blocks, core.CompressPFOR(vals[lo:lo+vector], 0, 8))
	}
	pageOut := make([]int64, pageValues)
	vecOut := make([]int64, vector)
	var d core.Decoder[int64]
	sink := int64(0)

	b.Run("page-wise", func(b *testing.B) {
		b.SetBytes(8 * pageValues)
		for i := 0; i < b.N; i++ {
			for k, blk := range blocks {
				d.Decompress(blk, pageOut[k*vector:k*vector+blk.N])
			}
			for _, v := range pageOut {
				sink += v
			}
		}
	})
	b.Run("vector-wise", func(b *testing.B) {
		b.SetBytes(8 * pageValues)
		for i := 0; i < b.N; i++ {
			for _, blk := range blocks {
				d.Decompress(blk, vecOut[:blk.N])
				for _, v := range vecOut[:blk.N] {
					sink += v
				}
			}
		}
	})
	_ = sink
}

// --- Table 2: TPC-H queries on compressed vs uncompressed DSM --------------

func BenchmarkTable2Queries(b *testing.B) {
	compressed := experiments.BuildTPCH(0.01, tpch.DSM, true, experiments.LowEndRAID)
	uncompressed := experiments.BuildTPCH(0.01, tpch.DSM, false, experiments.LowEndRAID)
	for _, q := range tpch.QueryOrder {
		b.Run("Q"+q+"/compressed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				compressed.RunQuery(q, 1<<30, tpch.VectorWise)
			}
		})
		b.Run("Q"+q+"/uncompressed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				uncompressed.RunQuery(q, 1<<30, tpch.VectorWise)
			}
		})
	}
}

// --- Table 3: page-wise vs vector-wise on Q3/4/6/18 -------------------------

func BenchmarkTable3Modes(b *testing.B) {
	cfg := experiments.BuildTPCH(0.01, tpch.DSM, true, experiments.MidEndRAID)
	for _, q := range []string{"03", "04", "06", "18"} {
		for _, mode := range []tpch.Mode{tpch.PageWise, tpch.VectorWise} {
			b.Run("Q"+q+"/"+mode.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg.RunQuery(q, 1<<30, mode)
				}
			})
		}
	}
}

// --- Table 4: inverted-file codecs ------------------------------------------

func BenchmarkTable4(b *testing.B) {
	p := invfile.Profiles[1] // TREC fbis
	p.Postings = 300_000
	c := invfile.Synthesize(p, 6)
	gaps := c.AllGaps()
	unc := int64(c.UncompressedBytes())

	stream := invfile.Stream(c)
	choices := invfile.AnalyzeBlocks(stream, 1<<16)
	blocks, _ := invfile.CompressStream(stream, choices, 1<<16)
	out := make([]uint32, c.TotalPostings())

	b.Run("PFOR-DELTA/compress", func(b *testing.B) {
		b.SetBytes(unc)
		for i := 0; i < b.N; i++ {
			invfile.CompressStream(stream, choices, 1<<16)
		}
	})
	b.Run("PFOR-DELTA/decompress", func(b *testing.B) {
		b.SetBytes(unc)
		for i := 0; i < b.N; i++ {
			invfile.DecompressPFORDelta(blocks, out)
		}
	})

	for _, codec := range []baseline.IntCodec{baseline.Carryover12{}, baseline.GapHuffman{}, baseline.VByte{}} {
		enc := codec.Encode(nil, gaps)
		gout := make([]uint32, 0, len(gaps))
		b.Run(codec.Name()+"/compress", func(b *testing.B) {
			b.SetBytes(unc)
			for i := 0; i < b.N; i++ {
				codec.Encode(enc[:0], gaps)
			}
		})
		b.Run(codec.Name()+"/decompress", func(b *testing.B) {
			b.SetBytes(unc)
			for i := 0; i < b.N; i++ {
				if _, _, err := codec.Decode(gout[:0], enc, len(gaps)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Section 5: retrieval query bandwidth ------------------------------------

func BenchmarkSection5Query(b *testing.B) {
	p := invfile.Profiles[1]
	p.Postings = 300_000
	c := invfile.Synthesize(p, 8)
	docs := invfile.NewDocTable(p.NumDocs)
	list := &c.Lists[0]
	for i := range c.Lists {
		if len(c.Lists[i].DocIDs) > len(list.DocIDs) {
			list = &c.Lists[i]
		}
	}
	prepared := invfile.Prepare(list)
	b.SetBytes(int64(4 * len(list.DocIDs)))
	for i := 0; i < b.N; i++ {
		invfile.TopNDocsPrepared(prepared, docs, 20)
	}
}

// --- Fine-grained access (Section 3.1) ----------------------------------------

func BenchmarkFineGrainedGet(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n = 1 << 20
	for _, rate := range []float64{0, 0.05, 0.3} {
		vals := experiments.SynthPFOR(rng, n, 8, rate)
		blk := core.CompressPFOR(vals, 0, 8)
		var d core.Decoder[int64]
		idx := make([]int, 4096)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		b.Run(fmt.Sprintf("exc=%.2f", rate), func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += d.Get(blk, idx[i&4095])
			}
			_ = sink
		})
	}
}
