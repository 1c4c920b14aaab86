// Command codecbench prints one table for a dataset: every registered
// codec's compression ratio, encode and decode bandwidth, point-Get
// latency and zone-map skip rate through the public column container. The
// dataset is any raw little-endian binary file of fixed-width integers, or
// a synthetic distribution from the experiments package.
//
// It answers "which codec for this column?". How fast the system is end to
// end and per layer is bench/run.sh's question (see BENCHMARK.json), and
// scan paths are timed by the go test -bench benchmarks of each package.
//
// Examples:
//
//	codecbench -synth sorted -n 1048576
//	codecbench -input keys.bin -t uint32
//	codecbench -synth pfor -codecs pfor,pdict,none -blocksize 4096
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"repro/experiments"
	"repro/zukowski"
)

var (
	input       = flag.String("input", "", "raw little-endian binary file of -t values (empty: use -synth)")
	synth       = flag.String("synth", "sorted", "synthetic distribution when -input is empty: pfor|dict|sorted")
	numValues   = flag.Int("n", 1<<20, "synthetic value count")
	seed        = flag.Int64("seed", 1, "synthetic data seed")
	elem        = flag.String("t", "int64", "element type: int8|int16|int32|int64|uint8|uint16|uint32|uint64")
	codecNames  = flag.String("codecs", "", "comma-separated codec subset (empty: all registered)")
	blockValues = flag.Int("blocksize", zukowski.DefaultBlockValues, "column block size in values")
)

// result holds one codec's row of the table. A codec that cannot encode
// the dataset, or a -codecs name the registry does not hold, reports err.
type result struct {
	codec      string
	err        error
	ratio      float64
	encodeMBps float64
	decodeMBps float64
	getNanos   float64
	skipRate   float64
}

// bestOf returns the fastest mean seconds per call of f over five rounds
// of at least 100 ms each. Scheduler and neighbor noise only ever slow a
// round down, so the minimum is the steadiest estimate on a shared box.
func bestOf(f func()) float64 {
	best := experiments.TimeIt(100*time.Millisecond, f)
	for i := 1; i < 5; i++ {
		best = min(best, experiments.TimeIt(100*time.Millisecond, f))
	}
	return best
}

func main() {
	flag.Parse()
	switch *elem {
	case "int8":
		run[int8]()
	case "int16":
		run[int16]()
	case "int32":
		run[int32]()
	case "int64":
		run[int64]()
	case "uint8":
		run[uint8]()
	case "uint16":
		run[uint16]()
	case "uint32":
		run[uint32]()
	case "uint64":
		run[uint64]()
	default:
		log.Fatalf("unknown element type %q", *elem)
	}
}

// loadValues produces the dataset in the requested element type.
func loadValues[T zukowski.Integer]() ([]T, string) {
	if *input != "" {
		raw, err := os.ReadFile(*input)
		if err != nil {
			log.Fatal(err)
		}
		var zero T
		width := binary.Size(zero)
		vals := make([]T, len(raw)/width)
		for i := range vals {
			var bits uint64
			for b := width - 1; b >= 0; b-- {
				bits = bits<<8 | uint64(raw[i*width+b])
			}
			vals[i] = T(bits)
		}
		return vals, *input
	}
	rng := rand.New(rand.NewSource(*seed))
	var canonical []int64
	switch *synth {
	case "pfor":
		canonical = experiments.SynthPFOR(rng, *numValues, 10, 0.02)
	case "dict":
		canonical, _ = experiments.SynthDict(rng, *numValues, 8, 0.01)
	case "sorted":
		canonical = experiments.SynthSorted(rng, *numValues, 3)
	default:
		log.Fatalf("unknown synthetic distribution %q", *synth)
	}
	vals := make([]T, len(canonical))
	for i, v := range canonical {
		vals[i] = T(v)
	}
	return vals, "synth:" + *synth
}

func run[T zukowski.Integer]() {
	vals, source := loadValues[T]()
	if len(vals) == 0 {
		log.Fatal("empty dataset")
	}
	// The range of the zone-map measurement: the values between the 45th
	// and 55th percentile, a predicate selecting ~10% of the data. On
	// sorted or clustered columns the zone maps confine that to a fraction
	// of the blocks; on uniform data they cannot prune.
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	lo, hi := sorted[len(sorted)*45/100], sorted[len(sorted)*55/100]

	names := zukowski.Codecs()
	if *codecNames != "" {
		names = strings.Split(*codecNames, ",")
	}
	fmt.Printf("codecbench: %s, %d %s values, blocks of %d\n\n", source, len(vals), *elem, *blockValues)
	fmt.Printf("%-12s %10s %12s %12s %10s %10s\n", "codec", "ratio", "enc MB/s", "dec MB/s", "get ns", "zm skip")
	for _, name := range names {
		r := benchCodec(name, vals, lo, hi)
		if r.err != nil {
			fmt.Printf("%-12s %v\n", r.codec, r.err)
			continue
		}
		fmt.Printf("%-12s %10.2f %12.0f %12.0f %10.1f %9.0f%%\n",
			r.codec, r.ratio, r.encodeMBps, r.decodeMBps, r.getNanos, r.skipRate*100)
	}
}

func benchCodec[T zukowski.Integer](name string, vals []T, lo, hi T) result {
	res := result{codec: name}
	codec, err := zukowski.Lookup[T](name)
	if err != nil {
		res.err = err
		return res
	}
	build := func(w io.Writer) error {
		cw, err := zukowski.NewColumnWriter(w, codec, *blockValues)
		if err != nil {
			return err
		}
		if err := cw.Write(vals); err != nil {
			return err
		}
		return cw.Close()
	}
	var buf bytes.Buffer
	if res.err = build(&buf); res.err != nil {
		return res
	}
	cr, err := zukowski.OpenColumn[T](buf.Bytes())
	if err != nil {
		res.err = err
		return res
	}
	rawBytes := cr.UncompressedBytes()
	res.ratio = cr.Ratio()
	if blocks := cr.NumBlocks(); blocks > 0 {
		// The zone-map skip rate is the share of blocks a one-column Query
		// over [lo, hi] prunes without reading them.
		cs, err := zukowski.NewColumnSet(cr)
		if err != nil {
			res.err = err
			return res
		}
		q := zukowski.Query[T]{Expr: zukowski.Range(0, lo, hi)}
		pruned, err := cs.Candidates(context.Background(), q, func(zukowski.Candidate[T]) bool { return true })
		if err != nil {
			res.err = err
			return res
		}
		res.skipRate = float64(pruned) / float64(blocks)
	}

	res.encodeMBps = experiments.MBps(rawBytes, bestOf(func() {
		if err := build(io.Discard); err != nil {
			log.Fatalf("%s: encode: %v", name, err)
		}
	}))

	var dst []T
	res.decodeMBps = experiments.MBps(rawBytes, bestOf(func() {
		out, err := cr.ReadAll(dst[:0])
		if err != nil {
			log.Fatalf("%s: decode: %v", name, err)
		}
		dst = out
	}))

	rng := rand.New(rand.NewSource(*seed + 17))
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = rng.Intn(len(vals))
	}
	var sink T
	secs := bestOf(func() {
		for _, i := range idx {
			v, err := cr.Get(i)
			if err != nil {
				log.Fatalf("%s: get: %v", name, err)
			}
			sink += v
		}
	})
	_ = sink
	res.getNanos = secs / float64(len(idx)) * 1e9
	return res
}
