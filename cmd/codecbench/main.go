// Command codecbench benchmarks every registered codec through the public
// column container: compression ratio, encode and decode bandwidth,
// point-Get latency, and the zone-map skip rate of a selective ScanWhere.
// It reads any raw little-endian binary file of fixed-width integers, or
// generates a synthetic distribution from the experiments package, and
// emits a text table or a JSON report.
//
// The JSON report doubles as a CI perf gate: pass -baseline to compare the
// current run against a checked-in report and exit non-zero when the
// compression ratio or the encode, decode or scan bandwidth of any codec
// regresses by more than -tolerance (default 20%).
//
// Examples:
//
//	codecbench -synth sorted -n 1048576 -format json -o report.json
//	codecbench -input keys.bin -t uint32
//	codecbench -synth sorted -format json -baseline bench_baseline.json
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/experiments"
	"repro/zukowski"
)

// Report is the stable JSON schema the CI gate consumes.
type Report struct {
	CreatedAt   string `json:"created_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Source      string `json:"source"`
	ElemType    string `json:"elem_type"`
	NumValues   int    `json:"num_values"`
	BlockValues int    `json:"block_values"`
	// MemMBps is a raw memory-read bandwidth calibration measured in the
	// same process. The perf gate compares decode bandwidths after
	// normalizing by it, so a slower or throttled CI runner does not read
	// as a code regression.
	MemMBps float64 `json:"mem_mbps"`
	// Workers and NumCPU describe the parallel-scan measurement: Workers
	// is the -workers flag (0 when the mode is off), NumCPU the runner's
	// logical CPU count. The gate only compares parallel bandwidths
	// between runs that used the same worker count.
	Workers int `json:"workers,omitempty"`
	NumCPU  int `json:"num_cpu,omitempty"`
	// Cols is the -cols flag: the column count of the conjunctive
	// multi-column sweep (0 or 1 when the mode is off).
	Cols    int           `json:"cols,omitempty"`
	Results []CodecResult `json:"results"`
}

// CodecResult holds one codec's measurements. A codec that cannot encode
// the dataset (e.g. vbyte over values outside its domain) reports Error
// and is excluded from gating.
type CodecResult struct {
	Codec           string  `json:"codec"`
	Error           string  `json:"error,omitempty"`
	CompressedBytes int     `json:"compressed_bytes,omitempty"`
	Ratio           float64 `json:"ratio,omitempty"`
	EncodeMBps      float64 `json:"encode_mbps,omitempty"`
	DecodeMBps      float64 `json:"decode_mbps,omitempty"`
	GetNanos        float64 `json:"get_ns,omitempty"`
	TotalBlocks     int     `json:"total_blocks,omitempty"`
	CandidateBlocks int     `json:"candidate_blocks,omitempty"`
	ZoneMapSkipRate float64 `json:"zone_map_skip_rate"`
	// ScanMBps is the one-worker ParallelScan bandwidth (the sequential
	// block loop); ParallelScanMBps the bandwidth at -workers workers;
	// ParallelSpeedup their quotient. Only measured when -workers > 1.
	ScanMBps         float64 `json:"scan_mbps,omitempty"`
	ParallelScanMBps float64 `json:"parallel_scan_mbps,omitempty"`
	ParallelSpeedup  float64 `json:"parallel_speedup,omitempty"`
	// FilteredScans holds the -selectivity sweep: one entry per requested
	// selectivity point.
	FilteredScans []FilteredScanResult `json:"filtered_scans,omitempty"`
	// ConjunctiveScans holds the multi-column -cols sweep: one entry per
	// requested selectivity point, measured over a ColumnSet of -cols
	// same-codec columns.
	ConjunctiveScans []ConjunctiveScanResult `json:"conjunctive_scans,omitempty"`
	// DisjunctiveScans holds the -or sweep: one entry per requested
	// selectivity point, a two-branch OR over the first two columns of
	// the -cols set evaluated through the expression tree.
	DisjunctiveScans []DisjunctiveScanResult `json:"disjunctive_scans,omitempty"`
}

// ConjunctiveScanResult measures one point of the multi-column sweep: a
// conjunction of per-column range predicates whose combined selectivity
// targets ~Selectivity, evaluated the decode-then-filter way (every
// candidate block of every column decoded, the conjunction re-applied row
// by row in the caller) and the selection-vector way (ColumnSet.Run:
// bitmap per predicate, AND before materialization).
type ConjunctiveScanResult struct {
	Cols int `json:"cols"`
	// Selectivity is the requested combined fraction; each column gets a
	// window of selectivity Selectivity^(1/Cols). ActualSelectivity is the
	// fraction the conjunction really selects.
	Selectivity       float64 `json:"selectivity"`
	ActualSelectivity float64 `json:"actual_selectivity"`
	Matched           int     `json:"matched"`
	// Bandwidths are raw-data MB/s over all columns per pass.
	OracleMBps          float64 `json:"oracle_mbps"`
	ScanAllMBps         float64 `json:"scan_all_mbps"`
	ParallelScanAllMBps float64 `json:"parallel_scan_all_mbps,omitempty"`
	AggregateAllMBps    float64 `json:"aggregate_all_mbps"`
	// Speedup is ScanAllMBps / OracleMBps.
	Speedup float64 `json:"speedup"`
}

// DisjunctiveScanResult measures one point of the OR sweep: a two-branch
// disjunction Or(Range(col0), Range(col1)) whose combined selectivity
// targets ~Selectivity (each branch gets a centered window of ~half on
// its own column), evaluated the decode-then-filter way (every block at
// least one branch's zone map admits is fully decoded on both columns,
// the disjunction re-applied row by row in the caller) and the
// expression-tree way (Run with an Or expression: mask per branch,
// UnionMask in the compressed domain, both columns materialized only at
// surviving rows).
type DisjunctiveScanResult struct {
	Cols int `json:"cols"`
	// Selectivity is the requested combined fraction; ActualSelectivity
	// the fraction the disjunction really selects.
	Selectivity       float64 `json:"selectivity"`
	ActualSelectivity float64 `json:"actual_selectivity"`
	Matched           int     `json:"matched"`
	// Bandwidths are raw-data MB/s over the two scanned columns per pass.
	OracleMBps    float64 `json:"oracle_mbps"`
	OrScanMBps    float64 `json:"or_scan_mbps"`
	AggregateMBps float64 `json:"aggregate_mbps"`
	// Speedup is OrScanMBps / OracleMBps — a within-run ratio, so it
	// needs no memory-bandwidth normalization.
	Speedup float64 `json:"speedup"`
}

// FilteredScanResult measures one selectivity point of the filtered-scan
// sweep: a centered value-range predicate selecting ~Selectivity of the
// data, evaluated the pre-PR-4 way (ScanWhere: decode every candidate
// block, re-apply the predicate and materialize matching rows+values in
// the caller) and the compressed-domain way (ScanSelect / AggregateWhere).
type FilteredScanResult struct {
	// Selectivity is the requested fraction; ActualSelectivity the fraction
	// the chosen [lo, hi] window really selects (duplicates at the window
	// edges can widen it).
	Selectivity       float64 `json:"selectivity"`
	ActualSelectivity float64 `json:"actual_selectivity"`
	Matched           int     `json:"matched"`
	// Bandwidths are raw-data MB/s over the whole column per pass.
	ScanWhereMBps  float64 `json:"scan_where_mbps"`
	ScanSelectMBps float64 `json:"scan_select_mbps"`
	AggregateMBps  float64 `json:"aggregate_mbps"`
	// SelectSpeedup is ScanSelectMBps / ScanWhereMBps.
	SelectSpeedup float64 `json:"select_speedup"`
	// MatchedPerSec is matched values per second through ScanSelect.
	MatchedPerSec float64 `json:"matched_per_sec"`
}

var (
	input       = flag.String("input", "", "raw little-endian binary file of -t values (empty: use -synth)")
	synth       = flag.String("synth", "sorted", "synthetic distribution when -input is empty: pfor|dict|sorted")
	numValues   = flag.Int("n", 1<<20, "synthetic value count")
	seed        = flag.Int64("seed", 1, "synthetic data seed")
	elem        = flag.String("t", "int64", "element type: int8|int16|int32|int64|uint8|uint16|uint32|uint64")
	codecNames  = flag.String("codecs", "", "comma-separated codec subset (empty: all registered)")
	blockValues = flag.Int("blocksize", zukowski.DefaultBlockValues, "column block size in values")
	format      = flag.String("format", "text", "report format: text|json")
	outPath     = flag.String("o", "", "write the report to this file instead of stdout")
	baseline    = flag.String("baseline", "", "baseline JSON report to gate against")
	tolerance   = flag.Float64("tolerance", 0.20, "allowed fractional regression vs -baseline")
	minTime     = flag.Duration("mintime", 100*time.Millisecond, "minimum measurement time per timing round")
	rounds      = flag.Int("rounds", 5, "timing rounds per measurement; the fastest round is reported")
	workers     = flag.Int("workers", 0, "measure block-parallel scans with this many workers (0: skip)")
	selectivity = flag.String("selectivity", "", "comma-separated selectivity sweep for filtered scans, e.g. 0.001,0.01,0.1,0.5,1 (empty: skip)")
	cols        = flag.Int("cols", 1, "measure conjunctive multi-column scans over this many columns at each -selectivity point (<2: skip)")
	orScan      = flag.Bool("or", false, "measure two-branch disjunctive (OR) scans at each -selectivity point (needs -cols >= 2)")
	orFloor     = flag.Float64("orfloor", 0, "fail unless every disjunctive point at selectivity <= 0.1 reaches this speedup over decode-then-filter (0: off)")
)

// selectivityPoints parses the -selectivity flag.
func selectivityPoints() []float64 {
	if *selectivity == "" {
		return nil
	}
	var pts []float64
	for _, f := range strings.Split(*selectivity, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v > 1 {
			log.Fatalf("bad -selectivity point %q (want fractions in (0,1])", f)
		}
		pts = append(pts, v)
	}
	return pts
}

// bestOf measures f over -rounds independent rounds and returns the
// fastest mean seconds per call. Taking the minimum discards scheduler and
// neighbor noise, which only ever slows a run down — the estimator CI
// needs for a regression gate that does not flake.
func bestOf(f func()) float64 {
	best := experiments.TimeIt(*minTime, f)
	for i := 1; i < *rounds; i++ {
		if s := experiments.TimeIt(*minTime, f); s < best {
			best = s
		}
	}
	return best
}

func main() {
	flag.Parse()
	var rep Report
	switch *elem {
	case "int8":
		rep = run[int8]()
	case "int16":
		rep = run[int16]()
	case "int32":
		rep = run[int32]()
	case "int64":
		rep = run[int64]()
	case "uint8":
		rep = run[uint8]()
	case "uint16":
		rep = run[uint16]()
	case "uint32":
		rep = run[uint32]()
	case "uint64":
		rep = run[uint64]()
	default:
		log.Fatalf("unknown element type %q", *elem)
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	case "text":
		printText(w, rep)
	default:
		log.Fatalf("unknown format %q", *format)
	}

	if *baseline != "" {
		if err := gate(rep, *baseline, *tolerance); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gate: no codec regressed more than %.0f%% vs %s\n", *tolerance*100, *baseline)
	}
	if *orFloor > 0 {
		if err := checkOrFloor(rep, *orFloor); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gate: every disjunctive point at selectivity <= 0.1 reached %.2fx over decode-then-filter\n", *orFloor)
	}
}

// checkOrFloor enforces the absolute OR-composition claim: at combined
// selectivities of at most 10%, the expression-tree disjunctive scan must
// beat the decode-then-filter oracle by the given factor. The ratio is
// within-run, so the check is machine-independent.
func checkOrFloor(rep Report, floor float64) error {
	var failures []string
	points := 0
	for _, r := range rep.Results {
		if r.Error != "" {
			continue
		}
		for _, ds := range r.DisjunctiveScans {
			if ds.Selectivity > 0.1 {
				continue
			}
			points++
			if ds.Speedup < floor {
				failures = append(failures, fmt.Sprintf(
					"%s@or%g: disjunctive speedup %.2fx < floor %.2fx",
					r.Codec, ds.Selectivity, ds.Speedup, floor))
			}
		}
	}
	if points == 0 {
		return fmt.Errorf("-orfloor set but no disjunctive points at selectivity <= 0.1 were measured (pass -or, -cols >= 2 and -selectivity)")
	}
	if len(failures) > 0 {
		return fmt.Errorf("disjunctive speedup floor failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// loadValues produces the benchmark dataset in the requested element type.
func loadValues[T zukowski.Integer]() ([]T, string) {
	if *input != "" {
		raw, err := os.ReadFile(*input)
		if err != nil {
			log.Fatal(err)
		}
		var zero T
		width := int(binary.Size(zero))
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

func run[T zukowski.Integer]() Report {
	vals, source := loadValues[T]()
	if len(vals) == 0 {
		log.Fatal("empty dataset")
	}
	rep := Report{
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Source:      source,
		ElemType:    *elem,
		NumValues:   len(vals),
		BlockValues: *blockValues,
		Workers:     *workers,
		NumCPU:      runtime.NumCPU(),
		Cols:        *cols,
	}

	rep.MemMBps = memBandwidth()

	// The selective range for the zone-map measurement: the values between
	// the 45th and 55th percentile, i.e. a predicate selecting ~10% of the
	// data. On sorted or clustered columns the zone maps confine that to a
	// fraction of the blocks; on uniform data they cannot prune.
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	lo, hi := sorted[len(sorted)*45/100], sorted[len(sorted)*55/100]

	// Parse the sweep before any timing work, so a malformed flag fails
	// immediately instead of after the first codec's full benchmark run.
	points := selectivityPoints()

	// The conjunctive sweep needs -cols same-length columns: the loaded
	// one plus derived siblings (fresh synthetic draws of the same
	// distribution, or deterministic permutations of a file input).
	var conjCols [][]T
	if *cols >= 2 && len(points) > 0 {
		conjCols = make([][]T, *cols)
		conjCols[0] = vals
		for i := 1; i < *cols; i++ {
			conjCols[i] = deriveColumn(vals, i)
		}
	}

	names := zukowski.Codecs()
	if *codecNames != "" {
		names = strings.Split(*codecNames, ",")
	}
	for _, name := range names {
		rep.Results = append(rep.Results, benchCodec(name, vals, sorted, lo, hi, points, conjCols))
	}
	return rep
}

// deriveColumn produces sibling column i for the conjunctive sweep.
// Synthetic sources draw a fresh column of the same distribution from a
// per-column seed; file inputs are scrambled by a fixed-stride
// permutation (same multiset of values, so compression characteristics
// match, but rows decorrelate and the conjunction genuinely narrows).
func deriveColumn[T zukowski.Integer](base []T, i int) []T {
	if *input == "" {
		rng := rand.New(rand.NewSource(*seed + int64(1000*i)))
		var canonical []int64
		switch *synth {
		case "pfor":
			canonical = experiments.SynthPFOR(rng, len(base), 10, 0.02)
		case "dict":
			canonical, _ = experiments.SynthDict(rng, len(base), 8, 0.01)
		case "sorted":
			canonical = experiments.SynthSorted(rng, len(base), 3)
		}
		vals := make([]T, len(canonical))
		for j, v := range canonical {
			vals[j] = T(v)
		}
		return vals
	}
	n := len(base)
	out := make([]T, n)
	stride := n/3*2 + 1
	for gcd(stride, n) != 1 { // coprime stride => the walk is a permutation
		stride++
	}
	idx := (i * 7919) % n
	for j := range out {
		out[j] = base[idx]
		idx += stride
		if idx >= n {
			idx -= n
		}
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// memBandwidth measures sequential memory-read bandwidth over a buffer
// far larger than L2, the calibration constant of the perf gate.
func memBandwidth() float64 {
	buf := make([]int64, 8<<20) // 64 MB
	for i := range buf {
		buf[i] = int64(i)
	}
	var sink int64
	secs := bestOf(func() {
		var s int64
		for _, v := range buf {
			s += v
		}
		sink += s
	})
	_ = sink
	return experiments.MBps(len(buf)*8, secs)
}

func benchCodec[T zukowski.Integer](name string, vals, sorted []T, lo, hi T, points []float64, conjCols [][]T) CodecResult {
	res := CodecResult{Codec: name}
	codec, err := zukowski.Lookup[T](name)
	if err != nil {
		res.Error = err.Error()
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
	if err := build(&buf); err != nil {
		res.Error = err.Error()
		return res
	}
	cr, err := zukowski.OpenColumn[T](buf.Bytes())
	if err != nil {
		res.Error = err.Error()
		return res
	}
	rawBytes := cr.UncompressedBytes()
	res.CompressedBytes = cr.CompressedBytes()
	res.Ratio = cr.Ratio()
	res.TotalBlocks = cr.NumBlocks()
	res.CandidateBlocks = cr.CountCandidateBlocks(lo, hi)
	if res.TotalBlocks > 0 {
		res.ZoneMapSkipRate = 1 - float64(res.CandidateBlocks)/float64(res.TotalBlocks)
	}

	secs := bestOf(func() {
		if err := build(io.Discard); err != nil {
			log.Fatalf("%s: encode: %v", name, err)
		}
	})
	res.EncodeMBps = experiments.MBps(rawBytes, secs)

	var dst []T
	secs = bestOf(func() {
		out, err := cr.ReadAll(dst[:0])
		if err != nil {
			log.Fatalf("%s: decode: %v", name, err)
		}
		dst = out
	})
	res.DecodeMBps = experiments.MBps(rawBytes, secs)

	if *workers > 1 {
		scanMBps := func(w int) float64 {
			secs := bestOf(func() {
				if err := cr.ParallelScan(w, func(int, []T) bool { return true }); err != nil {
					log.Fatalf("%s: parallel scan (%d workers): %v", name, w, err)
				}
			})
			return experiments.MBps(rawBytes, secs)
		}
		res.ScanMBps = scanMBps(1)
		res.ParallelScanMBps = scanMBps(*workers)
		if res.ScanMBps > 0 {
			res.ParallelSpeedup = res.ParallelScanMBps / res.ScanMBps
		}
	}

	for _, s := range points {
		res.FilteredScans = append(res.FilteredScans, benchFilteredScan(name, cr, sorted, s))
	}

	if len(conjCols) >= 2 {
		if set, sortedCols, err := buildColumnSet(codec, conjCols); err != nil {
			fmt.Fprintf(os.Stderr, "%s: conjunctive sweep skipped: %v\n", name, err)
		} else {
			for _, s := range points {
				res.ConjunctiveScans = append(res.ConjunctiveScans, benchConjunctive(name, set, sortedCols, s))
			}
			if *orScan {
				for _, s := range points {
					res.DisjunctiveScans = append(res.DisjunctiveScans, benchDisjunctive(name, set, sortedCols, s))
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(*seed + 17))
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = rng.Intn(len(vals))
	}
	var sink T
	secs = bestOf(func() {
		for _, i := range idx {
			v, err := cr.Get(i)
			if err != nil {
				log.Fatalf("%s: get: %v", name, err)
			}
			sink += v
		}
	})
	_ = sink
	res.GetNanos = secs / float64(len(idx)) * 1e9
	return res
}

// benchFilteredScan measures one selectivity point: a centered window over
// the sorted values selecting ~s of the data, scanned three ways. The
// ScanWhere pass is the decode-then-filter consumer ScanSelect replaces —
// the caller re-applies the predicate to every delivered vector and
// materializes the matching (row, value) pairs, equivalent output to
// ScanSelect — so the speedup column is an apples-to-apples read of what
// compressed-domain selection buys.
func benchFilteredScan[T zukowski.Integer](name string, cr *zukowski.ColumnReader[T], sorted []T, s float64) FilteredScanResult {
	n := len(sorted)
	target := int(s * float64(n))
	if target < 1 {
		target = 1
	}
	loIdx := (n - target) / 2
	lo, hi := sorted[loIdx], sorted[loIdx+target-1]
	fs := FilteredScanResult{Selectivity: s}
	rawBytes := cr.UncompressedBytes()

	// Global row numbers need each delivered block's first row, which
	// ScanWhere's vector-only callback cannot convey once zone maps skip
	// blocks; the one-worker ParallelScanWhere is the same sequential
	// pruned loop but hands over the block index.
	starts := make([]int64, cr.NumBlocks()+1)
	for b := 0; b < cr.NumBlocks(); b++ {
		info, err := cr.BlockInfo(b)
		if err != nil {
			log.Fatalf("%s: BlockInfo(%d): %v", name, b, err)
		}
		starts[b+1] = starts[b] + int64(info.Count)
	}
	rows := make([]int64, 0, n)
	matchVals := make([]T, 0, n)
	secs := bestOf(func() {
		rows, matchVals = rows[:0], matchVals[:0]
		if err := cr.ParallelScanWhere(lo, hi, 1, func(b int, v []T) bool {
			base := starts[b]
			for j, x := range v {
				if x >= lo && x <= hi {
					rows = append(rows, base+int64(j))
					matchVals = append(matchVals, x)
				}
			}
			return true
		}); err != nil {
			log.Fatalf("%s: ScanWhere: %v", name, err)
		}
	})
	fs.ScanWhereMBps = experiments.MBps(rawBytes, secs)
	whereMatched := len(rows)

	matched := 0
	secs = bestOf(func() {
		matched = 0
		if err := cr.ScanSelect(lo, hi, func(r []int64, _ []T) bool {
			matched += len(r)
			return true
		}); err != nil {
			log.Fatalf("%s: ScanSelect: %v", name, err)
		}
	})
	fs.ScanSelectMBps = experiments.MBps(rawBytes, secs)
	fs.Matched = matched
	fs.ActualSelectivity = float64(matched) / float64(cr.Len())
	if secs > 0 {
		fs.MatchedPerSec = float64(matched) / secs
	}
	if fs.ScanWhereMBps > 0 {
		fs.SelectSpeedup = fs.ScanSelectMBps / fs.ScanWhereMBps
	}
	if matched != whereMatched {
		log.Fatalf("%s: ScanSelect matched %d values, decode-then-filter matched %d", name, matched, whereMatched)
	}
	// One untimed pass proves the two paths emit identical (row, value)
	// streams, not just equal counts.
	i := 0
	if err := cr.ScanSelect(lo, hi, func(r []int64, v []T) bool {
		for j := range r {
			if r[j] != rows[i] || v[j] != matchVals[i] {
				log.Fatalf("%s: match %d: ScanSelect (%d,%v) != decode-then-filter (%d,%v)",
					name, i, r[j], v[j], rows[i], matchVals[i])
			}
			i++
		}
		return true
	}); err != nil {
		log.Fatalf("%s: ScanSelect verify pass: %v", name, err)
	}

	secs = bestOf(func() {
		agg, err := cr.AggregateWhere(lo, hi)
		if err != nil {
			log.Fatalf("%s: AggregateWhere: %v", name, err)
		}
		if int(agg.Count) != matched {
			log.Fatalf("%s: AggregateWhere counted %d values, ScanSelect matched %d", name, agg.Count, matched)
		}
	})
	fs.AggregateMBps = experiments.MBps(rawBytes, secs)
	return fs
}

// buildColumnSet encodes every column of the conjunctive sweep with one
// codec and groups the readers, returning each column's sorted values for
// predicate-window selection.
func buildColumnSet[T zukowski.Integer](codec zukowski.Codec[T], conjCols [][]T) (*zukowski.ColumnSet[T], [][]T, error) {
	readers := make([]*zukowski.ColumnReader[T], len(conjCols))
	sortedCols := make([][]T, len(conjCols))
	for i, vals := range conjCols {
		var buf bytes.Buffer
		cw, err := zukowski.NewColumnWriter(&buf, codec, *blockValues)
		if err != nil {
			return nil, nil, err
		}
		if err := cw.Write(vals); err != nil {
			return nil, nil, err
		}
		if err := cw.Close(); err != nil {
			return nil, nil, err
		}
		if readers[i], err = zukowski.OpenColumn[T](buf.Bytes()); err != nil {
			return nil, nil, err
		}
		sortedCols[i] = slices.Clone(vals)
		slices.Sort(sortedCols[i])
	}
	set, err := zukowski.NewColumnSet(readers...)
	if err != nil {
		return nil, nil, err
	}
	return set, sortedCols, nil
}

// benchConjunctive measures one combined-selectivity point of the
// multi-column sweep. Each column gets a centered window of selectivity
// s^(1/cols) over its own value distribution, so on decorrelated columns
// the conjunction selects ~s of the rows. The oracle pass is the
// decode-then-filter plan ColumnSet.Run replaces: every candidate block of
// every column decoded in lockstep (zone maps prune for both plans), the
// conjunction re-applied per row in the caller, matching rows and all
// column values materialized — identical output to Run.
func benchConjunctive[T zukowski.Integer](name string, set *zukowski.ColumnSet[T], sortedCols [][]T, s float64) ConjunctiveScanResult {
	numCols := set.Columns()
	res := ConjunctiveScanResult{Cols: numCols, Selectivity: s}
	n := set.Len()
	perCol := math.Pow(s, 1/float64(numCols))
	preds := make([]zukowski.Pred[T], numCols)
	for c := 0; c < numCols; c++ {
		sorted := sortedCols[c]
		target := int(perCol * float64(n))
		if target < 1 {
			target = 1
		}
		loIdx := (n - target) / 2
		preds[c] = zukowski.Pred[T]{Col: c, Lo: sorted[loIdx], Hi: sorted[loIdx+target-1]}
	}
	rawBytes := 0
	for c := 0; c < numCols; c++ {
		rawBytes += set.Column(c).UncompressedBytes()
	}

	// Candidate blocks under zone-map pruning, shared by both plans.
	var candidates []int
	starts := make([]int64, set.NumBlocks()+1)
	for b := 0; b < set.NumBlocks(); b++ {
		keep := true
		for _, p := range preds {
			info, err := set.Column(p.Col).BlockInfo(b)
			if err != nil {
				log.Fatalf("%s: BlockInfo(%d): %v", name, b, err)
			}
			if info.HasZoneMap && (info.Max < p.Lo || info.Min > p.Hi) {
				keep = false
				break
			}
		}
		info, err := set.Column(0).BlockInfo(b)
		if err != nil {
			log.Fatalf("%s: BlockInfo(%d): %v", name, b, err)
		}
		starts[b+1] = starts[b] + int64(info.Count)
		if keep {
			candidates = append(candidates, b)
		}
	}

	// Decode-then-filter oracle.
	bufs := make([][]T, numCols)
	rows := make([]int64, 0, n)
	outs := make([][]T, numCols)
	for c := range outs {
		outs[c] = make([]T, 0, n)
	}
	secs := bestOf(func() {
		rows = rows[:0]
		for c := range outs {
			outs[c] = outs[c][:0]
		}
		for _, b := range candidates {
			for c := 0; c < numCols; c++ {
				var err error
				if bufs[c], err = set.Column(c).ReadBlock(b, bufs[c][:0]); err != nil {
					log.Fatalf("%s: ReadBlock(%d): %v", name, b, err)
				}
			}
			base := starts[b]
			for j := range bufs[0] {
				ok := true
				for _, p := range preds {
					if v := bufs[p.Col][j]; v < p.Lo || v > p.Hi {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				rows = append(rows, base+int64(j))
				for c := 0; c < numCols; c++ {
					outs[c] = append(outs[c], bufs[c][j])
				}
			}
		}
	})
	res.OracleMBps = experiments.MBps(rawBytes, secs)
	oracleMatched := len(rows)

	matched := 0
	ctx := context.Background()
	q := zukowski.Query[T]{Preds: preds}
	secs = bestOf(func() {
		matched = 0
		if err := set.Run(ctx, q, func(_ int, r []int64, _ [][]T) bool {
			matched += len(r)
			return true
		}); err != nil {
			log.Fatalf("%s: Run: %v", name, err)
		}
	})
	res.ScanAllMBps = experiments.MBps(rawBytes, secs)
	res.Matched = matched
	res.ActualSelectivity = float64(matched) / float64(n)
	if res.OracleMBps > 0 {
		res.Speedup = res.ScanAllMBps / res.OracleMBps
	}
	if matched != oracleMatched {
		log.Fatalf("%s: Run matched %d rows, decode-then-filter matched %d", name, matched, oracleMatched)
	}
	// One untimed pass proves the two plans emit identical rows and values
	// for every column, not just equal counts.
	i := 0
	if err := set.Run(ctx, q, func(_ int, r []int64, colVals [][]T) bool {
		for j := range r {
			if r[j] != rows[i] {
				log.Fatalf("%s: match %d: Run row %d != oracle row %d", name, i, r[j], rows[i])
			}
			for c := 0; c < numCols; c++ {
				if colVals[c][j] != outs[c][i] {
					log.Fatalf("%s: match %d col %d: Run %v != oracle %v",
						name, i, c, colVals[c][j], outs[c][i])
				}
			}
			i++
		}
		return true
	}); err != nil {
		log.Fatalf("%s: Run verify pass: %v", name, err)
	}

	if *workers > 1 {
		pq := q
		pq.Workers = *workers
		secs = bestOf(func() {
			if err := set.Run(ctx, pq, func(int, []int64, [][]T) bool { return true }); err != nil {
				log.Fatalf("%s: parallel Run: %v", name, err)
			}
		})
		res.ParallelScanAllMBps = experiments.MBps(rawBytes, secs)
	}

	secs = bestOf(func() {
		agg, err := set.RunAggregate(ctx, q, 0)
		if err != nil {
			log.Fatalf("%s: RunAggregate: %v", name, err)
		}
		if int(agg.Count) != matched {
			log.Fatalf("%s: RunAggregate counted %d rows, Run matched %d", name, agg.Count, matched)
		}
	})
	res.AggregateAllMBps = experiments.MBps(rawBytes, secs)
	return res
}

// benchDisjunctive measures one combined-selectivity point of the
// two-branch OR sweep over the set's first two columns. Each branch gets
// a centered window of selectivity ~s/2 over its own column, so on
// decorrelated columns the disjunction selects ~s of the rows. The
// oracle pass is the decode-then-filter plan the expression tree
// replaces: every block at least one branch's zone map admits is decoded
// on both columns, the OR re-applied per row in the caller, matching
// rows and both column values materialized — identical output to Run
// with Or(Range, Range) and Cols {0, 1}.
func benchDisjunctive[T zukowski.Integer](name string, set *zukowski.ColumnSet[T], sortedCols [][]T, s float64) DisjunctiveScanResult {
	res := DisjunctiveScanResult{Cols: 2, Selectivity: s}
	n := set.Len()
	type branch struct {
		col    int
		lo, hi T
	}
	branches := make([]branch, 2)
	for c := 0; c < 2; c++ {
		sorted := sortedCols[c]
		target := int(s / 2 * float64(n))
		if target < 1 {
			target = 1
		}
		loIdx := (n - target) / 2
		branches[c] = branch{c, sorted[loIdx], sorted[loIdx+target-1]}
	}
	expr := zukowski.Or(
		zukowski.Range[T](0, branches[0].lo, branches[0].hi),
		zukowski.Range[T](1, branches[1].lo, branches[1].hi),
	)
	rawBytes := set.Column(0).UncompressedBytes() + set.Column(1).UncompressedBytes()

	// Candidate blocks: a block survives unless every branch's zone map
	// excludes it — the disjunctive mirror of the conjunctive pruning,
	// shared by both plans.
	var candidates []int
	starts := make([]int64, set.NumBlocks()+1)
	for b := 0; b < set.NumBlocks(); b++ {
		keep := false
		for _, br := range branches {
			info, err := set.Column(br.col).BlockInfo(b)
			if err != nil {
				log.Fatalf("%s: BlockInfo(%d): %v", name, b, err)
			}
			if !info.HasZoneMap || (info.Max >= br.lo && info.Min <= br.hi) {
				keep = true
				break
			}
		}
		info, err := set.Column(0).BlockInfo(b)
		if err != nil {
			log.Fatalf("%s: BlockInfo(%d): %v", name, b, err)
		}
		starts[b+1] = starts[b] + int64(info.Count)
		if keep {
			candidates = append(candidates, b)
		}
	}

	// Decode-then-filter oracle.
	bufs := make([][]T, 2)
	rows := make([]int64, 0, n)
	outs := [][]T{make([]T, 0, n), make([]T, 0, n)}
	secs := bestOf(func() {
		rows = rows[:0]
		outs[0], outs[1] = outs[0][:0], outs[1][:0]
		for _, b := range candidates {
			for c := 0; c < 2; c++ {
				var err error
				if bufs[c], err = set.Column(c).ReadBlock(b, bufs[c][:0]); err != nil {
					log.Fatalf("%s: ReadBlock(%d): %v", name, b, err)
				}
			}
			base := starts[b]
			for j := range bufs[0] {
				v0, v1 := bufs[0][j], bufs[1][j]
				if (v0 < branches[0].lo || v0 > branches[0].hi) &&
					(v1 < branches[1].lo || v1 > branches[1].hi) {
					continue
				}
				rows = append(rows, base+int64(j))
				outs[0] = append(outs[0], v0)
				outs[1] = append(outs[1], v1)
			}
		}
	})
	res.OracleMBps = experiments.MBps(rawBytes, secs)
	oracleMatched := len(rows)

	q := zukowski.Query[T]{Expr: expr, Cols: []int{0, 1}}
	matched := 0
	secs = bestOf(func() {
		matched = 0
		if err := set.Run(context.Background(), q, func(_ int, r []int64, _ [][]T) bool {
			matched += len(r)
			return true
		}); err != nil {
			log.Fatalf("%s: Run(Or): %v", name, err)
		}
	})
	res.OrScanMBps = experiments.MBps(rawBytes, secs)
	res.Matched = matched
	res.ActualSelectivity = float64(matched) / float64(n)
	if res.OracleMBps > 0 {
		res.Speedup = res.OrScanMBps / res.OracleMBps
	}
	if matched != oracleMatched {
		log.Fatalf("%s: Run(Or) matched %d rows, decode-then-filter matched %d", name, matched, oracleMatched)
	}
	// One untimed pass proves the two plans emit identical rows and values
	// for both columns, not just equal counts.
	i := 0
	if err := set.Run(context.Background(), q, func(_ int, r []int64, colVals [][]T) bool {
		for j := range r {
			if r[j] != rows[i] {
				log.Fatalf("%s: match %d: Run(Or) row %d != oracle row %d", name, i, r[j], rows[i])
			}
			for c := 0; c < 2; c++ {
				if colVals[c][j] != outs[c][i] {
					log.Fatalf("%s: match %d col %d: Run(Or) %v != oracle %v",
						name, i, c, colVals[c][j], outs[c][i])
				}
			}
			i++
		}
		return true
	}); err != nil {
		log.Fatalf("%s: Run(Or) verify pass: %v", name, err)
	}

	secs = bestOf(func() {
		agg, err := set.RunAggregate(context.Background(), zukowski.Query[T]{Expr: expr}, 0)
		if err != nil {
			log.Fatalf("%s: RunAggregate(Or): %v", name, err)
		}
		if int(agg.Count) != matched {
			log.Fatalf("%s: RunAggregate(Or) counted %d rows, Run matched %d", name, agg.Count, matched)
		}
	})
	res.AggregateMBps = experiments.MBps(rawBytes, secs)
	return res
}

func printText(w io.Writer, rep Report) {
	fmt.Fprintf(w, "codecbench: %s, %d %s values, blocks of %d (%s %s/%s, %s)\n",
		rep.Source, rep.NumValues, rep.ElemType, rep.BlockValues, rep.GoVersion, rep.GOOS, rep.GOARCH, rep.CreatedAt)
	parallel := rep.Workers > 1
	if parallel {
		fmt.Fprintf(w, "parallel scans: %d workers on %d CPUs\n", rep.Workers, rep.NumCPU)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %10s %12s %12s %10s %10s",
		"codec", "ratio", "enc MB/s", "dec MB/s", "get ns", "zm skip")
	if parallel {
		fmt.Fprintf(w, " %12s %8s", "pscan MB/s", "speedup")
	}
	fmt.Fprintln(w)
	filtered := false
	for _, r := range rep.Results {
		if r.Error != "" {
			fmt.Fprintf(w, "%-12s %s\n", r.Codec, r.Error)
			continue
		}
		fmt.Fprintf(w, "%-12s %10.2f %12.0f %12.0f %10.1f %9.0f%%",
			r.Codec, r.Ratio, r.EncodeMBps, r.DecodeMBps, r.GetNanos, r.ZoneMapSkipRate*100)
		if parallel {
			fmt.Fprintf(w, " %12.0f %7.2fx", r.ParallelScanMBps, r.ParallelSpeedup)
		}
		fmt.Fprintln(w)
		filtered = filtered || len(r.FilteredScans) > 0
	}
	if !filtered {
		return
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "filtered scans (selection-vector ScanSelect vs decode-then-filter ScanWhere):")
	fmt.Fprintf(w, "%-12s %8s %8s %12s %12s %12s %8s %14s\n",
		"codec", "sel", "actual", "where MB/s", "select MB/s", "agg MB/s", "speedup", "matched/s")
	for _, r := range rep.Results {
		for _, fs := range r.FilteredScans {
			fmt.Fprintf(w, "%-12s %8.3f %8.3f %12.0f %12.0f %12.0f %7.2fx %14.3g\n",
				r.Codec, fs.Selectivity, fs.ActualSelectivity, fs.ScanWhereMBps,
				fs.ScanSelectMBps, fs.AggregateMBps, fs.SelectSpeedup, fs.MatchedPerSec)
		}
	}
	conjunctive := false
	for _, r := range rep.Results {
		conjunctive = conjunctive || len(r.ConjunctiveScans) > 0
	}
	if !conjunctive {
		return
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "conjunctive scans (%d-column ColumnSet.Run vs decode-then-filter oracle):\n", rep.Cols)
	fmt.Fprintf(w, "%-12s %4s %8s %8s %12s %12s %12s %12s %8s\n",
		"codec", "cols", "sel", "actual", "oracle MB/s", "all MB/s", "pall MB/s", "agg MB/s", "speedup")
	for _, r := range rep.Results {
		for _, cj := range r.ConjunctiveScans {
			fmt.Fprintf(w, "%-12s %4d %8.3f %8.3f %12.0f %12.0f %12.0f %12.0f %7.2fx\n",
				r.Codec, cj.Cols, cj.Selectivity, cj.ActualSelectivity, cj.OracleMBps,
				cj.ScanAllMBps, cj.ParallelScanAllMBps, cj.AggregateAllMBps, cj.Speedup)
		}
	}
	disjunctive := false
	for _, r := range rep.Results {
		disjunctive = disjunctive || len(r.DisjunctiveScans) > 0
	}
	if !disjunctive {
		return
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "disjunctive scans (two-branch Or through Run vs decode-then-filter oracle):")
	fmt.Fprintf(w, "%-12s %4s %8s %8s %12s %12s %12s %8s\n",
		"codec", "cols", "sel", "actual", "oracle MB/s", "or MB/s", "agg MB/s", "speedup")
	for _, r := range rep.Results {
		for _, ds := range r.DisjunctiveScans {
			fmt.Fprintf(w, "%-12s %4d %8.3f %8.3f %12.0f %12.0f %12.0f %7.2fx\n",
				r.Codec, ds.Cols, ds.Selectivity, ds.ActualSelectivity, ds.OracleMBps,
				ds.OrScanMBps, ds.AggregateMBps, ds.Speedup)
		}
	}
}

// gate compares the run against a baseline report and errors on any codec
// whose compression ratio or bandwidths regressed beyond tol.
func gate(rep Report, baselinePath string, tol float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	// Encode and decode bandwidth are gated after normalizing by each
	// run's memory bandwidth calibration, so the comparison survives
	// heterogeneous or throttled CI runners; compression ratio is
	// deterministic and gated absolutely.
	scale := 1.0
	if base.MemMBps > 0 && rep.MemMBps > 0 {
		scale = base.MemMBps / rep.MemMBps
	}
	byName := map[string]CodecResult{}
	for _, r := range rep.Results {
		byName[r.Codec] = r
	}
	var failures []string
	// A baseline with parallel measurements demands a comparable run: a
	// silently skipped comparison would let a parallel-scan regression
	// merge behind a mismatched -workers flag.
	baseHasParallel := false
	for _, b := range base.Results {
		if b.Error == "" && b.ParallelScanMBps > 0 {
			baseHasParallel = true
			break
		}
	}
	if baseHasParallel && rep.Workers != base.Workers {
		failures = append(failures, fmt.Sprintf(
			"baseline measured parallel scans with -workers %d but this run used -workers %d; rerun with matching workers",
			base.Workers, rep.Workers))
	}
	if baseHasParallel && rep.Workers == base.Workers && rep.NumCPU < rep.Workers {
		fmt.Fprintf(os.Stderr, "gate: warning: %d CPUs cannot express %d workers; parallel-scan bandwidths not compared\n",
			rep.NumCPU, rep.Workers)
	}
	if baseHasParallel && base.NumCPU > 0 && base.NumCPU < base.Workers {
		fmt.Fprintf(os.Stderr, "gate: warning: baseline was measured on %d CPUs with %d workers, understating parallel capacity; regenerate it on a machine with at least %d CPUs to tighten this gate\n",
			base.NumCPU, base.Workers, base.Workers)
	}
	if base.GOOS != "" && (base.GOOS != rep.GOOS || base.GOARCH != rep.GOARCH) {
		fmt.Fprintf(os.Stderr, "gate: warning: baseline is from %s/%s, this run is %s/%s; bandwidth comparisons rely on the memory calibration alone\n",
			base.GOOS, base.GOARCH, rep.GOOS, rep.GOARCH)
	}
	for _, b := range base.Results {
		if b.Error != "" {
			continue
		}
		cur, ok := byName[b.Codec]
		if !ok || cur.Error != "" {
			failures = append(failures, fmt.Sprintf("%s: missing from current run (%s)", b.Codec, cur.Error))
			continue
		}
		if cur.Ratio < b.Ratio*(1-tol) {
			failures = append(failures, fmt.Sprintf("%s: compression ratio %.3f < baseline %.3f -%.0f%%",
				b.Codec, cur.Ratio, b.Ratio, tol*100))
		}
		if norm := cur.DecodeMBps * scale; norm < b.DecodeMBps*(1-tol) {
			failures = append(failures, fmt.Sprintf("%s: decode bandwidth %.0f MB/s (normalized %.0f) < baseline %.0f MB/s -%.0f%%",
				b.Codec, cur.DecodeMBps, norm, b.DecodeMBps, tol*100))
		}
		if norm := cur.EncodeMBps * scale; norm < b.EncodeMBps*(1-tol) {
			failures = append(failures, fmt.Sprintf("%s: encode bandwidth %.0f MB/s (normalized %.0f) < baseline %.0f MB/s -%.0f%%",
				b.Codec, cur.EncodeMBps, norm, b.EncodeMBps, tol*100))
		}
		// Filtered-scan bandwidth is gated like decode bandwidth (memory-
		// normalized), point by point: only selectivities measured in both
		// runs are compared, and a point present in the baseline but
		// missing from the current run fails — otherwise dropping the
		// -selectivity flag would silently disarm the gate.
		for _, bfs := range b.FilteredScans {
			var cfs *FilteredScanResult
			for i := range cur.FilteredScans {
				if cur.FilteredScans[i].Selectivity == bfs.Selectivity {
					cfs = &cur.FilteredScans[i]
					break
				}
			}
			if cfs == nil {
				failures = append(failures, fmt.Sprintf(
					"%s: baseline has a filtered-scan point at selectivity %g, current run does not (rerun with -selectivity)",
					b.Codec, bfs.Selectivity))
				continue
			}
			if norm := cfs.ScanSelectMBps * scale; norm < bfs.ScanSelectMBps*(1-tol) {
				failures = append(failures, fmt.Sprintf(
					"%s@%g: filtered-scan bandwidth %.0f MB/s (normalized %.0f) < baseline %.0f MB/s -%.0f%%",
					b.Codec, bfs.Selectivity, cfs.ScanSelectMBps, norm, bfs.ScanSelectMBps, tol*100))
			}
			if norm := cfs.AggregateMBps * scale; norm < bfs.AggregateMBps*(1-tol) {
				failures = append(failures, fmt.Sprintf(
					"%s@%g: aggregate bandwidth %.0f MB/s (normalized %.0f) < baseline %.0f MB/s -%.0f%%",
					b.Codec, bfs.Selectivity, cfs.AggregateMBps, norm, bfs.AggregateMBps, tol*100))
			}
		}
		// Conjunctive-scan bandwidth is gated like the filtered-scan points:
		// memory-normalized, matched on (cols, selectivity), and a baseline
		// point missing from the current run fails — dropping -cols or
		// -selectivity must not silently disarm the gate.
		for _, bcs := range b.ConjunctiveScans {
			var ccs *ConjunctiveScanResult
			for i := range cur.ConjunctiveScans {
				if cur.ConjunctiveScans[i].Selectivity == bcs.Selectivity && cur.ConjunctiveScans[i].Cols == bcs.Cols {
					ccs = &cur.ConjunctiveScans[i]
					break
				}
			}
			if ccs == nil {
				failures = append(failures, fmt.Sprintf(
					"%s: baseline has a %d-column conjunctive point at selectivity %g, current run does not (rerun with -cols and -selectivity)",
					b.Codec, bcs.Cols, bcs.Selectivity))
				continue
			}
			if norm := ccs.ScanAllMBps * scale; norm < bcs.ScanAllMBps*(1-tol) {
				failures = append(failures, fmt.Sprintf(
					"%s@%dx%g: conjunctive-scan bandwidth %.0f MB/s (normalized %.0f) < baseline %.0f MB/s -%.0f%%",
					b.Codec, bcs.Cols, bcs.Selectivity, ccs.ScanAllMBps, norm, bcs.ScanAllMBps, tol*100))
			}
			if norm := ccs.AggregateAllMBps * scale; norm < bcs.AggregateAllMBps*(1-tol) {
				failures = append(failures, fmt.Sprintf(
					"%s@%dx%g: conjunctive-aggregate bandwidth %.0f MB/s (normalized %.0f) < baseline %.0f MB/s -%.0f%%",
					b.Codec, bcs.Cols, bcs.Selectivity, ccs.AggregateAllMBps, norm, bcs.AggregateAllMBps, tol*100))
			}
			if bcs.ParallelScanAllMBps > 0 && rep.Workers == base.Workers && rep.NumCPU >= rep.Workers {
				if ccs.ParallelScanAllMBps == 0 {
					failures = append(failures, fmt.Sprintf(
						"%s@%dx%g: baseline has a parallel conjunctive measurement, current run does not",
						b.Codec, bcs.Cols, bcs.Selectivity))
				} else if norm := ccs.ParallelScanAllMBps * scale; norm < bcs.ParallelScanAllMBps*(1-tol) {
					failures = append(failures, fmt.Sprintf(
						"%s@%dx%g: parallel conjunctive bandwidth %.0f MB/s (normalized %.0f) < baseline %.0f MB/s -%.0f%%",
						b.Codec, bcs.Cols, bcs.Selectivity, ccs.ParallelScanAllMBps, norm, bcs.ParallelScanAllMBps, tol*100))
				}
			}
		}
		// Disjunctive-scan points gate like the conjunctive ones on
		// memory-normalized bandwidth, and additionally on the speedup over
		// the decode-then-filter oracle: the ratio is within-run, so it
		// needs no normalization and directly guards the claim that OR
		// composition beats decode-then-filter.
		for _, bds := range b.DisjunctiveScans {
			var cds *DisjunctiveScanResult
			for i := range cur.DisjunctiveScans {
				if cur.DisjunctiveScans[i].Selectivity == bds.Selectivity && cur.DisjunctiveScans[i].Cols == bds.Cols {
					cds = &cur.DisjunctiveScans[i]
					break
				}
			}
			if cds == nil {
				failures = append(failures, fmt.Sprintf(
					"%s: baseline has a disjunctive point at selectivity %g, current run does not (rerun with -or, -cols and -selectivity)",
					b.Codec, bds.Selectivity))
				continue
			}
			if norm := cds.OrScanMBps * scale; norm < bds.OrScanMBps*(1-tol) {
				failures = append(failures, fmt.Sprintf(
					"%s@or%g: disjunctive-scan bandwidth %.0f MB/s (normalized %.0f) < baseline %.0f MB/s -%.0f%%",
					b.Codec, bds.Selectivity, cds.OrScanMBps, norm, bds.OrScanMBps, tol*100))
			}
			if norm := cds.AggregateMBps * scale; norm < bds.AggregateMBps*(1-tol) {
				failures = append(failures, fmt.Sprintf(
					"%s@or%g: disjunctive-aggregate bandwidth %.0f MB/s (normalized %.0f) < baseline %.0f MB/s -%.0f%%",
					b.Codec, bds.Selectivity, cds.AggregateMBps, norm, bds.AggregateMBps, tol*100))
			}
			if bds.Speedup > 0 && cds.Speedup < bds.Speedup*(1-tol) {
				failures = append(failures, fmt.Sprintf(
					"%s@or%g: disjunctive speedup %.2fx < baseline %.2fx -%.0f%%",
					b.Codec, bds.Selectivity, cds.Speedup, bds.Speedup, tol*100))
			}
		}
		// Parallel scan bandwidth is gated with the same memory-bandwidth
		// normalization; a worker-count mismatch between the runs already
		// failed the gate above. The calibration cannot see core counts,
		// so the comparison is skipped (below, with a warning) when this
		// runner has fewer CPUs than the measurement wants — otherwise a
		// small machine would read as a regression — and a baseline from a
		// machine smaller than CI undershoots what CI could catch: gate
		// strength comes from regenerating the baseline on CI-class
		// hardware. The speedup ratio itself is never gated.
		if b.ParallelScanMBps > 0 && rep.Workers == base.Workers && rep.NumCPU >= rep.Workers {
			if cur.ParallelScanMBps == 0 {
				failures = append(failures, fmt.Sprintf("%s: baseline has a parallel scan measurement, current run does not", b.Codec))
			} else if norm := cur.ParallelScanMBps * scale; norm < b.ParallelScanMBps*(1-tol) {
				failures = append(failures, fmt.Sprintf("%s: parallel scan bandwidth %.0f MB/s (normalized %.0f) < baseline %.0f MB/s -%.0f%%",
					b.Codec, cur.ParallelScanMBps, norm, b.ParallelScanMBps, tol*100))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf gate failed vs %s:\n  %s", baselinePath, strings.Join(failures, "\n  "))
	}
	return nil
}
