// Command bench is the repository's benchmark: it builds a fixed table from
// a seed, runs one of four workloads against the real stack — zktable on
// disk, zkserve on a loopback listener, zkserve/client — checks every
// answer against a scalar oracle, and prints every metric by name with its
// unit. README.md says what each workload and metric is for.
//
//	bash bench/run.sh -workload select_hot -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -workload all -seed 1 -o out/a.json
//	bash bench/run.sh -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one traffic mix. Its primary and secondary operation kinds
// name what the per-role latency metrics mean on it.
type workload struct {
	name               string
	primary, secondary string
	// queries builds the list of 64 operations from the table and the
	// seed; nil for ingest_scan, which writes its table instead.
	queries func(*tableData, int64) []query
	// cacheOfStored sizes the server's block cache as a multiple of the
	// table's bytes on disk.
	cacheOfStored float64
}

var workloads = []workload{
	// Twice the stored bytes: every block stays resident once fetched,
	// whatever the cache's shards make of the key distribution.
	{name: "select_hot", primary: kindAgg, secondary: kindRows, queries: selectHotQueries, cacheOfStored: 2},
	{name: "export_hot", primary: kindRows, secondary: kindFrames, queries: exportHotQueries, cacheOfStored: 2},
	{name: "select_cold", primary: kindAgg, secondary: kindRows, queries: selectColdQueries, cacheOfStored: 1.0 / 8},
	{name: "ingest_scan", primary: kindAgg, secondary: kindAppend},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run. The sizes are constants of the benchmark; only the
// smoke test shrinks them.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // scratch space and trace files

	segs, segRows             int // bt: 4 segments of 512 Ki rows
	ingestSegs, ingestSegRows int // one ingest round: 8 appends of 128 Ki rows, compacting after the 4th and 8th
}

func defaultConfig() config {
	return config{
		seed: 1, seconds: 10, outDir: "out",
		segs: 4, segRows: 1 << 19,
		ingestSegs: 8, ingestSegRows: 1 << 17,
	}
}

// window and warm split a run's seconds: the closed loop warms up for a
// tenth of the timed window before it.
func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }
func (c config) warm() time.Duration   { return c.window() / 10 }

// clients is the closed loop's caller count: min(nproc, 4).
func clients() int { return min(runtime.NumCPU(), 4) }

// kindStats is one operation kind's latency in a timed run.
type kindStats struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
}

// result is the line the benchmark's caller reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a result with what produced it; -o appends one per run and
// -compare reads them back.
type report struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	result
	Kinds    map[string]kindStats `json:"kinds,omitempty"`
	FirstErr string               `json:"first_error,omitempty"`
}

func summarize(lat map[string][]float64) map[string]kindStats {
	out := map[string]kindStats{}
	for kind, xs := range lat {
		out[kind] = kindStats{len(xs), median(xs), quantile(xs, 0.95)}
	}
	return out
}

// run executes one workload and returns its report. An error means the
// benchmark itself could not run; wrong answers come back in the report.
func run(w workload, cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "data-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var (
		values map[string]float64
		t      *tally
	)
	if w.queries == nil {
		values, t, err = runIngest(w, cfg, dir)
	} else {
		values, t, err = runServing(w, cfg, dir)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics, err := collect(defs, values)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Clients: clients(),
		result:   result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics},
		FirstErr: t.firstErr,
	}
	if !cfg.trace {
		rep.Kinds = summarize(t.lat)
	}
	return rep, nil
}

// endToEndValues derives the end-to-end metrics every workload shares
// from a timed stretch of operations.
func endToEndValues(w workload, t *tally, wall time.Duration) (map[string]float64, error) {
	for _, kind := range []string{w.primary, w.secondary} {
		if len(t.lat[kind]) == 0 {
			return nil, fmt.Errorf("%s completed no %s operation in %v (first error: %s)", w.name, kind, wall, t.firstErr)
		}
	}
	completed := 0
	for _, xs := range t.lat {
		completed += len(xs)
	}
	return map[string]float64{
		"ops_s":            float64(completed) / wall.Seconds(),
		"primary_p50_ms":   median(t.lat[w.primary]),
		"primary_p95_ms":   quantile(t.lat[w.primary], 0.95),
		"secondary_p50_ms": median(t.lat[w.secondary]),
		"user_mb_s":        float64(t.payload) / 1e6 / wall.Seconds(),
		"peak_rss_mb":      peakRSSMB(),
	}, nil
}

// fixture is bt generated, committed to a table under dir and served.
type fixture struct {
	dir        string
	data       *tableData
	s          *served
	build      buildCost
	stored     int64 // bytes the committed generation needs on disk
	cacheBytes int64
	took       time.Duration
}

// setUp is a run's set-up from the seed to a server that answers: generate
// the columns, commit them one Append per segment, open the directory and
// listen.
func setUp(w workload, cfg config, dir string) (*fixture, error) {
	start := time.Now()
	fx := &fixture{dir: dir, data: genTable(cfg.seed, cfg.segs, cfg.segRows), build: buildCost{wc: new(writeCount)}}
	var err error
	if fx.build.appends, err = buildTable(tableDir(dir), fx.data, fx.build.wc); err != nil {
		return nil, err
	}
	if fx.stored, err = liveBytes(tableDir(dir), fx.data.segs); err != nil {
		return nil, err
	}
	fx.cacheBytes = int64(w.cacheOfStored * float64(fx.stored))
	if fx.s, err = serve(dir, fx.cacheBytes); err != nil {
		return nil, err
	}
	fx.took = time.Since(start)
	return fx, nil
}

// setUps is how often a timed run sets up; it reports the median and
// serves the last.
const setUps = 3

// runServing is the three workloads that query bt through the server.
func runServing(w workload, cfg config, dir string) (map[string]float64, *tally, error) {
	n := setUps
	if cfg.trace {
		n = 1 // set-up time is not a per-layer metric
	}
	var (
		fx   *fixture
		took []float64
	)
	defer func() {
		if fx != nil {
			fx.s.stop()
		}
	}()
	for i := 0; i < n; i++ {
		if fx != nil {
			if err := fx.s.stop(); err != nil {
				return nil, nil, fmt.Errorf("stopping the server: %w", err)
			}
			if err := os.RemoveAll(fx.dir); err != nil {
				return nil, nil, err
			}
			// The previous table is garbage; see runRound.
			fx = nil
			runtime.GC()
		}
		var err error
		if fx, err = setUp(w, cfg, filepath.Join(dir, fmt.Sprintf("s%d", i))); err != nil {
			return nil, nil, err
		}
		took = append(took, fx.took.Seconds())
	}

	qs := w.queries(fx.data, cfg.seed)
	total := gate(fx.s.base, qs)
	if total.failed > 0 {
		// Wrong answers make timings meaningless; report and stop.
		return nil, nil, fmt.Errorf("%s: %d of %d answers wrong before timing: %s", w.name, total.failed, total.attempted, total.firstErr)
	}

	if cfg.trace {
		values, err := traceServing(w, cfg, fx, qs, total)
		return values, total, err
	}
	loop := closedLoop(fx.s.base, qs, clients(), cfg.seed, cfg.warm(), cfg.window())
	total.merge(loop)
	values, err := endToEndValues(w, loop, cfg.window())
	if err != nil {
		return nil, nil, err
	}
	values["setup_s"] = median(took)
	values["stored_ratio"] = float64(fx.stored) / float64(fx.data.userBytes())
	values["write_amp"] = float64(fx.build.wc.bytes.Load()) / float64(fx.data.userBytes())
	if err := fx.s.stop(); err != nil {
		return nil, nil, fmt.Errorf("stopping the server: %w", err)
	}
	return values, total, nil
}

// printReport writes the metrics by name, then the result line last.
func printReport(rep *report) error {
	fmt.Printf("workload %s seed %d seconds %g trace %v cpus %d clients %d\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.NumCPU, rep.Clients)
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	for _, kind := range []string{kindAgg, kindRows, kindFrames, kindAppend} {
		if k, ok := rep.Kinds[kind]; ok {
			fmt.Printf("  kind %-8s n=%-6d p50 %.3f ms  p95 %.3f ms\n", kind, k.Count, k.P50, k.P95)
		}
	}
	if rep.FirstErr != "" {
		fmt.Printf("  first error: %s\n", rep.FirstErr)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// appendReport adds rep to the JSON-lines file at path.
func appendReport(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	cfg := defaultConfig()
	name := flag.String("workload", "all", "select_hot, export_hot, select_cold, ingest_scan or all")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the table and the query lists")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the timed window")
	trace := flag.Int("trace", 0, "1 replays the list once, layer by layer, and prints the per-layer metrics")
	out := flag.String("o", "", "append each run's report to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare the report files given as arguments, the first being the base")
	flag.Parse()
	cfg.trace = *trace != 0

	if *compare {
		if err := compareFiles(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{w}
	}
	ok := true
	for _, w := range todo {
		rep, err := run(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if *out != "" {
			if err := appendReport(*out, rep); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		if err := printReport(rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}
