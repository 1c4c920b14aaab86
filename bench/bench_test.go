package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/zukowski"
)

// smokeConfig is the benchmark shrunk to a 65,536-row table and 1 s
// windows; everything else is what a real run does.
func smokeConfig(t testing.TB) config {
	cfg := defaultConfig()
	cfg.seconds = 1
	cfg.outDir = t.TempDir()
	cfg.segs, cfg.segRows = 4, 1<<14
	cfg.ingestSegs, cfg.ingestSegRows = 8, 1<<13
	return cfg
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogueMatchesBenchmarkFile holds the two copies of the metric
// and workload lists equal.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end of BENCHMARK.json differs from the catalogue:\n%+v\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer of BENCHMARK.json differs from the catalogue:\n%+v\n%+v", bf.PerLayer, perLayer)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
	}
	if float64(bf.RunSeconds) != defaultConfig().seconds {
		t.Errorf("run_seconds is %d, the default window %g", bf.RunSeconds, defaultConfig().seconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q is not a legal name", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs all four workloads, timed and traced, and checks that
// every metric BENCHMARK.json names comes out once, with its unit and a
// finite value, and that the layers' self shares sum to 1.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	cfg := smokeConfig(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg.trace = trace
			rep, err := run(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", w.name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.FirstErr)
			}
			defs := bf.EndToEnd
			if trace {
				defs = bf.PerLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(rep.Metrics), len(defs))
			}
			shares := 0.0
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s is %v", w.name, d.Name, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.Name, m.Value)
				}
				if strings.HasSuffix(d.Name, ".self_share") {
					shares += m.Value
				}
			}
			if trace {
				if math.Abs(shares-1) > 0.02 {
					t.Errorf("%s: self shares sum to %v, want 1", w.name, shares)
				}
				if _, err := os.Stat(cfg.outDir + "/trace_" + w.name + ".json"); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
	// Nothing of the tables is left behind, only the traces.
	ents, err := os.ReadDir(cfg.outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "trace_") {
			t.Errorf("run left %s behind", e.Name())
		}
	}
}

// TestTracedCountsRepeat: the traced replay is a fixed list of operations,
// so its counts are the same on every run of a seed.
func TestTracedCountsRepeat(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.trace = true
	cfg.segRows, cfg.ingestSegRows = 1<<12, 1<<12 // one block per segment and column is enough
	counts := []string{
		"zukowski.query.blocks_pruned", "zukowski.query.blocks_evaluated", "zukowski.query.rows_selected",
		"zktable.bytes_written", "zktable.writes", "zukowski.codec.ratio", "core.exception_rate",
	}
	for _, name := range []string{"select_cold", "ingest_scan"} {
		w, _ := findWorkload(name)
		a, err := run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range counts {
			if a.Metrics[c].Value != b.Metrics[c].Value {
				t.Errorf("%s: %s read %v, then %v", name, c, a.Metrics[c].Value, b.Metrics[c].Value)
			}
		}
	}
}

// TestGeneratorPinned pins what seed 1 generates: the inputs are a pure
// function of the seed, every column lands in the scheme it was shaped
// for, and each column's stored size is where it was when the benchmark
// was defined — so a compression-ratio regression cannot hide behind a
// speed gain.
func TestGeneratorPinned(t *testing.T) {
	cfg := smokeConfig(t)
	data := genTable(1, cfg.segs, cfg.segRows)
	if again := genTable(1, cfg.segs, cfg.segRows); !reflect.DeepEqual(data.cols, again.cols) {
		t.Fatal("genTable(1) generated two different tables")
	}
	if other := genTable(2, cfg.segs, cfg.segRows); reflect.DeepEqual(data.cols[colA], other.cols[colA]) {
		t.Fatal("seeds 1 and 2 generated the same column")
	}
	for _, w := range workloads {
		if w.queries == nil {
			continue
		}
		if a, b := w.queries(data, 1), w.queries(data, 1); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the query list of seed 1 differs between two calls", w.name)
		} else if len(a) != listLen {
			t.Errorf("%s: %d queries, want %d", w.name, len(a), listLen)
		}
	}
	if a, b := ingestReaderQueries(1), ingestReaderQueries(1); !reflect.DeepEqual(a, b) {
		t.Error("ingest_scan: the reader's list of seed 1 differs between two calls")
	}

	dir := t.TempDir()
	if _, err := buildTable(tableDir(dir), data, new(writeCount)); err != nil {
		t.Fatal(err)
	}
	lv, err := openLevel(tableDir(dir), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.tbl.Close()
	// Stored bytes per row, measured when the benchmark was defined.
	pinned := []struct {
		scheme      string
		bytesPerRow float64
	}{
		colK: {"PFOR-DELTA", pinK},
		colA: {"PFOR", pinA},
		colB: {"PFOR", pinB},
		colD: {"PDICT", pinD},
		colU: {"NONE", pinU},
	}
	for col, want := range pinned {
		schemes := map[string]int{}
		var stored, rows float64
		for _, rd := range lv.readers {
			for b := 0; b < rd[col].NumBlocks(); b++ {
				frame, err := rd[col].FrameBytes(b)
				if err != nil {
					t.Fatal(err)
				}
				st, err := zukowski.Inspect[int64](frame)
				if err != nil {
					t.Fatal(err)
				}
				schemes[st.Scheme]++
			}
			stored += float64(rd[col].CompressedBytes())
			rows += float64(rd[col].Len())
		}
		dominant, most := "", 0
		for s, n := range schemes {
			if n > most {
				dominant, most = s, n
			}
		}
		if dominant != want.scheme {
			t.Errorf("column %s: dominant scheme %s (%v), want %s", colNames[col], dominant, schemes, want.scheme)
		}
		got := stored / rows
		if math.Abs(got/want.bytesPerRow-1) > 0.02 {
			t.Errorf("column %s: %.5f stored bytes per row, pinned at %.4f", colNames[col], got, want.bytesPerRow)
		}
		if col != colU && got >= 8 {
			t.Errorf("column %s: %.3f stored bytes per row is not below the raw 8", colNames[col], got)
		}
	}
}

const (
	pinK = 0.4917
	pinA = 1.4696
	pinB = 2.8551
	pinD = 1.0117
	pinU = 8.0142
)

// TestGateCatchesWrongAnswers: an answer that differs from the oracle's
// fails the operation, whichever part of it differs.
func TestGateCatchesWrongAnswers(t *testing.T) {
	cfg := smokeConfig(t)
	w, _ := findWorkload("export_hot")
	fx, err := setUp(w, cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fx.s.stop()
	qs := w.queries(fx.data, cfg.seed)
	if got := gate(fx.s.base, qs); got.failed != 0 || got.attempted != listLen {
		t.Fatalf("gate on a correct server: %d of %d failed: %s", got.failed, got.attempted, got.firstErr)
	}
	qs[0].want.count++ // a row the server does not deliver
	qs[1].want.hash++  // a delivered value that differs
	if got := gate(fx.s.base, qs); got.failed != 2 {
		t.Errorf("gate let %d of 2 wrong answers pass: %s", 2-got.failed, got.firstErr)
	}

	// The oracle itself, on a table small enough to check by hand.
	tiny := &tableData{segs: 1, segRows: 4}
	tiny.cols[colA] = []int64{5, 10, 15, 20}
	tiny.cols[colB] = []int64{1, 2, 3, 4}
	q := query{kind: kindAgg, aggCol: colB, preds: []rangePred{{colA, 10, 20}}, anyOf: []rangePred{{colB, 2, 2}, {colB, 4, 9}}}
	if got, want := oracle(tiny, &q, 4), (answer{count: 2, sum: 6, min: 2, max: 4}); got != want {
		t.Errorf("oracle answered %+v, want %+v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "primary_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		d      metricDef
		change []float64
		want   string
	}{
		{lower, []float64{104, 105, 103, 104, 106}, "same"},
		{lower, []float64{115, 116, 114, 115, 117}, "worse"},
		{lower, []float64{80, 81, 79, 80, 82}, "same"}, // better is not worse
		{higher, []float64{85, 86, 84, 85, 87}, "worse"},
		{higher, []float64{115, 116, 114, 115, 117}, "same"},
		{lower, []float64{90, 130, 100, 140, 95}, "unresolved"},
	} {
		if got := verdict(c.d, base, c.change); got != c.want {
			t.Errorf("%s %v against %v: %s, want %s", c.d.Name, c.change, base, got, c.want)
		}
	}
}

// benchFixture serves a 262,144-row bt for the go test -bench entry points.
func benchFixture(b *testing.B) (*fixture, []query) {
	cfg := defaultConfig()
	cfg.segs, cfg.segRows = 4, 1<<16
	w, _ := findWorkload("select_hot")
	fx, err := setUp(w, cfg, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fx.s.stop() })
	return fx, w.queries(fx.data, cfg.seed)
}

// BenchmarkTableAggregate is zktable's aggregate scan over select_hot's
// plain aggregates, one query per iteration.
func BenchmarkTableAggregate(b *testing.B) {
	fx, qs := benchFixture(b)
	lv, err := openLevel(tableDir(fx.dir), fx.cacheBytes)
	if err != nil {
		b.Fatal(err)
	}
	defer lv.tbl.Close()
	var plain []query
	for _, q := range qs {
		if q.kind == kindAgg && len(q.anyOf) == 0 {
			plain = append(plain, q)
		}
	}
	b.SetBytes(fx.data.userBytes() / numCols * 3) // the three columns a query reads
	for i := 0; b.Loop(); i++ {
		q := &plain[i%len(plain)]
		agg, err := lv.tbl.AggregateWhereAllContext(context.Background(), enginePreds(q.preds), q.aggCol)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Count != q.want.count {
			b.Fatalf("query %d: count %d, oracle %d", q.id, agg.Count, q.want.count)
		}
	}
}

// BenchmarkServeHandler is Server.ServeHTTP called in process, no socket,
// over select_hot's whole list, one query per iteration.
func BenchmarkServeHandler(b *testing.B) {
	fx, qs := benchFixture(b)
	bodies := make([][]byte, len(qs))
	for i := range qs {
		var err error
		if bodies[i], err = json.Marshal(qs[i].request()); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; b.Loop(); i++ {
		k := i % len(qs)
		out := &sink{header: http.Header{}}
		fx.s.srv.ServeHTTP(out, scanRequest(context.Background(), &qs[k], bodies[k]))
		if out.status != http.StatusOK {
			b.Fatalf("query %d: status %d", qs[k].id, out.status)
		}
	}
}
