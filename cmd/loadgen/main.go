// Command loadgen drives a zkserve server with N concurrent clients and
// reports what the server sustained: request and row throughput,
// aggregate payload MB/s, p50/p90/p99 latency, and how much load the
// server shed with 429s. Each client loops scan requests whose predicate
// windows cycle through a selectivity mix, so the server sees a blend of
// zone-map-prunable narrow scans and full-table sweeps.
//
// Modes: rows (binary ZKR1 row streams through client.ScanRows; payload
// MB/s counts their binary bytes), frames (raw compressed ZKC2 frames,
// optionally decoded client-side with -decode), agg (aggregate pushdown,
// one JSON object per query), mixed (80% rows, 10% agg, 10% frames).
//
// Examples:
//
//	loadgen -url http://127.0.0.1:8080 -clients 200 -duration 10s
//	loadgen -url http://127.0.0.1:8080 -clients 1000 -mode mixed -format json
//
// With -require-ok the exit code is non-zero unless at least one scan
// succeeded — the CI gate for "the service actually served". -retry N
// re-attempts 429/5xx responses with jittered backoff (honoring the
// server's Retry-After), reporting retries separately from failures;
// -skip-corrupt opts every query into degraded scans, whose lost rows
// show up in the report rather than as errors; -any-of replaces each
// predicate window with a two-branch any_of disjunction, exercising the
// server's compressed-domain OR path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/zkserve"
	"repro/zkserve/client"
	"repro/zukowski"
)

type clientStats struct {
	latenciesNs []int64
	ok          int64
	rejected    int64
	failed      int64
	truncated   int64
	degraded    int64
	retries     int64
	rowsLost    int64
	rows        int64
	bytes       int64
}

// Report is the JSON output.
type Report struct {
	URL        string  `json:"url"`
	Table      string  `json:"table"`
	Mode       string  `json:"mode"`
	Clients    int     `json:"clients"`
	DurationS  float64 `json:"duration_s"`
	Requests   int64   `json:"requests"`
	OK         int64   `json:"ok"`
	Rejected   int64   `json:"rejected"` // 429 admission refusals
	Failed     int64   `json:"failed"`
	Truncated  int64   `json:"truncated"`
	Degraded   int64   `json:"degraded"` // scans that completed but lost blocks
	Retries    int64   `json:"retries"`  // extra attempts spent by -retry (not failures)
	RowsLost   int64   `json:"rows_lost"`
	Rows       int64   `json:"rows"`
	Bytes      int64   `json:"bytes"`
	QPS        float64 `json:"qps"`
	RowsPerSec float64 `json:"rows_per_sec"`
	MBPerSec   float64 `json:"mb_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`

	// Server-side hot-block cache activity over this run (deltas of the
	// /metrics counters between start and finish).
	CacheEnabled bool    `json:"cache_enabled"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

func main() {
	var (
		url       = flag.String("url", "http://127.0.0.1:8080", "zkserve server base URL")
		table     = flag.String("table", "", "table to scan (default: first listed)")
		colsFlag  = flag.String("cols", "", "comma-separated output columns (default: first two)")
		clients   = flag.Int("clients", 50, "concurrent clients")
		duration  = flag.Duration("duration", 10*time.Second, "how long to drive load")
		mixFlag   = flag.String("mix", "0.001,0.01,0.1", "comma-separated predicate selectivities to cycle through")
		mode      = flag.String("mode", "rows", "rows, frames, agg or mixed")
		workers   = flag.Int("workers", 0, "per-scan parallelism to request (0 = sequential)")
		maxRows   = flag.Int64("max-rows", 0, "per-query row budget to request (0 = none)")
		timeoutMS = flag.Int64("timeout-ms", 0, "per-query time budget to request (0 = none)")
		decode    = flag.Bool("decode", false, "frames mode: decode every received frame client-side")
		format    = flag.String("format", "text", "text or json")
		requireOK = flag.Bool("require-ok", false, "exit non-zero unless at least one scan succeeded")
		maxP99MS  = flag.Float64("max-p99-ms", 0, "exit non-zero if p99 latency exceeds this many ms (0 = no gate)")
		retry     = flag.Int("retry", 0, "attempts per query on 429/5xx, honoring Retry-After (0/1 = no retries); retries report separately from failures")
		skipBad   = flag.Bool("skip-corrupt", false, "request degraded scans: corrupt blocks are skipped server-side and reported as rows_lost")
		anyOf     = flag.Bool("any-of", false, "send each predicate as a two-branch any_of disjunction (two windows of half the selectivity each)")
	)
	flag.Parse()

	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: bad -mix: %v\n", err)
		os.Exit(2)
	}
	switch *mode {
	case "rows", "frames", "agg", "mixed":
	default:
		fmt.Fprintf(os.Stderr, "loadgen: bad -mode %q\n", *mode)
		os.Exit(2)
	}

	// One transport sized for the fleet: every client keeps one
	// connection alive, so the pool must hold them all or the run
	// measures TIME_WAIT churn instead of the server.
	tr := &http.Transport{
		MaxIdleConns:        *clients + 8,
		MaxIdleConnsPerHost: *clients + 8,
		IdleConnTimeout:     90 * time.Second,
	}
	cl := client.New(*url, &http.Client{Transport: tr})

	ctx := context.Background()
	tables, err := cl.Tables(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: listing tables: %v\n", err)
		os.Exit(1)
	}
	meta, err := pickTable(tables, *table)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	cols := pickCols(meta, *colsFlag)
	predCol, predLo, predHi := pickPredCol(meta)
	if predCol == "" {
		fmt.Fprintf(os.Stderr, "loadgen: table %q has no zone-mapped column; scanning without predicates\n", meta.Name)
	}
	if *anyOf && !hasFeature(tables, "any_of") {
		fmt.Fprintln(os.Stderr, "loadgen: server does not advertise the any_of feature")
		os.Exit(1)
	}

	cacheBefore := scrapeCache(*url)

	deadline := time.Now().Add(*duration)
	stats := make([]clientStats, *clients)
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 1))
			st := &stats[i]
			for k := 0; time.Now().Before(deadline); k++ {
				sel := mix[k%len(mix)]
				req := zkserve.ScanRequest{
					Table:       meta.Name,
					Cols:        cols,
					MaxRows:     *maxRows,
					TimeoutMS:   *timeoutMS,
					Workers:     *workers,
					SkipCorrupt: *skipBad,
				}
				if predCol != "" {
					if *anyOf {
						lo1, hi1 := predWindow(rng, predLo, predHi, sel/2)
						lo2, hi2 := predWindow(rng, predLo, predHi, sel/2)
						req.AnyOf = client.AnyOf(
							[]zkserve.PredSpec{{Col: predCol, Lo: &lo1, Hi: &hi1}},
							[]zkserve.PredSpec{{Col: predCol, Lo: &lo2, Hi: &hi2}},
						)
					} else {
						lo, hi := predWindow(rng, predLo, predHi, sel)
						req.Preds = []zkserve.PredSpec{{Col: predCol, Lo: &lo, Hi: &hi}}
					}
				}
				m := *mode
				if m == "mixed" {
					switch k % 10 {
					case 8:
						m = "agg"
					case 9:
						m = "frames"
					default:
						m = "rows"
					}
				}
				start := time.Now()
				var res oneResult
				var err error
				if *retry > 1 {
					attempts, derr := client.DoWithRetry(ctx, client.RetryPolicy{MaxAttempts: *retry, BaseDelay: 5 * time.Millisecond}, func() error {
						var oerr error
						res, oerr = runOne(ctx, cl, m, req, *decode)
						return oerr
					})
					st.retries += int64(attempts - 1)
					err = derr
				} else {
					res, err = runOne(ctx, cl, m, req, *decode)
				}
				lat := time.Since(start)
				switch {
				case err == nil:
					st.ok++
					st.rows += res.rows
					st.bytes += res.bytes
					st.rowsLost += res.rowsLost
					if res.truncated {
						st.truncated++
					}
					if res.degraded {
						st.degraded++
					}
					st.latenciesNs = append(st.latenciesNs, int64(lat))
				case client.IsSaturated(err):
					st.rejected++
					time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
				default:
					st.failed++
				}
			}
		}(i)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)
	if elapsed > *duration {
		elapsed = *duration // clients stop at the deadline; don't count spawn skew twice
	}

	rep := merge(stats, elapsed)
	rep.URL, rep.Table, rep.Mode, rep.Clients = *url, meta.Name, *mode, *clients
	if cacheAfter := scrapeCache(*url); cacheBefore.ok && cacheAfter.ok {
		rep.CacheEnabled = cacheAfter.enabled
		rep.CacheHits = cacheAfter.hits - cacheBefore.hits
		rep.CacheMisses = cacheAfter.misses - cacheBefore.misses
		if total := rep.CacheHits + rep.CacheMisses; total > 0 {
			rep.CacheHitRate = float64(rep.CacheHits) / float64(total)
		}
	}
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		printText(rep)
	}
	if *requireOK && rep.OK == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no scan succeeded")
		os.Exit(1)
	}
	if *maxP99MS > 0 && rep.OK > 0 && rep.P99Ms > *maxP99MS {
		fmt.Fprintf(os.Stderr, "loadgen: p99 %.2fms exceeds gate %.2fms\n", rep.P99Ms, *maxP99MS)
		os.Exit(1)
	}
}

// cacheCounters is one /metrics snapshot of the server's cache series.
type cacheCounters struct {
	ok      bool
	enabled bool
	hits    int64
	misses  int64
}

// scrapeCache reads the hot-block cache counters from /metrics. A server
// without the series (or an unreachable one) yields ok=false and the
// report simply omits cache activity.
func scrapeCache(base string) cacheCounters {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return cacheCounters{}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return cacheCounters{}
	}
	var c cacheCounters
	var seen int
	for line := range strings.SplitSeq(string(body), "\n") {
		var v int64
		switch {
		case scanMetric(line, "zkserve_cache_hits_total", &v):
			c.hits, seen = v, seen+1
		case scanMetric(line, "zkserve_cache_misses_total", &v):
			c.misses, seen = v, seen+1
		case scanMetric(line, "zkserve_cache_enabled", &v):
			c.enabled, seen = v != 0, seen+1
		}
	}
	c.ok = seen == 3
	return c
}

func scanMetric(line, name string, v *int64) bool {
	_, err := fmt.Sscanf(line, name+" %d", v)
	return err == nil
}

// oneResult is what one query contributed to the report.
type oneResult struct {
	rows, bytes, rowsLost int64
	truncated, degraded   bool
}

func fromScan(res client.ScanResult) oneResult {
	return oneResult{
		rows: res.Rows, bytes: res.Bytes, rowsLost: res.RowsLost,
		truncated: res.Truncated, degraded: res.Degraded,
	}
}

func runOne(ctx context.Context, cl *client.Client, mode string, req zkserve.ScanRequest, decode bool) (oneResult, error) {
	switch mode {
	case "agg":
		req.Agg = "all"
		resp, err := cl.Aggregate(ctx, req)
		if err != nil {
			return oneResult{}, err
		}
		return oneResult{rows: resp.Result.Count, rowsLost: resp.RowsLost, degraded: resp.Degraded}, nil
	case "frames":
		var dec zukowski.FrameDecoder[int64]
		var buf []int64
		res, err := cl.ScanFrames(ctx, req, func(cols []zkserve.FrameStreamCol, blk *zkserve.FrameBlock) bool {
			if decode {
				for i, frame := range blk.Frames {
					if cols[i].WidthBytes != 8 {
						continue
					}
					if out, derr := dec.Decode(buf[:0], frame); derr == nil {
						buf = out
					}
				}
			}
			return true
		})
		return fromScan(res), err
	default:
		res, err := cl.ScanRows(ctx, req, nil)
		return fromScan(res), err
	}
}

func parseMix(s string) ([]float64, error) {
	var mix []float64
	for _, f := range strings.Split(s, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%g", &v); err != nil {
			return nil, err
		}
		if v <= 0 || v > 1 {
			return nil, fmt.Errorf("selectivity %g out of (0, 1]", v)
		}
		mix = append(mix, v)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return mix, nil
}

func pickTable(tables zkserve.TablesResponse, want string) (zkserve.TableMeta, error) {
	if len(tables.Tables) == 0 {
		return zkserve.TableMeta{}, fmt.Errorf("server lists no tables")
	}
	if want == "" {
		return tables.Tables[0], nil
	}
	for _, t := range tables.Tables {
		if t.Name == want {
			return t, nil
		}
	}
	return zkserve.TableMeta{}, fmt.Errorf("server has no table %q", want)
}

func pickCols(meta zkserve.TableMeta, flagVal string) []string {
	if flagVal != "" {
		return strings.Split(flagVal, ",")
	}
	var cols []string
	for _, c := range meta.Columns {
		cols = append(cols, c.Name)
		if len(cols) == 2 {
			break
		}
	}
	return cols
}

// hasFeature reports whether the server advertised the named
// scan-protocol capability in its /tables listing.
func hasFeature(tables zkserve.TablesResponse, f string) bool {
	for _, have := range tables.Features {
		if have == f {
			return true
		}
	}
	return false
}

// pickPredCol chooses the first zone-mapped column as the predicate
// target, returning its value range for the selectivity windows.
func pickPredCol(meta zkserve.TableMeta) (string, int64, int64) {
	for _, c := range meta.Columns {
		if c.HasMinMax && c.Max > c.Min {
			return c.Name, c.Min, c.Max
		}
	}
	return "", 0, 0
}

// predWindow returns a random [lo, hi] window covering sel of the
// column's value range.
func predWindow(rng *rand.Rand, cmin, cmax int64, sel float64) (int64, int64) {
	span := cmax - cmin
	width := int64(float64(span) * sel)
	if width < 1 {
		width = 1
	}
	lo := cmin
	if span > width {
		lo = cmin + rng.Int63n(span-width)
	}
	return lo, lo + width
}

func merge(stats []clientStats, elapsed time.Duration) Report {
	var rep Report
	var lats []int64
	for i := range stats {
		st := &stats[i]
		rep.OK += st.ok
		rep.Rejected += st.rejected
		rep.Failed += st.failed
		rep.Truncated += st.truncated
		rep.Degraded += st.degraded
		rep.Retries += st.retries
		rep.RowsLost += st.rowsLost
		rep.Rows += st.rows
		rep.Bytes += st.bytes
		lats = append(lats, st.latenciesNs...)
	}
	rep.Requests = rep.OK + rep.Rejected + rep.Failed
	rep.DurationS = elapsed.Seconds()
	if rep.DurationS > 0 {
		rep.QPS = float64(rep.OK) / rep.DurationS
		rep.RowsPerSec = float64(rep.Rows) / rep.DurationS
		rep.MBPerSec = float64(rep.Bytes) / rep.DurationS / 1e6
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) float64 {
			i := int(p * float64(len(lats)-1))
			return float64(lats[i]) / 1e6
		}
		rep.P50Ms, rep.P90Ms, rep.P99Ms = pct(0.50), pct(0.90), pct(0.99)
		rep.MaxMs = float64(lats[len(lats)-1]) / 1e6
	}
	return rep
}

func printText(rep Report) {
	fmt.Printf("loadgen: %d clients against %s table %q (%s mode) for %.1fs\n",
		rep.Clients, rep.URL, rep.Table, rep.Mode, rep.DurationS)
	fmt.Printf("  requests   %d  (ok %d, rejected %d, failed %d, truncated %d)\n",
		rep.Requests, rep.OK, rep.Rejected, rep.Failed, rep.Truncated)
	if rep.Retries > 0 || rep.Degraded > 0 {
		fmt.Printf("  resilience %d retries spent; %d scans degraded, %d rows lost to corrupt blocks\n",
			rep.Retries, rep.Degraded, rep.RowsLost)
	}
	fmt.Printf("  throughput %.0f scans/s, %.0f rows/s, %.2f MB/s payload\n",
		rep.QPS, rep.RowsPerSec, rep.MBPerSec)
	fmt.Printf("  latency    p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
		rep.P50Ms, rep.P90Ms, rep.P99Ms, rep.MaxMs)
	if rep.CacheEnabled {
		fmt.Printf("  cache      %d hits, %d misses (%.1f%% hit rate)\n",
			rep.CacheHits, rep.CacheMisses, 100*rep.CacheHitRate)
	}
}
