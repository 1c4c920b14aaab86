package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/iomodel"
	"repro/internal/report"
	"repro/internal/simcpu"
	"repro/internal/tpch"
)

// Table1 reprints the published TPC-H 100GB hardware-cost table (the
// paper's motivation: 61-78% of system price is disks).
func Table1(w io.Writer) {
	tbl := report.NewTable("Table 1: TPC-H 100GB component cost (published data)",
		"CPUs", "RAM", "disks", "disk share")
	tbl.Row("4x Power5 1650MHz (9%)", "32GB (13%)", "42x36GB = 1.6TB", "78%")
	tbl.Row("4x Itanium2 1500MHz (24%)", "32GB (15%)", "112x18GB = 1.9TB", "61%")
	tbl.Row("4x Xeon MP 2800MHz (25%)", "4GB (3%)", "74x18GB = 1.2TB", "72%")
	tbl.Row("4x Xeon MP 2000MHz (30%)", "8GB (7%)", "85x18GB = 1.6TB", "63%")
	tbl.Print(w)
}

// RAIDConfig describes one simulated I/O subsystem of Table 2.
type RAIDConfig struct {
	Name          string
	BandwidthMBps float64
}

// The paper's two machines: a 4-disk RAID (~80MB/s) and a 12-disk RAID
// (~350MB/s).
var (
	LowEndRAID = RAIDConfig{"4-disk RAID", 80}
	MidEndRAID = RAIDConfig{"12-disk RAID", 350}
)

// QueryRun is one measured query execution.
type QueryRun struct {
	Query      string
	Ratio      float64       // compression ratio of the data the query scans
	DecSpeed   float64       // MB/s of uncompressed data produced by decompression
	CPUTime    time.Duration // wall time of processing incl. decompression
	Decompress time.Duration // wall time inside decompression
	IOTime     time.Duration // virtual disk time for the bytes read
	Total      time.Duration // max(CPU, IO): overlapped I/O model
}

// IOStall returns the time the CPU would wait on the disk.
func (r QueryRun) IOStall() time.Duration {
	if r.IOTime > r.CPUTime {
		return r.IOTime - r.CPUTime
	}
	return 0
}

// TPCHConfig is one (layout, compression) configuration over a dataset
// stored on one simulated RAID.
type TPCHConfig struct {
	Image  *tpch.Image // the stored containers; every run opens them cold
	Layout tpch.Layout
	RAID   RAIDConfig
}

// BuildTPCH generates and stores a dataset configuration.
func BuildTPCH(sf float64, layout tpch.Layout, compress bool, raid RAIDConfig) *TPCHConfig {
	return &TPCHConfig{Image: tpch.Store(tpch.Generate(sf, 42), compress), Layout: layout, RAID: raid}
}

// as returns cfg under another layout, sharing its stored containers:
// the layout decides what a scan fetches, not what is stored.
func (cfg *TPCHConfig) as(layout tpch.Layout) *TPCHConfig {
	c := *cfg
	c.Layout = layout
	return &c
}

// RunQuery executes one query cold (empty buffer pool) and returns its
// measurements. bufBytes models the paper's 4GB RAM, scaled.
func (cfg *TPCHConfig) RunQuery(q string, bufBytes int64, mode tpch.Mode) QueryRun {
	run, _ := cfg.RunQueryResult(q, bufBytes, mode)
	return run
}

// RunQueryResult is RunQuery keeping the query's materialized result, so
// harnesses can cross-check configurations against each other.
func (cfg *TPCHConfig) RunQueryResult(q string, bufBytes int64, mode tpch.Mode) (QueryRun, [][]int64) {
	return cfg.run(cfg.Image.Open(cfg.Layout, mode, bufBytes), q)
}

// run executes q on an open database and measures what that execution
// added to db's accounting, so a second run shows the warm buffer pool.
func (cfg *TPCHConfig) run(db *tpch.DB, q string) (QueryRun, [][]int64) {
	fetched, decompress := db.BytesFetched(), db.DecompressTime()
	start := time.Now()
	res := tpch.Queries[q](db)
	cpu := time.Since(start)
	fetched = db.BytesFetched() - fetched

	run := QueryRun{
		Query:      q,
		CPUTime:    cpu,
		Decompress: db.DecompressTime() - decompress,
		IOTime:     time.Duration(float64(fetched) / (cfg.RAID.BandwidthMBps * 1e6) * float64(time.Second)),
	}
	run.Total = max(run.CPUTime, run.IOTime)
	// Per-query compression ratio over the columns the query's scans fetch.
	var unc, comp int64
	for rel, cols := range tpch.ScanColumns[q] {
		u, c := db.ScanBytes(rel, cols...)
		unc, comp = unc+u, comp+c
	}
	if comp > 0 {
		run.Ratio = float64(unc) / float64(comp)
	}
	if d := run.Decompress.Seconds(); d > 0 {
		run.DecSpeed = float64(unc) / d / 1e6
	}
	return run, res
}

// Table2 reproduces Table 2: per-query compression ratios, decompression
// speed, and runtimes for DSM and PAX, uncompressed and compressed, on one
// RAID configuration. Every configuration's result is compared against
// the uncompressed DSM run; the number of diverging (query, config)
// pairs is returned, zero when all four paths agree on every query.
func Table2(w io.Writer, sf float64, raid RAIDConfig, bufBytes int64) int {
	tbl := report.NewTable(
		fmt.Sprintf("Table 2: TPC-H SF-%g on %s (times in ms; unc=uncompressed, compr=compressed)", sf, raid.Name),
		"query", "DSM ratio", "PAX ratio", "dec.speed MB/s",
		"DSM unc", "DSM compr", "PAX unc", "PAX compr", "DSM speedup", "match")

	dsmU := BuildTPCH(sf, tpch.DSM, false, raid)
	dsmC := BuildTPCH(sf, tpch.DSM, true, raid)
	paxU, paxC := dsmU.as(tpch.PAX), dsmC.as(tpch.PAX)

	diverged := 0
	for _, q := range tpch.QueryOrder {
		du, want := dsmU.RunQueryResult(q, bufBytes, tpch.VectorWise)
		dc, dcRes := dsmC.RunQueryResult(q, bufBytes, tpch.VectorWise)
		pu, puRes := paxU.RunQueryResult(q, bufBytes, tpch.VectorWise)
		pc, pcRes := paxC.RunQueryResult(q, bufBytes, tpch.VectorWise)
		speedup := 0.0
		if dc.Total > 0 {
			speedup = float64(du.Total) / float64(dc.Total)
		}
		match := true
		for _, res := range [][][]int64{dcRes, puRes, pcRes} {
			if !tpch.ResultsEqual(res, want) {
				match = false
				diverged++
			}
		}
		tbl.Row(q, dc.Ratio, pc.Ratio, dc.DecSpeed,
			ms(du.Total), ms(dc.Total), ms(pu.Total), ms(pc.Total), speedup, match)
	}
	tbl.Print(w)
	return diverged
}

// Table3 reproduces Table 3: I/O-RAM (page-wise) versus RAM-CPU cache
// (vector-wise) decompression on queries 3, 4, 6 and 18 — query time plus
// the L2 misses of a simulated replay of each mode's traffic pattern.
func Table3(w io.Writer, sf float64, raid RAIDConfig, bufBytes int64) {
	tbl := report.NewTable("Table 3: page-wise vs vector-wise decompression",
		"query", "page-wise ms", "pw L2 misses (M)", "vector-wise ms", "vw L2 misses (M)")

	cfg := BuildTPCH(sf, tpch.DSM, true, raid)
	for _, q := range []string{"03", "04", "06", "18"} {
		pw := cfg.RunQuery(q, bufBytes, tpch.PageWise)
		vw := cfg.RunQuery(q, bufBytes, tpch.VectorWise)

		// Replay each mode's memory traffic through the cache model,
		// sized by the bytes the query actually scanned.
		var unc int64
		for rel, cols := range tpch.ScanColumns[q] {
			unc += int64(cfg.Image.DS.Rel(rel).Rows()) * int64(len(cols)) * 8
		}
		ratio := pw.Ratio
		if ratio <= 0 {
			ratio = 1
		}
		pwSim := simcpu.ReplayPagewiseDecompress(simcpu.NewHierarchy(), int(unc), ratio)
		vwSim := simcpu.ReplayVectorwiseDecompress(simcpu.NewHierarchy(), int(unc), 64<<10, ratio)
		tbl.Row(q, ms(pw.CPUTime), float64(pwSim.L2Misses)/1e6,
			ms(vw.CPUTime), float64(vwSim.L2Misses)/1e6)
	}
	tbl.Print(w)
}

// Fig8 reproduces Figure 8: per-query time split into decompression, other
// CPU, and I/O stalls, normalized to the uncompressed run.
func Fig8(w io.Writer, sf float64, raid RAIDConfig, layout tpch.Layout, bufBytes int64) {
	tbl := report.NewTable(
		fmt.Sprintf("Figure 8: time split on %s, %s (%% of uncompressed query time)", raid.Name, layout),
		"query", "unc total ms", "compr total ms",
		"decompress %", "processing %", "IO stall %", "total %")

	unc := BuildTPCH(sf, layout, false, raid)
	com := BuildTPCH(sf, layout, true, raid)
	for _, q := range tpch.QueryOrder {
		u := unc.RunQuery(q, bufBytes, tpch.VectorWise)
		c := com.RunQuery(q, bufBytes, tpch.VectorWise)
		base := float64(u.Total)
		if base == 0 {
			continue
		}
		dec := 100 * float64(c.Decompress) / base
		proc := 100 * float64(c.CPUTime-c.Decompress) / base
		stall := 100 * float64(c.IOStall()) / base
		tbl.Row(q, ms(u.Total), ms(c.Total), dec, proc, stall,
			100*float64(c.Total)/base)
	}
	tbl.Print(w)
}

// ModelCheck prints equation 3.1 predictions next to a measured
// configuration, connecting the analytic model to the harness.
func ModelCheck(w io.Writer, raid RAIDConfig, ratio, qMBps, cMBps float64) {
	tbl := report.NewTable("Equation 3.1 check", "quantity", "value")
	r, ioBound := iomodel.ResultBandwidth(iomodel.Params{B: raid.BandwidthMBps, R: ratio, Q: qMBps, C: cMBps})
	regime := "CPU bound"
	if ioBound {
		regime = "I/O bound"
	}
	tbl.Row("result bandwidth MB/s", r)
	tbl.Row("regime", regime)
	tbl.Row("speedup vs uncompressed", iomodel.SpeedupFromCompression(iomodel.Params{B: raid.BandwidthMBps, R: ratio, Q: qMBps, C: cMBps}))
	tbl.Print(w)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
