package experiments

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/tpch"
)

// The experiment harnesses run with tiny parameters here: the goal is to
// pin the *shape* assertions the paper makes and to guarantee every
// harness path stays runnable, not to produce steady numbers.

func init() {
	Budget = 5 * time.Millisecond
}

func TestSynthPFORRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := SynthPFOR(rng, 100_000, 8, 0.3)
	window := int64(1) << 8
	exc := 0
	for _, v := range vals {
		if v >= window {
			exc++
		}
	}
	rate := float64(exc) / float64(len(vals))
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("exception rate %.3f, want ~0.3", rate)
	}
}

func TestTimeIt(t *testing.T) {
	calls := 0
	secs := TimeIt(time.Millisecond, func() { calls++; time.Sleep(100 * time.Microsecond) })
	if calls < 2 {
		t.Fatalf("TimeIt made %d calls", calls)
	}
	if secs < 50e-6 || secs > 10e-3 {
		t.Fatalf("per-call estimate %.6fs implausible", secs)
	}
}

func TestFig4Harness(t *testing.T) {
	var buf bytes.Buffer
	Fig4(&buf, 1<<14)
	out := buf.String()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "NAIVE") {
		t.Fatalf("missing content: %s", out)
	}
	// 9 exception rates -> 9 data rows.
	if rows := strings.Count(out, "\n") - 4; rows != 9 {
		t.Fatalf("want 9 rows, output:\n%s", out)
	}
}

func TestFig5Fig6Fig7Harnesses(t *testing.T) {
	var buf bytes.Buffer
	Fig5(&buf, 1<<14)
	Fig6(&buf, 1<<14)
	Fig7(&buf, 1<<16)
	for _, want := range []string{"Figure 5", "Figure 6", "Figure 7", "vector-wise"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestFig2Harness(t *testing.T) {
	var buf bytes.Buffer
	Fig2(&buf, 0.001)
	out := buf.String()
	for _, want := range []string{"l_orderkey", "lzrw1", "zlib(flate)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	if !strings.Contains(buf.String(), "78%") {
		t.Fatal("Table 1 content")
	}
}

func TestRunQueryAccounting(t *testing.T) {
	com := BuildTPCH(0.002, tpch.DSM, true, LowEndRAID)
	run := com.RunQuery("06", 1<<30, tpch.VectorWise)
	if run.Ratio <= 1 {
		t.Fatalf("compressed config ratio %.2f", run.Ratio)
	}
	if run.IOTime <= 0 || run.CPUTime <= 0 {
		t.Fatal("missing time accounting")
	}
	if run.Total < run.CPUTime || run.Total < run.IOTime {
		t.Fatal("total must be max(cpu, io)")
	}
	if run.Decompress <= 0 || run.Decompress > run.CPUTime {
		t.Fatalf("decompress %v vs cpu %v", run.Decompress, run.CPUTime)
	}

	// The I/O meter. IOTime is bytes fetched over one bandwidth, so it
	// orders configurations by the bytes they fetch.
	unc := BuildTPCH(0.002, tpch.DSM, false, LowEndRAID)
	if u := unc.RunQuery("06", 1<<30, tpch.VectorWise); run.IOTime >= u.IOTime {
		t.Fatalf("compressed Q6 fetched for %v, uncompressed for %v", run.IOTime, u.IOTime)
	}
	if p := com.as(tpch.PAX).RunQuery("06", 1<<30, tpch.VectorWise); p.IOTime < run.IOTime {
		t.Fatalf("PAX Q6 fetched for %v, less than DSM's %v", p.IOTime, run.IOTime)
	}
	db := com.Image.Open(tpch.DSM, tpch.VectorWise, 1<<30)
	cold, _ := com.run(db, "06")
	warm, _ := com.run(db, "06")
	if cold.IOTime != run.IOTime || warm.IOTime != 0 {
		t.Fatalf("cold run fetched for %v (want %v), run on the warm pool for %v (want 0)",
			cold.IOTime, run.IOTime, warm.IOTime)
	}
	if warm.Decompress <= 0 || warm.Decompress > warm.CPUTime {
		t.Fatalf("warm run: decompress %v vs cpu %v", warm.Decompress, warm.CPUTime)
	}
}

func TestCompressionSpeedsUpIOBoundQueries(t *testing.T) {
	// The Table 2 headline at harness level: on the slow RAID, the
	// compressed run of the scan-heavy Q6 beats the uncompressed run.
	unc := BuildTPCH(0.005, tpch.DSM, false, LowEndRAID)
	com := BuildTPCH(0.005, tpch.DSM, true, LowEndRAID)
	u := unc.RunQuery("06", 1<<30, tpch.VectorWise)
	c := com.RunQuery("06", 1<<30, tpch.VectorWise)
	if c.Total >= u.Total {
		t.Fatalf("compressed Q6 %v should beat uncompressed %v", c.Total, u.Total)
	}
	// And the win should be broadly in line with the ratio (I/O bound).
	// I/O time is bytes over bandwidth, CPU time is this build's: one disk
	// (an eighth of the 4-disk RAID's bandwidth) keeps the query I/O bound
	// under the race detector too, whose ~15x slower pipeline falls behind
	// the 4-disk RAID's compressed stream.
	oneDisk := RAIDConfig{"1 disk", 10}
	unc.RAID, com.RAID = oneDisk, oneDisk
	u = unc.RunQuery("06", 1<<30, tpch.VectorWise)
	c = com.RunQuery("06", 1<<30, tpch.VectorWise)
	speedup := float64(u.Total) / float64(c.Total)
	if speedup < c.Ratio/3 {
		t.Fatalf("speedup %.2f too far below ratio %.2f for an I/O-bound query", speedup, c.Ratio)
	}
}

func TestVectorWiseBeatsPageWise(t *testing.T) {
	// At this scale a run is a few milliseconds, long enough for the sum
	// to absorb a scheduler stall, and the four decoded columns (10 MB)
	// no longer fit the cache page-wise reads them back from.
	cfg := BuildTPCH(0.05, tpch.DSM, true, MidEndRAID)
	// Compare CPU time over a few runs to damp scheduler noise.
	var pw, vw time.Duration
	for i := 0; i < 3; i++ {
		pw += cfg.RunQuery("06", 1<<30, tpch.PageWise).CPUTime
		vw += cfg.RunQuery("06", 1<<30, tpch.VectorWise).CPUTime
	}
	if vw > pw*3/2 {
		t.Fatalf("vector-wise CPU %v should not lose badly to page-wise %v", vw, pw)
	}
}

func TestTable2HarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	Table2(&buf, 0.002, LowEndRAID, 1<<30)
	out := buf.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "21") {
		t.Fatalf("Table 2 incomplete:\n%s", out)
	}
}

func TestTable3AndFig8HarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	Table3(&buf, 0.002, MidEndRAID, 1<<30)
	Fig8(&buf, 0.002, LowEndRAID, tpch.DSM, 1<<30)
	for _, want := range []string{"Table 3", "Figure 8", "vector-wise"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestTable4HarnessSmoke(t *testing.T) {
	var buf bytes.Buffer
	Table4(&buf, 30_000)
	out := buf.String()
	for _, want := range []string{"INEX", "TREC fbis", "PFOR-DELTA", "carryover-12", "shuff"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestEquilibriumHarnessSmoke(t *testing.T) {
	var buf bytes.Buffer
	Equilibrium(&buf, 0) // auto-scaled RAID
	out := buf.String()
	if !strings.Contains(out, "equilibrium C") {
		t.Fatalf("missing equilibrium output:\n%s", out)
	}
	// PFOR-DELTA must clear the bar on the auto-scaled RAID.
	if !strings.Contains(out, "faster") {
		t.Fatalf("no codec cleared the equilibrium:\n%s", out)
	}
}

func TestModelCheck(t *testing.T) {
	var buf bytes.Buffer
	ModelCheck(&buf, LowEndRAID, 4, 2000, 3000)
	if !strings.Contains(buf.String(), "I/O bound") {
		t.Fatalf("slow RAID with fast CPU should be I/O bound:\n%s", buf.String())
	}
}
