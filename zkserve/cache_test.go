package zkserve_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/zkserve"
)

// scrapeMetric pulls one un-labeled series value out of /metrics.
func scrapeMetric(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for line := range strings.SplitSeq(string(body), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestCacheServesRepeatScans: with WithCacheBytes set, the second
// frame-mode sweep over a table is answered from the cache
// — hits show up in the registry stats, /metrics and /tables — and both
// sweeps carry identical data.
func TestCacheServesRepeatScans(t *testing.T) {
	reg := newTestRegistry(t, zkserve.WithCacheBytes(64<<20))
	_, ts, cl := newTestServer(t, zkserve.Config{Registry: reg})

	sweep := func() (rows int64, frames int) {
		res, err := cl.ScanFrames(context.Background(), zkserve.ScanRequest{
			Table: "t", Cols: []string{"c0", "c1"},
		}, func(cols []zkserve.FrameStreamCol, blk *zkserve.FrameBlock) bool {
			frames += len(blk.Frames)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows, frames
	}
	rows1, frames1 := sweep()
	if rows1 != testRows {
		t.Fatalf("first sweep: %d rows", rows1)
	}
	cold := reg.CacheStats()
	if cold.Puts == 0 || cold.Hits != 0 {
		t.Fatalf("cold sweep stats: %+v", cold)
	}
	rows2, frames2 := sweep()
	if rows2 != rows1 || frames2 != frames1 {
		t.Fatalf("warm sweep diverged: %d rows / %d frames vs %d / %d", rows2, frames2, rows1, frames1)
	}
	warm := reg.CacheStats()
	if warm.Hits < cold.Puts {
		t.Fatalf("warm sweep hit %d times, want >= %d", warm.Hits, cold.Puts)
	}
	if warm.Puts != cold.Puts {
		t.Fatalf("warm sweep refilled the cache: %+v", warm)
	}

	if got := scrapeMetric(t, ts.URL, "zkserve_cache_hits_total"); got != warm.Hits {
		t.Fatalf("/metrics hits = %d, want %d", got, warm.Hits)
	}
	if got := scrapeMetric(t, ts.URL, "zkserve_cache_enabled"); got != 1 {
		t.Fatal("/metrics says cache disabled")
	}
	if got := scrapeMetric(t, ts.URL, "zkserve_cache_resident_bytes"); got != warm.Bytes {
		t.Fatalf("/metrics resident = %d, want %d", got, warm.Bytes)
	}

	tr, err := cl.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Cache.Enabled || tr.Cache.CapacityBytes != 64<<20 || tr.Cache.Entries != warm.Entries {
		t.Fatalf("/tables cache info: %+v", tr.Cache)
	}
}

// TestCacheRowScansAgree: row-mode results through a cache-enabled
// server match the cache-off server row for row, including under a tiny
// budget that churns mid-scan.
func TestCacheRowScansAgree(t *testing.T) {
	req := zkserve.ScanRequest{
		Table: "t", Cols: []string{"c0", "c1"},
		Preds: []zkserve.PredSpec{pred("c1", 100, 499)},
	}
	collect := func(cacheBytes int64) map[int64]int64 {
		reg := newTestRegistry(t, zkserve.WithCacheBytes(cacheBytes))
		_, _, cl := newTestServer(t, zkserve.Config{Registry: reg})
		got := map[int64]int64{}
		for pass := 0; pass < 2; pass++ {
			clear(got)
			if _, err := cl.ScanRows(context.Background(), req, func(row int64, vals []int64) bool {
				got[row] = vals[1]
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	want := collect(0)
	if len(want) == 0 {
		t.Fatal("predicate selected nothing")
	}
	for _, budget := range []int64{64 << 20, 16 * (testBV*8 + 112) * 2} {
		got := collect(budget)
		if len(got) != len(want) {
			t.Fatalf("budget %d: %d rows, want %d", budget, len(got), len(want))
		}
		for row, v := range want {
			if got[row] != v {
				t.Fatalf("budget %d: row %d = %d, want %d", budget, row, got[row], v)
			}
		}
	}
}

// TestCacheDisabledZeroSeries: with no cache configured the series still
// exist, zero-valued, and /tables reports it off.
func TestCacheDisabledZeroSeries(t *testing.T) {
	_, ts, cl := newTestServer(t, zkserve.Config{Registry: newTestRegistry(t)})
	if got := scrapeMetric(t, ts.URL, "zkserve_cache_enabled"); got != 0 {
		t.Fatal("cache reported enabled")
	}
	if got := scrapeMetric(t, ts.URL, "zkserve_cache_hits_total"); got != 0 {
		t.Fatalf("hits = %d on a cacheless server", got)
	}
	tr, err := cl.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cache.Enabled || tr.Cache.CapacityBytes != 0 {
		t.Fatalf("/tables cache info: %+v", tr.Cache)
	}
}

// TestCacheRegistryOption: WithCacheBytes at construction wires tables
// registered afterwards, and EnableCache retrofits tables registered
// before — both end with every segment reader caching.
func TestCacheRegistryOption(t *testing.T) {
	viaOption := newTestRegistry(t, zkserve.WithCacheBytes(1<<20))
	if !viaOption.CacheEnabled() || viaOption.CacheCapacity() != 1<<20 {
		t.Fatalf("option: enabled=%v capacity=%d", viaOption.CacheEnabled(), viaOption.CacheCapacity())
	}
	retro := newTestRegistry(t)
	if retro.CacheEnabled() {
		t.Fatal("cache on before EnableCache")
	}
	retro.EnableCache(1 << 20)

	for name, reg := range map[string]*zkserve.Registry{"option": viaOption, "retrofit": retro} {
		if st := reg.CacheStats(); st.Capacity != 1<<20 {
			t.Fatalf("%s: capacity = %d", name, st.Capacity)
		}
	}

	// The retrofit registry actually caches: run a scan and expect fills.
	_, _, cl := newTestServer(t, zkserve.Config{Registry: retro})
	if _, err := cl.ScanRows(context.Background(), zkserve.ScanRequest{
		Table: "t", Cols: []string{"c0"},
	}, func(int64, []int64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if st := retro.CacheStats(); st.Puts == 0 {
		t.Fatalf("retrofit cache saw no fills: %+v", st)
	}

	// EnableCache(0) turns it back off.
	retro.EnableCache(0)
	if retro.CacheEnabled() {
		t.Fatal("EnableCache(0) left the cache on")
	}
}
