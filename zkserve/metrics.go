package zkserve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/zukowski"
)

// Metrics is the server's observability surface: lock-free atomic
// counters and fixed-bucket latency histograms, exported in Prometheus
// text format by /metrics. One instance lives per Server; everything is
// safe for concurrent use.
type Metrics struct {
	// Scan outcomes. Rejected counts admission-control 429s; Canceled
	// counts scans killed by client disconnect or time budget after
	// streaming began.
	ScansOK        atomic.Int64
	ScansClientErr atomic.Int64
	ScansServerErr atomic.Int64
	ScansRejected  atomic.Int64
	ScansCanceled  atomic.Int64

	// InFlight is the number of scans currently holding a worker slot.
	InFlight atomic.Int64

	// Data-plane volume. RawBytesScanned is the uncompressed size of the
	// column blocks the scan planned to read, as the engine's block plans
	// report it (recordScanned): over the blocks the zone maps could not
	// prune, the materialized columns and each predicate column the
	// engine still had a conjunct to evaluate on — in frame mode, every
	// output column;
	// BytesEmitted is response payload bytes;
	// RowsEmitted counts rows (row mode) or rows represented by shipped
	// frames (frame mode); FramesShipped counts raw frames sent in frame
	// mode.
	RowsEmitted     atomic.Int64
	BytesEmitted    atomic.Int64
	RawBytesScanned atomic.Int64
	FramesShipped   atomic.Int64

	// Zone-map effectiveness across all scans: pruned blocks were proven
	// empty from 16 bytes of metadata and never read.
	BlocksScanned atomic.Int64
	BlocksPruned  atomic.Int64

	// Degraded-mode activity: ScansDegraded counts skip_corrupt scans that
	// actually lost blocks; BlocksSkipped sums the blocks those scans
	// dropped. Both zero on a healthy server.
	ScansDegraded atomic.Int64
	BlocksSkipped atomic.Int64

	scanLatency  histogram
	otherLatency histogram
}

// histBounds are the latency bucket upper bounds in seconds, log-spaced
// from 1ms to 10s.
var histBounds = [...]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// histogram is a fixed-bucket latency histogram. counts[i] is the number
// of observations <= histBounds[i]; counts[len(histBounds)] the +Inf
// bucket.
type histogram struct {
	counts [len(histBounds) + 1]atomic.Int64
	sumNs  atomic.Int64
	count  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(histBounds) && s > histBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.count.Add(1)
}

func (h *histogram) write(w io.Writer, name, route string) {
	cum := int64(0)
	for i, bound := range histBounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{route=%q,le=\"%g\"} %d\n", name, route, bound, cum)
	}
	cum += h.counts[len(histBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{route=%q,le=\"+Inf\"} %d\n", name, route, cum)
	fmt.Fprintf(w, "%s_sum{route=%q} %g\n", name, route, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count{route=%q} %d\n", name, route, cum)
}

// observeLatency records one request's latency under its route class.
func (m *Metrics) observeLatency(route string, d time.Duration) {
	if route == "scan" {
		m.scanLatency.observe(d)
	} else {
		m.otherLatency.observe(d)
	}
}

// WriteProm writes the Prometheus text exposition.
func (m *Metrics) WriteProm(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP zkserve_scans_total Completed scan requests by result.\n# TYPE zkserve_scans_total counter\n")
	fmt.Fprintf(w, "zkserve_scans_total{result=\"ok\"} %d\n", m.ScansOK.Load())
	fmt.Fprintf(w, "zkserve_scans_total{result=\"client_error\"} %d\n", m.ScansClientErr.Load())
	fmt.Fprintf(w, "zkserve_scans_total{result=\"server_error\"} %d\n", m.ScansServerErr.Load())
	fmt.Fprintf(w, "zkserve_scans_total{result=\"rejected\"} %d\n", m.ScansRejected.Load())
	fmt.Fprintf(w, "zkserve_scans_total{result=\"canceled\"} %d\n", m.ScansCanceled.Load())
	fmt.Fprintf(w, "# HELP zkserve_inflight_scans Scans currently holding a worker slot.\n# TYPE zkserve_inflight_scans gauge\nzkserve_inflight_scans %d\n", m.InFlight.Load())
	counter("zkserve_rows_emitted_total", "Rows delivered to clients (rows represented, in frame mode).", m.RowsEmitted.Load())
	counter("zkserve_bytes_emitted_total", "Response payload bytes delivered to clients.", m.BytesEmitted.Load())
	counter("zkserve_raw_bytes_scanned_total", "Uncompressed bytes of the column blocks scans read (post-pruning; a column the zone map decides is not read).", m.RawBytesScanned.Load())
	counter("zkserve_frames_shipped_total", "Raw compressed block frames shipped in frame mode.", m.FramesShipped.Load())
	counter("zkserve_blocks_scanned_total", "Blocks the conjunction's zone maps could not prune.", m.BlocksScanned.Load())
	counter("zkserve_blocks_pruned_total", "Blocks proven empty by zone maps and skipped unread.", m.BlocksPruned.Load())
	counter("zkserve_scans_degraded_total", "Scans completed in degraded mode with at least one block lost.", m.ScansDegraded.Load())
	counter("zkserve_blocks_skipped_total", "Blocks dropped from degraded scans for corruption.", m.BlocksSkipped.Load())
	fmt.Fprintf(w, "# HELP zkserve_request_duration_seconds Request latency by route class.\n# TYPE zkserve_request_duration_seconds histogram\n")
	m.scanLatency.write(w, "zkserve_request_duration_seconds", "scan")
	m.otherLatency.write(w, "zkserve_request_duration_seconds", "other")
}

// writeCacheProm appends the hot-block cache series to the exposition.
// The series are always present — zero-valued when the cache is off — so
// dashboards and the hit-rate math never hit missing-series gaps when a
// deployment toggles -cache-bytes.
func writeCacheProm(w io.Writer, enabled bool, st zukowski.CacheStats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	on := int64(0)
	if enabled {
		on = 1
	}
	gauge("zkserve_cache_enabled", "Whether the hot-block cache is configured (1) or off (0).", on)
	counter("zkserve_cache_hits_total", "Block fetches served from the hot-block cache.", st.Hits)
	counter("zkserve_cache_misses_total", "Block fetches that had to read and verify from the source.", st.Misses)
	counter("zkserve_cache_inserts_total", "Verified frames admitted into the cache.", st.Puts)
	counter("zkserve_cache_declined_total", "Verified frames a full cache turned away for being asked for no more often than its LRU entry.", st.Declined)
	counter("zkserve_cache_evictions_total", "Frames evicted to stay under the byte budget.", st.Evictions)
	gauge("zkserve_cache_resident_bytes", "Bytes currently held by the cache (payload plus bookkeeping).", st.Bytes)
	gauge("zkserve_cache_capacity_bytes", "Configured cache byte budget.", st.Capacity)
	gauge("zkserve_cache_entries", "Frames currently resident in the cache.", st.Entries)
}

// writeHealthProm appends the corruption-health series: the quarantine
// gauge is computed at scrape time from the registry's readers, so it
// reflects exactly what those readers have latched.
func writeHealthProm(w io.Writer, quarantined int64) {
	fmt.Fprintf(w, "# HELP zkserve_blocks_quarantined Blocks latched as permanently corrupt across all registered columns.\n# TYPE zkserve_blocks_quarantined gauge\nzkserve_blocks_quarantined %d\n", quarantined)
}
