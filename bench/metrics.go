package main

// The metric catalogue: every name the benchmark prints, with its unit,
// direction and — for end-to-end metrics — the share of the parent's
// median by which it may worsen before a change counts as a regression.
// BENCHMARK.json carries the same lists; the smoke test holds them equal.

import (
	"fmt"
	"math"
	"syscall"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is what a user of the system sees, measured with tracing off.
// The latency metrics are per role: each workload names a primary and a
// secondary operation kind (see workloads in main.go), because one median
// over two kinds of different cost would sit between their modes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},          // generate inputs, build the table, open and serve it
	{"ops_s", "1/s", "higher", 0.2},          // operations of either kind completed per second
	{"primary_p50_ms", "ms", "lower", 0.2},   // median latency of the primary kind
	{"primary_p95_ms", "ms", "lower", 0.25},  // its 95th percentile
	{"secondary_p50_ms", "ms", "lower", 0.2}, // median latency of the secondary kind
	{"user_mb_s", "MB/s", "higher", 0.2},     // user values delivered, aggregated or committed per second
	{"stored_ratio", "ratio", "lower", 0.02}, // live bytes on disk per user byte
	{"write_amp", "ratio", "lower", 0.02},    // bytes written per user byte
	{"peak_rss_mb", "MB", "lower", 0.25},     // the process's high-water resident set
}

// perLayer is one traced replay's account of single layers. A layer that
// does no work in a workload reports 0.
var perLayer = []metricDef{
	{Name: "bitpack.select_mask_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "bitpack.refine_mask_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "bitpack.unpack_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "bitpack.pack_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "bitpack.self_share", Unit: "share", Better: "lower"},
	{Name: "segment.parse_ns_block", Unit: "ns", Better: "lower"},
	{Name: "segment.marshal_ns_block", Unit: "ns", Better: "lower"},
	{Name: "segment.self_share", Unit: "share", Better: "lower"},
	{Name: "core.mask_ns_row", Unit: "ns", Better: "lower"},
	{Name: "core.refine_ns_row", Unit: "ns", Better: "lower"},
	{Name: "core.union_ns_row", Unit: "ns", Better: "lower"},
	{Name: "core.gather_ns_row", Unit: "ns", Better: "lower"},
	{Name: "core.decode_ns_row", Unit: "ns", Better: "lower"},
	{Name: "core.analyze_ns_row", Unit: "ns", Better: "lower"},
	{Name: "core.compress_ns_row", Unit: "ns", Better: "lower"},
	{Name: "core.exception_rate", Unit: "share", Better: "lower"},
	{Name: "core.self_share", Unit: "share", Better: "lower"},
	{Name: "zukowski.codec.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "zukowski.codec.ratio", Unit: "ratio", Better: "higher"},
	{Name: "zukowski.codec.self_share", Unit: "share", Better: "lower"},
	{Name: "zukowski.column.write_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "zukowski.column.fetch_ns_block", Unit: "ns", Better: "lower"},
	{Name: "zukowski.column.read_ns_row", Unit: "ns", Better: "lower"},
	{Name: "zukowski.column.self_share", Unit: "share", Better: "lower"},
	{Name: "zukowski.cache.hit_rate", Unit: "share", Better: "higher"},
	{Name: "zukowski.cache.evictions", Unit: "count", Better: "lower"},
	{Name: "zukowski.cache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "zukowski.cache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "zukowski.query.run_ns_row", Unit: "ns", Better: "lower"},
	{Name: "zukowski.query.blocks_pruned", Unit: "count", Better: "higher"},
	{Name: "zukowski.query.blocks_evaluated", Unit: "count", Better: "lower"},
	{Name: "zukowski.query.rows_selected", Unit: "count", Better: "lower"},
	{Name: "zukowski.query.self_share", Unit: "share", Better: "lower"},
	{Name: "zktable.scan_ns_row", Unit: "ns", Better: "lower"},
	{Name: "zktable.append_ms", Unit: "ms", Better: "lower"},
	{Name: "zktable.compact_s", Unit: "s", Better: "lower"},
	{Name: "zktable.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "zktable.writes", Unit: "count", Better: "lower"},
	{Name: "zktable.open_ms", Unit: "ms", Better: "lower"},
	{Name: "zktable.append_encode_share", Unit: "share", Better: "lower"},
	{Name: "zktable.self_share", Unit: "share", Better: "lower"},
	{Name: "zkserve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "zkserve.encode_ns_row", Unit: "ns", Better: "lower"},
	{Name: "zkserve.wire_bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "zkserve.rejected", Unit: "count", Better: "lower"},
	{Name: "zkserve.self_share", Unit: "share", Better: "lower"},
	{Name: "client.loopback_ms", Unit: "ms", Better: "lower"},
	{Name: "client.decode_ns_row", Unit: "ns", Better: "lower"},
	{Name: "client.self_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "host.num_cpu", Unit: "count", Better: "higher"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.mem_gb_s", Unit: "GB/s", Better: "higher"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the metrics of a result line: every
// metric of defs, each with its unit. A missing or non-finite value is a
// bug in the benchmark and fails the run.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not in the catalogue", name)
			}
		}
	}
	return out, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
