package main

// The traced run: one client replays a workload's list once, in order,
// and every operation is issued at each layer boundary in turn — the
// nested replay. Nothing inside the program is instrumented: a span is the
// benchmark's own clock around one call into a layer's public functions,
// and a layer's self time is its span minus the spans of the replay one
// level down. The operation count is fixed, so every count repeats.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Layers a span can belong to, outermost first. Their self shares sum to 1.
const (
	layerClient  = "client"
	layerServe   = "zkserve"
	layerTable   = "zktable"
	layerQuery   = "zukowski.query"
	layerColumn  = "zukowski.column"
	layerCodec   = "zukowski.codec"
	layerSegment = "segment"
	layerCore    = "core"
	layerBitpack = "bitpack"
)

var layers = []string{
	layerClient, layerServe, layerTable, layerQuery, layerColumn,
	layerCodec, layerSegment, layerCore, layerBitpack,
}

// span is one call, or the sum of one kind of per-block call within one
// segment: writing a span per block would be millions of entries. Parent
// is the span one level up whose work this one replays, -1 for the
// outermost; spans of one operation share Query.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // first call's start, since the trace began
	EndNS   int64  `json:"end_ns"`   // last call's end
	BusyNS  int64  `json:"busy_ns"`  // summed duration of the calls
	Calls   int    `json:"calls"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open adds an empty span; add fills it.
func (tr *tracer) open(parent, query int, layer, name string) int {
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Query: query, Layer: layer, Name: name})
	return id
}

// add accounts one call that ran from start to end to span id.
func (tr *tracer) add(id int, start, end time.Time) {
	s := &tr.spans[id]
	if s.Calls == 0 {
		s.StartNS = start.Sub(tr.t0).Nanoseconds()
	}
	s.EndNS = end.Sub(tr.t0).Nanoseconds()
	s.BusyNS += end.Sub(start).Nanoseconds()
	s.Calls++
}

// timed runs f as one call of span id.
func (tr *tracer) timed(id int, f func()) {
	start := time.Now()
	f()
	tr.add(id, start, time.Now())
}

// call opens a span for the single call f and returns its id.
func (tr *tracer) call(parent, query int, layer, name string, f func()) int {
	id := tr.open(parent, query, layer, name)
	tr.timed(id, f)
	return id
}

func (tr *tracer) busy(id int) time.Duration { return time.Duration(tr.spans[id].BusyNS) }

// busyOf sums the spans of one layer that keep returns true for.
func (tr *tracer) busyOf(layer string, keep func(*span) bool) (total time.Duration, durations []float64) {
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Layer == layer && s.Calls > 0 && (keep == nil || keep(s)) {
			total += time.Duration(s.BusyNS)
			durations = append(durations, ms(time.Duration(s.BusyNS)))
		}
	}
	return total, durations
}

// selfTimes returns each layer's self time: its spans minus the spans
// that replay their work one level down. A replay that happened to run
// slower than the call it replays would make a layer's self time
// negative; it reads as zero.
func (tr *tracer) selfTimes() map[string]float64 {
	below := make([]int64, len(tr.spans))
	for i := range tr.spans {
		if p := tr.spans[i].Parent; p >= 0 {
			below[p] += tr.spans[i].BusyNS
		}
	}
	self := map[string]float64{}
	for i := range tr.spans {
		self[tr.spans[i].Layer] += float64(tr.spans[i].BusyNS - below[i])
	}
	for l, v := range self {
		self[l] = max(v, 0)
	}
	return self
}

// selfShares puts "<layer>.self_share" for every layer into values: the
// layer's self time over the self time of all layers, which is the time of
// the outermost spans.
func (tr *tracer) selfShares(values map[string]float64) {
	self := tr.selfTimes()
	var total float64
	for _, v := range self {
		total += v
	}
	for _, l := range layers {
		values[l+".self_share"] = ratio(self[l], total)
	}
}

// write stores the spans as bench/out/trace_<workload>.json.
func (tr *tracer) write(cfg config, workload string) error {
	f, err := os.Create(filepath.Join(cfg.outDir, "trace_"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, cfg.seed, tr.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
