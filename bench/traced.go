package main

// What a traced run does with the replay (replay.go), the cost sheet
// (sheet.go) and the spans (trace.go): run them and name the numbers.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/bitpack"
	"repro/internal/core"
	"repro/internal/segment"
	"repro/zukowski"
)

// buildCost is what committing the table cost the table layer.
type buildCost struct {
	appends  []time.Duration
	compacts time.Duration
	wc       *writeCount
}

func (bc buildCost) into(values map[string]float64) {
	xs := make([]float64, len(bc.appends))
	for i, d := range bc.appends {
		xs[i] = ms(d)
	}
	values["zktable.append_ms"] = median(xs)
	values["zktable.compact_s"] = bc.compacts.Seconds()
	values["zktable.bytes_written"] = float64(bc.wc.bytes.Load())
	values["zktable.writes"] = float64(bc.wc.writes.Load())
}

func hostInto(values map[string]float64, raw [][]int64) {
	values["host.num_cpu"] = float64(runtime.NumCPU())
	values["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	values["host.mem_gb_s"] = memBandwidth(raw)
}

// zeroInto sets the metrics of layers a workload never enters.
func zeroInto(values map[string]float64, names ...string) {
	for _, n := range names {
		values[n] = 0
	}
}

// traceServing replays qs once, in order, at every boundary, and returns
// the per-layer metrics. fx is the served table the timed run would use.
func traceServing(w workload, cfg config, fx *fixture, qs []query, t *tally) (map[string]float64, error) {
	ctx := context.Background()
	// One untraced pass by one client: what tracing is compared with.
	cl, tr0 := newClient(fx.s.base)
	defer tr0.CloseIdleConnections()
	plain := &caller{cl: cl}
	var untraced []float64
	for i := range qs {
		start := time.Now()
		got, err := plain.do(ctx, &qs[i])
		untraced = append(untraced, ms(time.Since(start)))
		t.attempted++
		if err != nil {
			t.fail(fmt.Sprintf("query %d (%s): %v", qs[i].id, qs[i].kind, err))
		} else if msg := qs[i].mismatch(got, false); msg != "" {
			t.fail(msg)
		}
	}

	rp, err := newServingReplay(fx.dir, fx.s.base, fx.cacheBytes)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	pass := func() error {
		rp.tr = newTracer()
		rp.be = blockEngine{}
		rp.delivered, rp.wire, rp.tableRows, rp.queryRows = 0, 0, 0, 0
		for i := range qs {
			if err := rp.one(ctx, &qs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	// The first pass fills every boundary's cache as far as the workload
	// lets it; the second is the one recorded.
	if err := pass(); err != nil {
		return nil, err
	}
	before := rp.handReg.CacheStats()
	if err := pass(); err != nil {
		return nil, err
	}
	after := rp.handReg.CacheStats()
	t.attempted += len(qs)
	tr := rp.tr

	values := map[string]float64{}
	tr.selfShares(values)
	streamed := func(s *span) bool { return qs[s.Query].kind != kindAgg }
	_, loop := tr.busyOf(layerClient, nil)
	_, handled := tr.busyOf(layerServe, nil)
	clientAll, _ := tr.busyOf(layerClient, streamed)
	serveAll, _ := tr.busyOf(layerServe, streamed)
	// What lies under the handler for the streamed queries: the table
	// scan, or for frames and disjunctions its stand-ins.
	var underServe time.Duration
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Parent >= 0 && tr.spans[s.Parent].Layer == layerServe && streamed(s) {
			underServe += time.Duration(s.BusyNS)
		}
	}
	tableAll, _ := tr.busyOf(layerTable, nil)
	queryAll, _ := tr.busyOf(layerQuery, nil)
	delivered := float64(rp.delivered)

	values["client.loopback_ms"] = median(loop)
	values["client.decode_ns_row"] = ratio(float64(max(clientAll-serveAll, 0).Nanoseconds()), delivered)
	values["zkserve.handler_ms"] = median(handled)
	values["zkserve.encode_ns_row"] = ratio(float64(max(serveAll-underServe, 0).Nanoseconds()), delivered)
	values["zkserve.wire_bytes_per_row"] = ratio(float64(rp.wire), delivered)
	values["zkserve.rejected"] = float64(fx.s.srv.Metrics().ScansRejected.Load() + rp.handler.Metrics().ScansRejected.Load())
	values["zktable.scan_ns_row"] = ratio(float64(tableAll.Nanoseconds()), float64(rp.tableRows))
	values["zukowski.query.run_ns_row"] = ratio(float64(queryAll.Nanoseconds()), float64(rp.queryRows))
	values["zukowski.query.blocks_pruned"] = float64(rp.be.pruned)
	values["zukowski.query.blocks_evaluated"] = float64(rp.be.evaluated)
	values["zukowski.query.rows_selected"] = float64(rp.be.selected)
	values["zukowski.column.fetch_ns_block"] = ratio(float64(rp.be.fetchTime.Nanoseconds()), float64(rp.be.fetches))
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	values["zukowski.cache.hit_rate"] = ratio(float64(hits), float64(hits+misses))
	values["zukowski.cache.evictions"] = float64(after.Evictions - before.Evictions)
	// Totals, not medians: a list of two kinds of operation has two modes
	// and its median sits between them.
	values["trace.overhead_share"] = ratio(sum(loop), sum(untraced)) - 1
	values["zktable.append_encode_share"] = 0 // the replay of appends is ingest_scan's

	opens := []float64{ms(rp.table.opened), ms(rp.query.opened), ms(rp.blocks.opened)}
	values["zktable.open_ms"] = median(opens)
	fx.build.into(values)

	// The sheet reads segment 0 through a handle whose cache holds the
	// whole table, whatever the workload's does.
	sheet, err := openLevel(tableDir(fx.dir), 2*fx.stored)
	if err != nil {
		return nil, err
	}
	defer sheet.tbl.Close()
	if err := costSheet(values, sheet.readers[0], fx.data.segment(0)); err != nil {
		return nil, err
	}
	hostInto(values, fx.data.cols[:])
	return values, tr.write(cfg, w.name)
}

// traceIngest replays one round of ingest_scan's writer: every Append is
// issued on the table, then replayed as its ColumnWriter calls, those as
// their Auto.Encode calls per block, those as the analysis, compression
// and marshalling under them, and the compression as its Pack. The
// compactions are spans of the table layer alone. A reader pass over the
// finished table gives the table scan's cost.
func traceIngest(w workload, cfg config, dir string, qs []query) (map[string]float64, *tally, error) {
	data := ingestData(cfg, 0)
	var wc writeCount
	tbl, err := createTable(dir, &wc)
	if err != nil {
		return nil, nil, err
	}
	defer tbl.Close()
	tr := newTracer()
	t := newTally()
	bc := buildCost{wc: &wc}
	var enc encodeReplay
	for s := 0; s < data.segs; s++ {
		seg := data.segment(s)
		root := tr.call(-1, s, layerTable, "Table.Append", func() { _, err = tbl.Append(seg) })
		t.attempted++
		if err != nil {
			return nil, nil, fmt.Errorf("append %d: %w", s, err)
		}
		bc.appends = append(bc.appends, tr.busy(root))
		if err := enc.segment(tr, root, s, seg); err != nil {
			return nil, nil, err
		}
		if compactsAfter(s, data.segs) {
			id := tr.call(-1, s, layerTable, "Table.Compact", func() { _, err = tbl.Compact() })
			if err != nil {
				return nil, nil, fmt.Errorf("compact after segment %d: %w", s, err)
			}
			bc.compacts += tr.busy(id)
		}
	}

	values := map[string]float64{}
	tr.selfShares(values)
	bc.into(values)
	var appendAll time.Duration
	for _, d := range bc.appends {
		appendAll += d
	}
	values["zktable.append_encode_share"] = ratio(float64(enc.encode.Nanoseconds()), float64(appendAll.Nanoseconds()))

	// The reader's list once over the finished table.
	pre := prefixAnswers(data, qs)
	var scanned time.Duration
	for i := range qs {
		q := &qs[i]
		start := time.Now()
		agg, err := tbl.AggregateWhereAllContext(context.Background(), enginePreds(q.preds), q.aggCol)
		scanned += time.Since(start)
		t.attempted++
		if err != nil {
			t.fail(fmt.Sprintf("reader query %d: %v", q.id, err))
		} else if !sameAgg(engineAnswer(agg), pre[i][data.segs]) {
			t.fail(fmt.Sprintf("reader query %d: wrong answer over the finished table", q.id))
		}
	}
	values["zktable.scan_ns_row"] = ratio(float64(scanned.Nanoseconds()), float64(len(qs)*data.rows()))

	if err := tbl.Close(); err != nil {
		return nil, nil, err
	}
	reopened, err := openLevel(dir, 2*data.userBytes())
	if err != nil {
		return nil, nil, err
	}
	defer reopened.tbl.Close()
	values["zktable.open_ms"] = ms(reopened.opened)
	// After the last compaction the table is one segment: all of data.
	if err := costSheet(values, reopened.readers[0], data.cols[:]); err != nil {
		return nil, nil, err
	}
	hostInto(values, data.cols[:])
	zeroInto(values,
		"client.loopback_ms", "client.decode_ns_row",
		"zkserve.handler_ms", "zkserve.encode_ns_row", "zkserve.wire_bytes_per_row", "zkserve.rejected",
		"zukowski.query.run_ns_row", "zukowski.query.blocks_pruned", "zukowski.query.blocks_evaluated", "zukowski.query.rows_selected",
		"zukowski.column.fetch_ns_block", "zukowski.cache.hit_rate", "zukowski.cache.evictions",
		"trace.overhead_share")
	return values, t, tr.write(cfg, w.name)
}

// encodeReplay is the replay under Append.
type encodeReplay struct {
	frame  []byte
	codes  []uint32
	packed []uint32
	encode time.Duration // analysis, compression, packing and marshalling
}

func (er *encodeReplay) segment(tr *tracer, parent, query int, cols [][]int64) error {
	for _, vals := range cols {
		var err error
		colSpan := tr.call(parent, query, layerColumn, "ColumnWriter.Write+Close", func() {
			var cw *zukowski.ColumnWriter[int64]
			if cw, err = zukowski.NewColumnWriter[int64](io.Discard, nil, blockValues); err != nil {
				return
			}
			if err = cw.Write(vals); err == nil {
				err = cw.Close()
			}
		})
		if err != nil {
			return err
		}
		codec := tr.open(colSpan, query, layerCodec, "Auto.Encode")
		coreSpan := tr.open(codec, query, layerCore, "core.Sample+Choose+Compress")
		segSpan := tr.open(codec, query, layerSegment, "segment.Marshal")
		pack := tr.open(coreSpan, query, layerBitpack, "bitpack.Pack")
		for lo := 0; lo < len(vals); lo += blockValues {
			block := vals[lo:min(lo+blockValues, len(vals))]
			tr.timed(codec, func() { er.frame, err = zukowski.Auto[int64]{}.Encode(er.frame[:0], block) })
			if err != nil {
				return err
			}
			var blk *core.Block[int64]
			tr.timed(coreSpan, func() {
				if ch := core.Choose(core.Sample(block, core.DefaultSampleSize)); ch.Scheme != core.SchemeNone {
					blk = ch.Compress(block)
				}
			})
			if blk == nil {
				tr.timed(segSpan, func() { er.frame = segment.MarshalRaw(block) })
				continue
			}
			tr.timed(segSpan, func() { er.frame = segment.Marshal(blk) })
			er.codes = growTo(er.codes, blk.N)
			er.packed = growTo(er.packed, len(blk.Codes))
			bitpack.Unpack(er.codes, blk.Codes, blk.B)
			tr.timed(pack, func() { bitpack.Pack(er.packed, er.codes, blk.B) })
		}
		er.encode += tr.busy(coreSpan) + tr.busy(segSpan)
	}
	return nil
}

func growTo(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}
