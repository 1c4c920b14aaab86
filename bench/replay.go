package main

// The nested replay of the serving workloads. Each query of the list is
// issued at five boundaries in turn:
//
//	client over loopback                            (client)
//	  Server.ServeHTTP in this process, no socket   (zkserve)
//	    zktable.Table scan, for plain aggregates    (zktable)
//	      ColumnSet.Run per segment                 (zukowski.query)
//	        per unpruned block: FrameBytes          (zukowski.column)
//	                            UnmarshalIntoTrusted (segment)
//	                            Decoder mask/refine/gather (core)
//	                              the packed-code kernel under it (bitpack)
//
// Every boundary runs on a table handle and block cache of its own, of
// the workload's cache size, so each sees the same sequence of queries and
// the same cache state as the served one. The innermost level is a scan
// loop written here against the layers' public functions; its answers are
// held to the same oracle as the engine's.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/bitpack"
	"repro/internal/core"
	"repro/internal/segment"
	"repro/zkserve"
	"repro/zktable"
	"repro/zukowski"
)

// tableLevel is bt opened once more for one boundary of the replay.
type tableLevel struct {
	tbl      *zktable.Table[int64]
	sets     []*zukowski.ColumnSet[int64]
	readers  [][]*zukowski.ColumnReader[int64]
	firstRow []int64
	opened   time.Duration
}

func openLevel(dir string, cacheBytes int64) (*tableLevel, error) {
	start := time.Now()
	tbl, rep, err := zktable.Open[int64](dir, zktable.Options{})
	if err != nil {
		return nil, err
	}
	if rep.FellBack || len(rep.Quarantined) > 0 {
		tbl.Close()
		return nil, fmt.Errorf("%s opened degraded: %+v", dir, rep)
	}
	lv := &tableLevel{tbl: tbl, opened: time.Since(start)}
	tbl.SetBlockCache(zukowski.NewBlockLRU(cacheBytes))
	for i := 0; i < tbl.NumSegments(); i++ {
		rd, err := tbl.SegmentReaders(i)
		if err != nil {
			tbl.Close()
			return nil, err
		}
		set, err := zukowski.NewColumnSet(rd...)
		if err != nil {
			tbl.Close()
			return nil, err
		}
		_, first := tbl.SegmentRows(i)
		lv.readers = append(lv.readers, rd)
		lv.sets = append(lv.sets, set)
		lv.firstRow = append(lv.firstRow, first)
	}
	return lv, nil
}

// sink is the response writer of the in-process handler call: it counts
// the payload and keeps it only when asked to.
type sink struct {
	header http.Header
	status int
	n      int64
	keep   bool
	body   []byte
}

func (s *sink) Header() http.Header { return s.header }
func (s *sink) WriteHeader(c int)   { s.status = c }
func (s *sink) Flush()              {}
func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.n += int64(len(p))
	if s.keep {
		s.body = append(s.body, p...)
	}
	return len(p), nil
}

// servingReplay holds one handle per boundary and what the replay counts.
type servingReplay struct {
	tr      *tracer
	cl      *caller         // over loopback, to the served registry
	conns   *http.Transport // its connection
	handler *zkserve.Server // a second registry, called in process
	handReg *zkserve.Registry
	table   *tableLevel // Table scans
	query   *tableLevel // ColumnSet runs per segment
	blocks  *tableLevel // the per-block loop
	be      blockEngine

	delivered int64 // rows the streaming kinds delivered
	wire      int64 // their response payload bytes
	tableRows int64 // rows the table scans considered
	queryRows int64 // rows the per-segment runs considered
}

func (rp *servingReplay) close() {
	rp.conns.CloseIdleConnections()
	rp.handReg.Close()
	for _, lv := range []*tableLevel{rp.table, rp.query, rp.blocks} {
		if lv != nil {
			lv.tbl.Close()
		}
	}
}

func newServingReplay(dir string, base string, cacheBytes int64) (*servingReplay, error) {
	cl, conns := newClient(base)
	rp := &servingReplay{cl: &caller{cl: cl}, conns: conns}
	var err error
	if rp.handReg, err = zkserve.OpenDir(dir, zkserve.WithCacheBytes(cacheBytes)); err != nil {
		return nil, err
	}
	rp.handler = newServer(rp.handReg)
	for _, lv := range []**tableLevel{&rp.table, &rp.query, &rp.blocks} {
		if *lv, err = openLevel(tableDir(dir), cacheBytes); err != nil {
			rp.close()
			return nil, err
		}
	}
	return rp, nil
}

// scanRequest is q's POST /scan as the client would send it.
func scanRequest(ctx context.Context, q *query, body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/scan", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	switch q.kind {
	case kindRows:
		req.Header.Set("Accept", zkserve.MIMERows)
	case kindFrames:
		req.Header.Set("Accept", zkserve.MIMEFrames)
	}
	return req
}

// engineQuery is q as the query layer takes it.
func engineQuery(q *query) zukowski.Query[int64] {
	eq := zukowski.Query[int64]{Preds: enginePreds(q.preds), Cols: q.out}
	if len(q.anyOf) > 0 {
		alts := make([]zukowski.Expr[int64], len(q.anyOf))
		for i, p := range q.anyOf {
			alts[i] = zukowski.Range(p.col, p.lo, p.hi)
		}
		eq.Expr = zukowski.Or(alts...)
	}
	return eq
}

// one replays q at every boundary under tracer tr and checks each
// boundary's answer against the oracle.
func (rp *servingReplay) one(ctx context.Context, q *query) error {
	tr := rp.tr
	wrong := func(level string, got answer, full bool) error {
		if msg := q.mismatch(got, full); msg != "" {
			return fmt.Errorf("%s replay: %s", level, msg)
		}
		return nil
	}

	// client over loopback
	var got answer
	var err error
	root := tr.call(-1, q.id, layerClient, "client."+q.kind, func() { got, err = rp.cl.do(ctx, q) })
	if err == nil {
		err = wrong(layerClient, got, false)
	}
	if err != nil {
		return err
	}

	// the handler in process
	body, err := json.Marshal(q.request())
	if err != nil {
		return err
	}
	req := scanRequest(ctx, q, body)
	out := &sink{header: http.Header{}, keep: q.kind == kindAgg}
	parent := tr.call(root, q.id, layerServe, "Server.ServeHTTP", func() { rp.handler.ServeHTTP(out, req) })
	if out.status != http.StatusOK {
		return fmt.Errorf("zkserve replay: query %d: status %d", q.id, out.status)
	}
	if q.kind == kindAgg {
		var resp zkserve.AggResponse
		if err := json.Unmarshal(out.body, &resp); err != nil {
			return fmt.Errorf("zkserve replay: query %d: %w", q.id, err)
		}
		r := resp.Result
		if err := wrong(layerServe, answer{count: r.Count, sum: r.Sum, min: r.Min, max: r.Max}, false); err != nil {
			return err
		}
	} else {
		rp.delivered += q.want.count
		rp.wire += out.n
	}

	// Frame mode ships the unpruned blocks as stored: below the handler
	// there is only the fetch.
	if q.kind == kindFrames {
		for s, rd := range rp.blocks.readers {
			if err := rp.be.shipBlocks(tr, parent, q, rd); err != nil {
				return fmt.Errorf("segment %d: %w", s, err)
			}
		}
		return nil
	}

	// the table scan, where zktable can express the query: its scans take
	// a conjunction and return every column, so a disjunction or a
	// projection skips this boundary (the server composes segments itself)
	if q.kind == kindAgg && len(q.anyOf) == 0 {
		var agg zukowski.Aggregate[int64]
		var err error
		preds := enginePreds(q.preds)
		parent = tr.call(parent, q.id, layerTable, "Table.AggregateWhereAllContext", func() {
			agg, err = rp.table.tbl.AggregateWhereAllContext(ctx, preds, q.aggCol)
		})
		if err == nil {
			err = wrong(layerTable, engineAnswer(agg), false)
		}
		if err != nil {
			return err
		}
		rp.tableRows += rp.table.tbl.Rows()
	}

	// the query layer, one run per segment, and under each the block loop
	eq := engineQuery(q)
	var viaSets, viaBlocks answer
	rp.queryRows += rp.query.tbl.Rows()
	for s, set := range rp.query.sets {
		var err error
		var qspan int
		if q.kind == kindAgg {
			qspan = tr.call(parent, q.id, layerQuery, "ColumnSet.RunAggregate", func() {
				var agg zukowski.Aggregate[int64]
				if agg, err = set.RunAggregate(ctx, eq, q.aggCol); err == nil {
					viaSets.merge(engineAnswer(agg))
				}
			})
		} else {
			qspan = tr.call(parent, q.id, layerQuery, "ColumnSet.Run", func() {
				err = set.Run(ctx, eq, func(_ int, rows []int64, _ [][]int64) bool {
					viaSets.count += int64(len(rows))
					return true
				})
			})
		}
		if err != nil {
			return fmt.Errorf("zukowski.query replay: query %d segment %d: %w", q.id, s, err)
		}
		if err := rp.be.scanSegment(tr, qspan, q, rp.blocks.readers[s], rp.blocks.firstRow[s], &viaBlocks); err != nil {
			return fmt.Errorf("block replay: query %d segment %d: %w", q.id, s, err)
		}
	}
	if err := wrong(layerQuery, viaSets, false); err != nil {
		return err
	}
	return wrong("block", viaBlocks, true)
}

// merge folds another segment's aggregate into a.
func (a *answer) merge(o answer) {
	if o.count == 0 {
		return
	}
	if a.count == 0 || o.min < a.min {
		a.min = o.min
	}
	if a.count == 0 || o.max > a.max {
		a.max = o.max
	}
	a.count += o.count
	a.sum += o.sum
}

// blockEngine is the innermost replay: the scan loop over one segment's
// blocks, written against ColumnReader, segment, core and bitpack.
type blockEngine struct {
	dec     core.Decoder[int64]
	sv, alt core.SelectionVector
	blk     [numCols]core.Block[int64]
	loaded  [numCols]bool
	vals    [][]int64
	rows    []int64
	row     []int64
	mask    []uint32 // scratch of the bitpack replay
	codes   []uint32

	pruned, evaluated, selected int64
	fetches                     int64
	fetchTime                   time.Duration
}

// blockSpans are one segment's per-block spans, opened on first use.
type blockSpans struct {
	tr                   *tracer
	parent, query        int
	col, seg, core, pack int
}

func newBlockSpans(tr *tracer, parent, query int) *blockSpans {
	return &blockSpans{tr: tr, parent: parent, query: query, col: -1, seg: -1, core: -1, pack: -1}
}

func (sp *blockSpans) get(id *int, parent int, layer, name string) int {
	if *id < 0 {
		*id = sp.tr.open(parent, sp.query, layer, name)
	}
	return *id
}

func (sp *blockSpans) colSpan() int {
	return sp.get(&sp.col, sp.parent, layerColumn, "ColumnReader.FrameBytes")
}
func (sp *blockSpans) segSpan() int {
	return sp.get(&sp.seg, sp.parent, layerSegment, "segment.UnmarshalIntoTrusted")
}
func (sp *blockSpans) coreSpan() int {
	return sp.get(&sp.core, sp.parent, layerCore, "core.Decoder")
}
func (sp *blockSpans) packSpan() int {
	return sp.get(&sp.pack, sp.coreSpan(), layerBitpack, "bitpack kernels")
}

// excluded reports whether block b's zone maps prove that no row can pass q.
func excluded(q *query, rd []*zukowski.ColumnReader[int64], b int) bool {
	out := func(p rangePred) bool {
		lo, hi, ok := rd[p.col].ZoneMap(b)
		return ok && (hi < p.lo || lo > p.hi)
	}
	for _, p := range q.preds {
		if out(p) {
			return true
		}
	}
	if len(q.anyOf) == 0 {
		return false
	}
	for _, p := range q.anyOf {
		if !out(p) {
			return false
		}
	}
	return true
}

// fetch is FrameBytes: a cache hit, or a read from the file with its
// checksum.
func (be *blockEngine) fetch(sp *blockSpans, rd *zukowski.ColumnReader[int64], b int) ([]byte, error) {
	start := time.Now()
	frame, err := rd.FrameBytes(b)
	end := time.Now()
	sp.tr.add(sp.colSpan(), start, end)
	be.fetches++
	be.fetchTime += end.Sub(start)
	return frame, err
}

// load fetches and parses block b of column col, once per block.
func (be *blockEngine) load(sp *blockSpans, rd []*zukowski.ColumnReader[int64], col, b int) (*core.Block[int64], error) {
	blk := &be.blk[col]
	if be.loaded[col] {
		return blk, nil
	}
	frame, err := be.fetch(sp, rd[col], b)
	if err != nil {
		return nil, err
	}
	if !segment.IsCompressed(frame) {
		return nil, fmt.Errorf("block %d of column %s is stored raw; the block replay reads coded blocks only", b, colNames[col])
	}
	sp.tr.timed(sp.segSpan(), func() { err = segment.UnmarshalIntoTrusted(blk, frame) })
	be.loaded[col] = err == nil
	return blk, err
}

// Operations of the decoder, and the packed-code kernel each one runs.
const (
	opMask = iota
	opRefine
	opUnion
)

// filter applies one range predicate to sv through the decoder, then
// replays the kernel under it over the same code words.
func (be *blockEngine) filter(sp *blockSpans, blk *core.Block[int64], p rangePred, op int, sv *core.SelectionVector) {
	var before []uint32
	if op == opRefine && blk.Scheme != core.SchemePFORDelta {
		before = append(be.mask[:0], sv.Words()...)
		be.mask = before
	}
	sp.tr.timed(sp.coreSpan(), func() {
		switch op {
		case opMask:
			be.dec.DecompressMask(blk, p.lo, p.hi, sv)
		case opRefine:
			be.dec.RefineMask(blk, p.lo, p.hi, sv)
		case opUnion:
			be.dec.UnionMask(blk, p.lo, p.hi, sv)
		}
	})
	be.kernel(sp, blk, before)
}

// kernel replays the bitpack call a decoder operation makes over blk's
// code words: SelectMask to build a bitmap, RefineMask (given the bitmap
// it narrows) to refine one, Unpack for PFOR-DELTA, whose running sum
// needs every code. The kernels' cost does not depend on the code range,
// so a fixed quarter of the code domain stands in for the predicate's.
func (be *blockEngine) kernel(sp *blockSpans, blk *core.Block[int64], refine []uint32) {
	groups := blk.N / 32
	span := uint32(1)<<blk.B/4 - 1
	switch {
	case blk.Scheme == core.SchemePFORDelta:
		be.unpack(sp, blk)
	case refine != nil:
		sp.tr.timed(sp.packSpan(), func() { bitpack.RefineMask(refine[:groups], blk.Codes, blk.B, 0, span) })
	default:
		if cap(be.mask) < groups {
			be.mask = make([]uint32, groups)
		}
		m := be.mask[:groups]
		sp.tr.timed(sp.packSpan(), func() { bitpack.SelectMask(m, blk.Codes, blk.B, 0, span) })
	}
}

func (be *blockEngine) unpack(sp *blockSpans, blk *core.Block[int64]) {
	if cap(be.codes) < blk.N {
		be.codes = make([]uint32, blk.N)
	}
	c := be.codes[:blk.N]
	sp.tr.timed(sp.packSpan(), func() { bitpack.Unpack(c, blk.Codes, blk.B) })
}

// gather materializes column col at the rows sv selects, then replays
// the code extraction under it: one CodeAt per selected row, or a full
// Unpack for PFOR-DELTA.
func (be *blockEngine) gather(sp *blockSpans, blk *core.Block[int64], dst []int64) []int64 {
	sp.tr.timed(sp.coreSpan(), func() { dst = be.dec.DecompressSelected(blk, &be.sv, dst[:0]) })
	if blk.Scheme == core.SchemePFORDelta {
		be.unpack(sp, blk)
		return dst
	}
	be.rows = be.sv.AppendRows(be.rows[:0], 0)
	sp.tr.timed(sp.packSpan(), func() {
		var x uint32
		for _, r := range be.rows {
			x ^= bitpack.CodeAt(blk.Codes, int(r), blk.B)
		}
		codeSink = x
	})
	return dst
}

// codeSink keeps the extraction loop's result alive.
var codeSink uint32

// scanSegment runs q over one segment block by block and folds what it
// finds into out.
func (be *blockEngine) scanSegment(tr *tracer, parent int, q *query, rd []*zukowski.ColumnReader[int64], firstRow int64, out *answer) error {
	sp := newBlockSpans(tr, parent, q.id)
	outCols := q.out
	if q.kind == kindAgg {
		outCols = []int{q.aggCol}
	}
	for len(be.vals) < len(outCols) {
		be.vals = append(be.vals, nil)
	}
	if cap(be.row) < len(outCols) {
		be.row = make([]int64, len(outCols))
	}
	blockStart := firstRow
	for b := 0; b < rd[0].NumBlocks(); b++ {
		info, err := rd[0].BlockInfo(b)
		if err != nil {
			return err
		}
		start := blockStart
		blockStart += int64(info.Count)
		if excluded(q, rd, b) {
			be.pruned++
			continue
		}
		be.evaluated++
		be.loaded = [numCols]bool{}
		alive := true
		for i, p := range q.preds {
			blk, err := be.load(sp, rd, p.col, b)
			if err != nil {
				return err
			}
			op := opRefine
			if i == 0 {
				op = opMask
			}
			be.filter(sp, blk, p, op, &be.sv)
			if alive = be.sv.Any(); !alive {
				break
			}
		}
		if !alive {
			continue
		}
		if len(q.anyOf) > 0 {
			for i, p := range q.anyOf {
				blk, err := be.load(sp, rd, p.col, b)
				if err != nil {
					return err
				}
				op := opUnion
				if i == 0 {
					op = opMask
				}
				be.filter(sp, blk, p, op, &be.alt)
			}
			if len(q.preds) == 0 {
				be.sv, be.alt = be.alt, be.sv
			} else {
				sp.tr.timed(sp.coreSpan(), func() { be.sv.And(&be.alt) })
			}
		}
		n := be.sv.Count()
		if n == 0 {
			continue
		}
		be.selected += int64(n)
		for j, c := range outCols {
			blk, err := be.load(sp, rd, c, b)
			if err != nil {
				return err
			}
			be.vals[j] = be.gather(sp, blk, be.vals[j])
		}
		if q.kind == kindAgg {
			for _, v := range be.vals[0] {
				out.addAgg(v)
			}
			continue
		}
		be.rows = be.sv.AppendRows(be.rows[:0], start)
		row := be.row[:len(outCols)]
		for i, r := range be.rows {
			for j := range outCols {
				row[j] = be.vals[j][i]
			}
			out.count++
			out.hash += rowHash(r, row)
		}
	}
	return nil
}

// shipBlocks is what frame mode does under the handler: fetch every
// output column's frame of every unpruned block.
func (be *blockEngine) shipBlocks(tr *tracer, parent int, q *query, rd []*zukowski.ColumnReader[int64]) error {
	sp := newBlockSpans(tr, parent, q.id)
	for b := 0; b < rd[0].NumBlocks(); b++ {
		if excluded(q, rd, b) {
			be.pruned++
			continue
		}
		be.evaluated++
		for _, c := range q.out {
			if _, err := be.fetch(sp, rd[c], b); err != nil {
				return err
			}
		}
	}
	return nil
}
