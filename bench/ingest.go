package main

// ingest_scan: writes beside reads on one zktable handle. One writer
// appends segments and compacts after the middle and the last one; one
// reader aggregates over whatever generation is committed and checks each
// answer against the oracle for the rows its snapshot can have held. The
// work is fixed per round; rounds repeat until the run's seconds are up.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/zktable"
	"repro/zukowski"
)

func enginePreds(ps []rangePred) []zukowski.Pred[int64] {
	out := make([]zukowski.Pred[int64], len(ps))
	for i, p := range ps {
		out[i] = zukowski.Pred[int64]{Col: p.col, Lo: p.lo, Hi: p.hi}
	}
	return out
}

func engineAnswer(a zukowski.Aggregate[int64]) answer {
	return answer{count: a.Count, sum: a.Sum, min: a.Min, max: a.Max}
}

// sameAgg reports whether an aggregate is the oracle's.
func sameAgg(got, want answer) bool {
	if got.count != want.count || got.sum != want.sum {
		return false
	}
	return want.count == 0 || (got.min == want.min && got.max == want.max)
}

// compactsAfter reports whether the writer compacts once segment s (0-based)
// is committed: after the middle segment and after the last.
func compactsAfter(s, segs int) bool { return s == segs/2-1 || s == segs-1 }

// ingestRound is one round's outcome.
type ingestRound struct {
	setup, wall time.Duration
	user        int64 // bytes handed to Append
	written     int64 // bytes the table layer wrote, compactions included
	live        int64 // bytes the final generation needs
}

// ingestData generates one round's segments. Rounds differ in their data
// so that a run is not one input measured several times.
func ingestData(cfg config, round int) *tableData {
	return genTable(cfg.seed*1000+int64(round), cfg.ingestSegs, cfg.ingestSegRows)
}

// readUnder runs the reader's next query against tbl and checks the
// answer. The scan snapshots a committed generation between the two Rows
// calls, so the answer must be the oracle's for one of the segment counts
// in that range.
func readUnder(tbl *zktable.Table[int64], data *tableData, q *query, pre []answer, t *tally) {
	before := tbl.Rows()
	t0 := time.Now()
	agg, err := tbl.AggregateWhereAllContext(context.Background(), enginePreds(q.preds), q.aggCol)
	lat := time.Since(t0)
	after := tbl.Rows()
	t.attempted++
	if err != nil {
		t.fail(fmt.Sprintf("reader query %d: %v", q.id, err))
		return
	}
	got := engineAnswer(agg)
	for s := int(before) / data.segRows; s <= int(after)/data.segRows; s++ {
		if sameAgg(got, pre[s]) {
			t.lat[kindAgg] = append(t.lat[kindAgg], ms(lat))
			return
		}
	}
	t.fail(fmt.Sprintf("reader query %d: count %d sum %d matches no generation between %d and %d rows",
		q.id, got.count, got.sum, before, after))
}

// runRound ingests one round's data into a fresh table in dir while the
// reader scans it.
func runRound(cfg config, dir string, round int, qs []query, t *tally) (ingestRound, error) {
	var r ingestRound
	// The previous round's table is garbage by now; collecting it here,
	// untimed, keeps the peak resident set from depending on when the
	// collector happens to run.
	runtime.GC()
	setupStart := time.Now()
	data := ingestData(cfg, round)
	var wc writeCount
	tbl, err := createTable(dir, &wc)
	if err != nil {
		return r, err
	}
	defer tbl.Close()
	r.setup = time.Since(setupStart)
	pre := prefixAnswers(data, qs)

	firstCommit := make(chan struct{})
	writerDone := make(chan struct{})
	readerDone := make(chan *tally, 1)
	// The reader starts once there is something to read: scans of an empty
	// table would flood the latency sample with near-zero times.
	go func() {
		rt := newTally()
		defer func() { readerDone <- rt }()
		select {
		case <-firstCommit:
		case <-writerDone:
			return
		}
		rng := rand.New(rand.NewSource(cfg.seed<<8 + int64(round)))
		for {
			for _, qi := range rng.Perm(len(qs)) {
				select {
				case <-writerDone:
					return
				default:
				}
				readUnder(tbl, data, &qs[qi], pre[qi], rt)
			}
		}
	}()

	start := time.Now()
	werr := func() error {
		defer close(writerDone)
		for s := 0; s < data.segs; s++ {
			t0 := time.Now()
			if _, err := tbl.Append(data.segment(s)); err != nil {
				return fmt.Errorf("append %d: %w", s, err)
			}
			t.lat[kindAppend] = append(t.lat[kindAppend], ms(time.Since(t0)))
			t.attempted++
			if s == 0 {
				close(firstCommit)
			}
			if compactsAfter(s, data.segs) {
				if _, err := tbl.Compact(); err != nil {
					return fmt.Errorf("compact after segment %d: %w", s, err)
				}
			}
		}
		return nil
	}()
	r.wall = time.Since(start)
	t.merge(<-readerDone)
	if werr != nil {
		return r, werr
	}
	r.user = data.userBytes()
	t.payload += r.user
	r.written = wc.bytes.Load()
	if r.live, err = liveBytes(dir, tbl.NumSegments()); err != nil {
		return r, err
	}
	return r, tbl.Close()
}

func runIngest(w workload, cfg config, dir string) (map[string]float64, *tally, error) {
	qs := ingestReaderQueries(cfg.seed)
	if cfg.trace {
		return traceIngest(w, cfg, filepath.Join(dir, "t"), qs)
	}
	t := newTally()
	var (
		setups, stored, amp []float64
		wall                time.Duration
	)
	for round := 0; round == 0 || wall < cfg.window(); round++ {
		rdir := filepath.Join(dir, fmt.Sprintf("r%d", round))
		r, err := runRound(cfg, rdir, round, qs, t)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", round, err)
		}
		if err := os.RemoveAll(rdir); err != nil {
			return nil, nil, err
		}
		wall += r.wall
		setups = append(setups, r.setup.Seconds())
		stored = append(stored, float64(r.live)/float64(r.user))
		amp = append(amp, float64(r.written)/float64(r.user))
	}
	values, err := endToEndValues(w, t, wall)
	if err != nil {
		return nil, nil, err
	}
	// Per-round quantities are reported as the median round; user_mb_s is
	// the bytes committed over the rounds' wall time, compactions included.
	values["setup_s"] = median(setups)
	values["stored_ratio"] = median(stored)
	values["write_amp"] = median(amp)
	return values, t, nil
}
