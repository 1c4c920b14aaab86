package main

// The serving side of the benchmark: build bt as a zktable, serve it with
// zkserve on a loopback listener in this process, and drive it with
// zkserve/client — one correctness pass, then a closed loop.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/zkserve"
	"repro/zkserve/client"
	"repro/zktable"
	"repro/zukowski"
)

const (
	tableName   = "bt"
	blockValues = 4096
)

// writeCount is what Options.WriteWrapper saw: every byte and write call
// the table layer issued, segment files and manifests alike.
type writeCount struct {
	bytes, writes atomic.Int64
}

type countedWriter struct {
	w io.Writer
	c *writeCount
}

func (cw countedWriter) Write(p []byte) (int, error) {
	cw.c.bytes.Add(int64(len(p)))
	cw.c.writes.Add(1)
	return cw.w.Write(p)
}

func (c *writeCount) wrap(_ string, w io.Writer) io.Writer { return countedWriter{w, c} }

// createTable starts an empty table of bt's schema in dir with the
// production defaults: per-block automatic codec choice and the default
// flush policy (temp file, fsync, rename, directory fsync).
func createTable(dir string, wc *writeCount) (*zktable.Table[int64], error) {
	return zktable.Create[int64](dir, colNames, blockValues, zktable.Options{WriteWrapper: wc.wrap})
}

// buildTable commits t to dir one Append per segment and returns how long
// each took.
func buildTable(dir string, t *tableData, wc *writeCount) ([]time.Duration, error) {
	tbl, err := createTable(dir, wc)
	if err != nil {
		return nil, err
	}
	defer tbl.Close()
	took := make([]time.Duration, t.segs)
	for s := 0; s < t.segs; s++ {
		start := time.Now()
		if _, err := tbl.Append(t.segment(s)); err != nil {
			return nil, fmt.Errorf("append segment %d: %w", s, err)
		}
		took[s] = time.Since(start)
	}
	return took, nil
}

// liveBytes sums the files the current generation needs: the newest
// manifest and the newest segs segment ids. Segment ids only grow and a
// compaction replaces every live segment, so the live ones are always the
// highest; older files linger only for the retained fallback manifest.
func liveBytes(dir string, segs int) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	sizes := map[uint64]int64{}
	var manifest string
	var manifestSize int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		name := e.Name()
		if strings.HasPrefix(name, "MANIFEST-") && name > manifest {
			manifest, manifestSize = name, info.Size()
		}
		if parts := strings.SplitN(name, "-", 3); len(parts) == 3 && parts[0] == "seg" {
			id, err := strconv.ParseUint(parts[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("segment file %q: %w", name, err)
			}
			sizes[id] += info.Size()
		}
	}
	ids := make([]uint64, 0, len(sizes))
	for id := range sizes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	if len(ids) < segs {
		return 0, fmt.Errorf("%s holds %d segments, want %d", dir, len(ids), segs)
	}
	total := manifestSize
	for _, id := range ids[:segs] {
		total += sizes[id]
	}
	return total, nil
}

// served is bt behind a zkserve server on a loopback listener.
type served struct {
	reg  *zkserve.Registry
	srv  *zkserve.Server
	hs   *http.Server
	done chan error // hs.Serve's return
	base string

	stopOnce sync.Once
	stopErr  error
}

// serve opens dataDir (one subdirectory per table) with a block cache of
// cacheBytes and starts serving it.
func serve(dataDir string, cacheBytes int64) (*served, error) {
	reg, err := zkserve.OpenDir(dataDir, zkserve.WithCacheBytes(cacheBytes))
	if err != nil {
		return nil, err
	}
	srv := newServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &served{reg: reg, srv: srv, hs: &http.Server{Handler: srv}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	zkserve.Harden(s.hs)
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// newServer serves reg with every limit at its default: Slots stays
// 4 x GOMAXPROCS, so a 429 is a failure of the benchmark's load shape, not
// expected shedding.
func newServer(reg *zkserve.Registry) *zkserve.Server {
	return zkserve.NewServer(zkserve.Config{
		Registry: reg,
		Logger:   slog.New(slog.DiscardHandler), // one log line per request would be measured too
	})
}

// stop shuts the listener down, waits for the serve goroutine and closes
// the registry. Later calls return the first call's error.
func (s *served) stop() error {
	s.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.stopErr = s.hs.Shutdown(ctx)
		if err := <-s.done; err != http.ErrServerClosed && s.stopErr == nil {
			s.stopErr = err
		}
		if err := s.reg.Close(); s.stopErr == nil {
			s.stopErr = err
		}
	})
	return s.stopErr
}

// newClient returns a client with a connection pool of its own, so each
// closed-loop caller keeps one keep-alive connection.
func newClient(base string) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return client.New(base, &http.Client{Transport: tr}), tr
}

func predSpecs(ps []rangePred) []zkserve.PredSpec {
	out := make([]zkserve.PredSpec, len(ps))
	for i, p := range ps {
		lo, hi := p.lo, p.hi
		out[i] = zkserve.PredSpec{Col: colNames[p.col], Lo: &lo, Hi: &hi}
	}
	return out
}

// request is q on the wire.
func (q *query) request() zkserve.ScanRequest {
	req := zkserve.ScanRequest{Table: tableName, Preds: predSpecs(q.preds)}
	for _, p := range q.anyOf {
		req.AnyOf = append(req.AnyOf, zkserve.PredGroup{Preds: predSpecs([]rangePred{p})})
	}
	if q.kind == kindAgg {
		req.Agg, req.AggCol = "all", colNames[q.aggCol]
		return req
	}
	for _, c := range q.out {
		req.Cols = append(req.Cols, colNames[c])
	}
	return req
}

// caller issues queries over one client and turns each response into an
// answer. With full set it hashes every delivered row; without, it does
// the least a real caller would: count rows, and for frames decode every
// shipped block and keep the rows inside the predicate.
type caller struct {
	cl   *client.Client
	full bool
	dec  zukowski.FrameDecoder[int64]
	cols [][]int64 // decoded frames of one block, per output column
	vals []int64
}

func (c *caller) do(ctx context.Context, q *query) (answer, error) {
	var a answer
	req := q.request()
	switch q.kind {
	case kindAgg:
		resp, err := c.cl.Aggregate(ctx, req)
		if err != nil {
			return a, err
		}
		r := resp.Result
		return answer{count: r.Count, sum: r.Sum, min: r.Min, max: r.Max}, nil
	case kindRows:
		var fn func(int64, []int64) bool
		if c.full {
			fn = func(row int64, vals []int64) bool {
				a.hash += rowHash(row, vals)
				return true
			}
		}
		res, err := c.cl.ScanRows(ctx, req, fn)
		if err != nil {
			return a, err
		}
		if res.Truncated {
			return a, fmt.Errorf("rows stream truncated (%s)", res.Reason)
		}
		a.count = res.Rows
		return a, nil
	case kindFrames:
		var decErr error
		res, err := c.cl.ScanFrames(ctx, req, func(_ []zkserve.FrameStreamCol, blk *zkserve.FrameBlock) bool {
			decErr = c.block(q, blk, &a)
			return decErr == nil
		})
		if err == nil {
			err = decErr
		}
		if err != nil {
			return a, err
		}
		if res.Truncated {
			return a, fmt.Errorf("frame stream truncated (%s)", res.Reason)
		}
		return a, nil
	}
	return a, fmt.Errorf("query %d: no wire form for kind %q", q.id, q.kind)
}

// block decodes one shipped block and adds the rows that pass q's
// predicates. Frame mode prunes by block only, so the caller filters; the
// frames workloads put their predicates on output columns.
func (c *caller) block(q *query, blk *zkserve.FrameBlock, a *answer) error {
	if len(blk.Frames) != len(q.out) {
		return fmt.Errorf("block %d: %d frames for %d columns", blk.Index, len(blk.Frames), len(q.out))
	}
	if len(c.cols) < len(q.out) {
		c.cols = make([][]int64, len(q.out))
		c.vals = make([]int64, len(q.out))
	}
	for j, f := range blk.Frames {
		vals, err := c.dec.Decode(c.cols[j][:0], f)
		if err != nil {
			return fmt.Errorf("block %d column %s: %w", blk.Index, colNames[q.out[j]], err)
		}
		if len(vals) != blk.Count {
			return fmt.Errorf("block %d column %s: %d values, header says %d", blk.Index, colNames[q.out[j]], len(vals), blk.Count)
		}
		c.cols[j] = vals
	}
rows:
	for i := 0; i < blk.Count; i++ {
		for _, p := range q.preds {
			v := c.cols[outIndex(q, p.col)][i]
			if v < p.lo || v > p.hi {
				continue rows
			}
		}
		a.count++
		if c.full {
			for j := range q.out {
				c.vals[j] = c.cols[j][i]
			}
			a.hash += rowHash(blk.FirstRow+int64(i), c.vals)
		}
	}
	return nil
}

func outIndex(q *query, col int) int {
	for j, c := range q.out {
		if c == col {
			return j
		}
	}
	panic(fmt.Sprintf("query %d filters frames on column %s, which it does not output", q.id, colNames[col]))
}

// mismatch describes how got differs from what the oracle expects of q;
// empty means the answer is right. The hash is only compared when the
// caller computed it.
func (q *query) mismatch(got answer, full bool) string {
	w := q.want
	switch {
	case got.count != w.count:
		return fmt.Sprintf("query %d (%s): count %d, oracle %d", q.id, q.kind, got.count, w.count)
	case q.kind == kindAgg && got.sum != w.sum:
		return fmt.Sprintf("query %d (agg): sum %d, oracle %d", q.id, got.sum, w.sum)
	case q.kind == kindAgg && w.count > 0 && (got.min != w.min || got.max != w.max):
		return fmt.Sprintf("query %d (agg): min/max %d/%d, oracle %d/%d", q.id, got.min, got.max, w.min, w.max)
	case q.kind != kindAgg && full && got.hash != w.hash:
		return fmt.Sprintf("query %d (%s): delivered rows or values differ from the oracle", q.id, q.kind)
	}
	return ""
}

// tally is what a stretch of operations produced.
type tally struct {
	lat       map[string][]float64 // per kind, ms
	attempted int
	failed    int
	payload   int64 // user bytes of the completed, correct operations
	firstErr  string
}

func newTally() *tally { return &tally{lat: map[string][]float64{}} }

func (t *tally) fail(msg string) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = msg
	}
}

func (t *tally) merge(o *tally) {
	for k, v := range o.lat {
		t.lat[k] = append(t.lat[k], v...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.payload += o.payload
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// gate runs every query of the list once, in order, over one client and
// compares the full answer — aggregate, or row ids and values — with the
// oracle. It also leaves the server's cache as warm as the list makes it.
func gate(base string, qs []query) *tally {
	cl, tr := newClient(base)
	defer tr.CloseIdleConnections()
	c := &caller{cl: cl, full: true}
	t := newTally()
	for i := range qs {
		q := &qs[i]
		t.attempted++
		got, err := c.do(context.Background(), q)
		if err != nil {
			t.fail(fmt.Sprintf("query %d (%s): %v", q.id, q.kind, err))
		} else if msg := q.mismatch(got, true); msg != "" {
			t.fail(msg)
		}
	}
	return t
}

// closedLoop drives the list from clients callers for warm+window: each
// caller owns one keep-alive connection, waits for every reply, and walks
// the list in its own seeded order — whole shuffled passes, so the mix of
// kinds is the list's. Operations completing inside the window are timed
// and checked against the oracle's row count.
func closedLoop(base string, qs []query, clients int, seed int64, warm, window time.Duration) *tally {
	start := time.Now()
	warmEnd := start.Add(warm)
	end := warmEnd.Add(window)
	var wg sync.WaitGroup
	tallies := make([]*tally, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		t := newTally()
		tallies[ci] = t
		go func() {
			defer wg.Done()
			cl, tr := newClient(base)
			defer tr.CloseIdleConnections()
			c := &caller{cl: cl}
			rng := rand.New(rand.NewSource(seed<<8 + int64(ci)))
			for {
				for _, qi := range rng.Perm(len(qs)) {
					q := &qs[qi]
					t0 := time.Now()
					if !t0.Before(end) {
						return
					}
					got, err := c.do(context.Background(), q)
					t1 := time.Now()
					if t0.Before(warmEnd) || t1.After(end) {
						continue
					}
					t.attempted++
					if err != nil {
						t.fail(fmt.Sprintf("query %d (%s): %v", q.id, q.kind, err))
						continue
					}
					if msg := q.mismatch(got, false); msg != "" {
						t.fail(msg)
						continue
					}
					t.lat[q.kind] = append(t.lat[q.kind], ms(t1.Sub(t0)))
					t.payload += q.payloadBytes()
				}
			}
		}()
	}
	wg.Wait()
	total := newTally()
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tableDir is where a data directory keeps bt.
func tableDir(dataDir string) string { return filepath.Join(dataDir, tableName) }
