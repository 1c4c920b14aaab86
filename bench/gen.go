package main

// The benchmark's inputs: table bt, the four workloads' query lists and
// the scalar oracle that answers them. Everything here is a pure function
// of the seed, and the oracle shares no code with the engine: it loops
// over the raw columns with plain comparisons.

import (
	"math"
	"math/rand"
	"sync"

	"repro/experiments"
)

// Columns of bt, in schema order. Each is one of the value shapes the
// codecs are built for, so every scheme is on the measured path:
// k sorted with noise (zone-map prunable, PFOR-DELTA), a 10-bit PFOR with
// 2 % exceptions, b 16-bit PFOR with 10 % exceptions (patch-heavy), d a
// 64-entry dictionary with 1 % outliers (PDICT), u uniform 62-bit
// (incompressible, stored raw).
const (
	colK = iota
	colA
	colB
	colD
	colU
	numCols
)

var colNames = []string{"k", "a", "b", "d", "u"}

// dictStep is the spacing of SynthDict's dictionary values (entry i is
// i*dictStep), which the d-predicates need to cover whole entries.
const dictStep = 7919

// tableData is bt's raw columns: the program's input and the oracle's
// ground truth.
type tableData struct {
	segs, segRows int
	cols          [numCols][]int64
}

func (t *tableData) rows() int { return t.segs * t.segRows }

// userBytes is the size of the table as the user handed it over.
func (t *tableData) userBytes() int64 { return int64(t.rows()) * numCols * 8 }

// segment returns segment s as Append wants it: one slice per column.
func (t *tableData) segment(s int) [][]int64 {
	lo, hi := s*t.segRows, (s+1)*t.segRows
	out := make([][]int64, numCols)
	for c := range out {
		out[c] = t.cols[c][lo:hi]
	}
	return out
}

func genTable(seed int64, segs, segRows int) *tableData {
	rng := rand.New(rand.NewSource(seed))
	n := segs * segRows
	t := &tableData{segs: segs, segRows: segRows}
	t.cols[colK] = experiments.SynthSorted(rng, n, 3)
	t.cols[colA] = experiments.SynthPFOR(rng, n, 10, 0.02)
	t.cols[colB] = experiments.SynthPFOR(rng, n, 16, 0.10)
	t.cols[colD], _ = experiments.SynthDict(rng, n, 6, 0.01)
	u := make([]int64, n)
	for i := range u {
		u[i] = rng.Int63n(1 << 62)
	}
	t.cols[colU] = u
	return t
}

// Operation kinds. Each workload has a primary and a secondary kind; the
// end-to-end latency metrics are reported per role (see workloads).
const (
	kindAgg    = "agg"    // one JSON aggregate over the matching rows
	kindRows   = "rows"   // NDJSON rows of the output columns
	kindFrames = "frames" // raw ZKC2 frames, decoded by the client
	kindAppend = "append" // one zktable.Append commit (ingest_scan)
)

// rangePred is the inclusive predicate lo <= col <= hi.
type rangePred struct {
	col    int
	lo, hi int64
}

// query is one operation of a workload's list with its expected answer.
type query struct {
	id     int
	kind   string
	preds  []rangePred // conjunction
	anyOf  []rangePred // disjunction, ANDed with preds; empty means none
	out    []int       // output columns (rows, frames)
	aggCol int         // aggregated column (agg)
	want   answer
}

// answer is what the oracle expects: the aggregate for kindAgg, the row
// count and an order-independent hash of (row id, output values) for the
// streaming kinds.
type answer struct {
	count    int64
	sum      int64
	min, max int64
	hash     uint64
}

// payloadBytes is the user data one execution of q hands its caller: the
// values delivered, or folded into the aggregate.
func (q *query) payloadBytes() int64 {
	if q.kind == kindAgg {
		return q.want.count * 8
	}
	return q.want.count * int64(len(q.out)) * 8
}

// rowHash mixes one delivered row into a 64-bit value; answers sum these,
// so delivery order does not matter.
func rowHash(row int64, vals []int64) uint64 {
	h := uint64(row)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, v := range vals {
		h ^= uint64(v)
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

func (a *answer) addAgg(v int64) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.count++
	a.sum += v
}

func (q *query) matches(t *tableData, i int) bool {
	for _, p := range q.preds {
		if v := t.cols[p.col][i]; v < p.lo || v > p.hi {
			return false
		}
	}
	if len(q.anyOf) == 0 {
		return true
	}
	for _, p := range q.anyOf {
		if v := t.cols[p.col][i]; v >= p.lo && v <= p.hi {
			return true
		}
	}
	return false
}

// oracle answers q over the first rows rows of t.
func oracle(t *tableData, q *query, rows int) answer {
	var a answer
	vals := make([]int64, len(q.out))
	for i := 0; i < rows; i++ {
		if !q.matches(t, i) {
			continue
		}
		if q.kind == kindAgg {
			a.addAgg(t.cols[q.aggCol][i])
			continue
		}
		for j, c := range q.out {
			vals[j] = t.cols[c][i]
		}
		a.count++
		a.hash += rowHash(int64(i), vals)
	}
	return a
}

const listLen = 64

// finish shuffles a list into its seeded order, numbers it and fills in
// the oracle's answers.
func finish(t *tableData, rng *rand.Rand, qs []query) []query {
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	// One goroutine per query: the oracle is a scalar loop over the whole
	// table, and the run's clock is ticking.
	var wg sync.WaitGroup
	for i := range qs {
		qs[i].id = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs[i].want = oracle(t, &qs[i], t.rows())
		}()
	}
	wg.Wait()
	return qs
}

// aWidth is the width of a range on a that selects about share of the
// rows: a's codable values are uniform on [0, 1022], 98 % of the column.
func aWidth(share float64) int64 {
	return min(1023, max(1, int64(math.Round(share*1023/0.98))))
}

func aRange(rng *rand.Rand, share float64) rangePred {
	w := aWidth(share)
	lo := rng.Int63n(1023 - w + 1)
	return rangePred{colA, lo, lo + w - 1}
}

// dRange returns a predicate on d covering m consecutive dictionary
// entries (99 % of the column is uniform over 64 entries) and its share.
func dRange(rng *rand.Rand) (rangePred, float64) {
	m := 16 + rng.Int63n(17)
	j := rng.Int63n(64 - m + 1)
	return rangePred{colD, j * dictStep, (j + m - 1) * dictStep}, 0.99 * float64(m) / 64
}

// kWindow returns the predicate on k that covers rows [i0, i0+w) — plus
// any neighbours sharing the boundary values, which the oracle counts too.
func kWindow(t *tableData, i0, w int) rangePred {
	k := t.cols[colK]
	return rangePred{colK, k[i0], k[i0+w-1]}
}

// stratified returns the j-th of n evenly spread start rows for a window
// of w rows, jittered inside its stratum, so every seed covers the table
// the same way.
func stratified(t *tableData, rng *rand.Rand, j, n, w int) int {
	room := float64(t.rows() - w)
	return int((float64(j) + rng.Float64()) / float64(n) * room)
}

// selectHotQueries: no predicate touches k, so nothing prunes and every
// query masks and refines the whole table. 38 conjunctive aggregates at
// 1-5 % selectivity (evenly spread), 19 row scans at 1 %, 7 aggregates
// with a two-branch disjunction on a.
func selectHotQueries(t *tableData, seed int64) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x5e1ec7))
	qs := make([]query, 0, listLen)
	for i := 0; i < 38; i++ {
		share := 0.01 + 0.04*(float64(i)+0.5)/38
		d, dShare := dRange(rng)
		qs = append(qs, query{kind: kindAgg, aggCol: colB,
			preds: []rangePred{aRange(rng, share/dShare), d}})
	}
	for i := 0; i < 19; i++ {
		d, dShare := dRange(rng)
		qs = append(qs, query{kind: kindRows, out: []int{colK, colB},
			preds: []rangePred{aRange(rng, 0.01/dShare), d}})
	}
	for i := 0; i < 7; i++ {
		d, dShare := dRange(rng)
		// The same range in the lower and the upper half of a's domain,
		// each carrying half the share.
		w := min(aWidth(0.015/dShare), 511)
		lo := rng.Int63n(512 - w)
		left := rangePred{colA, lo, lo + w - 1}
		right := rangePred{colA, lo + 512, lo + 512 + w - 1}
		qs = append(qs, query{kind: kindAgg, aggCol: colB,
			preds: []rangePred{d}, anyOf: []rangePred{left, right}})
	}
	return finish(t, rng, qs)
}

// exportHotQueries: every query is a 2 % window on k — about 98 % of the
// blocks are pruned unread — returning every row of [k,a,b,d]; half as
// NDJSON rows, half as raw frames.
func exportHotQueries(t *tableData, seed int64) []query {
	rng := rand.New(rand.NewSource(seed ^ 0xe4907))
	w := t.rows() / 50
	qs := make([]query, 0, listLen)
	for j := 0; j < listLen; j++ {
		kind := kindRows
		if j%2 == 1 {
			kind = kindFrames
		}
		qs = append(qs, query{kind: kind, out: []int{colK, colA, colB, colD},
			preds: []rangePred{kWindow(t, stratified(t, rng, j, listLen, w), w)}})
	}
	return finish(t, rng, qs)
}

// selectColdQueries: a 10 % window on k at an evenly spread position and
// a range on a. The server's cache holds an eighth of the table, so the
// blocks of one window are mostly not resident when the next arrives. 48
// aggregates (a 20-60 % selective, evenly spread, so that every seed
// aggregates as many rows), 16 row scans of [k,b] (a 1 %).
func selectColdQueries(t *tableData, seed int64) []query {
	rng := rand.New(rand.NewSource(seed ^ 0xc01d))
	w := t.rows() / 10
	qs := make([]query, 0, listLen)
	for j := 0; j < listLen; j++ {
		win := kWindow(t, stratified(t, rng, j, listLen, w), w)
		if j%4 == 3 {
			qs = append(qs, query{kind: kindRows, out: []int{colK, colB},
				preds: []rangePred{win, aRange(rng, 0.01)}})
			continue
		}
		qs = append(qs, query{kind: kindAgg, aggCol: colB,
			preds: []rangePred{win, aRange(rng, 0.2+0.4*(float64(j)+0.5)/listLen)}})
	}
	return finish(t, rng, qs)
}

// ingestReaderQueries: sum(b) where a is in a 5-50 % range (evenly
// spread over the list; the reader draws from it in random order), asked of
// whatever generation is committed. want is left empty: the expected
// answer depends on how many segments the scan saw (see prefixAnswers).
func ingestReaderQueries(seed int64) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x1a6e57))
	qs := make([]query, listLen)
	for i := range qs {
		qs[i] = query{id: i, kind: kindAgg, aggCol: colB,
			preds: []rangePred{aRange(rng, 0.05+0.45*(float64(i)+0.5)/listLen)}}
	}
	return qs
}

// prefixAnswers returns, for each query, the oracle's answer over the
// first s segments, for s = 0..segs: what a reader must see when its
// snapshot held s committed segments.
func prefixAnswers(t *tableData, qs []query) [][]answer {
	out := make([][]answer, len(qs))
	var wg sync.WaitGroup
	for qi := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := &qs[qi]
			pre := make([]answer, t.segs+1)
			var a answer
			for s := 0; s < t.segs; s++ {
				for i := s * t.segRows; i < (s+1)*t.segRows; i++ {
					if q.matches(t, i) {
						a.addAgg(t.cols[q.aggCol][i])
					}
				}
				pre[s+1] = a
			}
			out[qi] = pre
		}()
	}
	wg.Wait()
	return out
}
