package zukowski

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Grouped aggregation in the compressed domain. GroupAggregate folds
// aggregate functions per distinct group key, and when a group column's
// block is dictionary-compressed (PDICT) it aggregates in code space:
// each selected row contributes under its dictionary code — a small
// dense integer — so the per-row work is an array index instead of a
// hash probe, and the dictionary is decoded once per block, per distinct
// code, when the block's accumulators flush into the result. Rows in
// exception slots (out-of-dictionary values, plus the compulsory patch
// entries the exception stride forces) and blocks that are not
// dictionary-compressed fall back to per-row hashing on the decoded
// values; both paths meet in the same result map.

// AggKind selects an aggregate function of GroupAggregate.
type AggKind uint8

const (
	// AggCount counts the group's rows; the spec's input is ignored.
	AggCount AggKind = iota
	// AggSum sums the spec's input over the group's rows.
	AggSum
	// AggMin takes the minimum of the spec's input over the group's rows.
	AggMin
	// AggMax takes the maximum of the spec's input over the group's rows.
	AggMax
)

// AggSpec is one aggregate of a GroupAggregate: the function and its
// per-row input. The input is column Col's value, or — when Map is set —
// an arbitrary derivation over the row's values: Map receives the
// block's materialized columns indexed by set column (cols[c] is non-nil
// exactly for the columns named in Cols, plus every group column) and
// the row's index within them, and returns the row's input. Cols names
// the set columns Map reads; Col is ignored when Map is set.
type AggSpec[T Integer] struct {
	Kind AggKind
	Col  int
	Cols []int
	Map  func(cols [][]T, i int) int64
}

// Grouped is the result of GroupAggregate: one entry per distinct group
// key, sorted lexicographically by key. Keys[g] holds group g's key —
// one value per group column, in groupCols order (empty when grouping by
// nothing) — and Aggs[g][s] holds spec s's result for group g.
type Grouped[T Integer] struct {
	Keys [][]T
	Aggs [][]int64
}

// maxFlatGroups caps the code-space path's flat accumulator: the product
// of the group columns' dictionary sizes must stay small enough that the
// per-block flat arrays are cheap to allocate and flush.
const maxFlatGroups = 4096

// aggInit returns kind's accumulator identity.
func aggInit(kind AggKind) int64 {
	switch kind {
	case AggMin:
		return math.MaxInt64
	case AggMax:
		return math.MinInt64
	default:
		return 0
	}
}

// aggMerge folds one partial accumulator into another under kind.
func aggMerge(kind AggKind, acc, part int64) int64 {
	switch kind {
	case AggMin:
		return min(acc, part)
	case AggMax:
		return max(acc, part)
	default: // AggCount, AggSum
		return acc + part
	}
}

// groupTable accumulates groups across blocks: a key-bytes map onto
// dense group indexes, with per-group aggregate cells.
type groupTable[T Integer] struct {
	specs []AggSpec[T]
	idx   map[string]int
	keys  [][]T
	cells [][]int64
	kb    []byte // key encoding scratch
}

func newGroupTable[T Integer](specs []AggSpec[T]) *groupTable[T] {
	return &groupTable[T]{specs: specs, idx: make(map[string]int)}
}

// group finds or creates the group of key, returning its cell slice.
// key is copied on creation; callers may reuse the slice.
func (gt *groupTable[T]) group(key []T) []int64 {
	kb := gt.kb[:0]
	for _, v := range key {
		kb = binary.LittleEndian.AppendUint64(kb, uint64(int64(v)))
	}
	gt.kb = kb
	if g, ok := gt.idx[string(kb)]; ok {
		return gt.cells[g]
	}
	cells := make([]int64, len(gt.specs))
	for s := range gt.specs {
		cells[s] = aggInit(gt.specs[s].Kind)
	}
	gt.idx[string(kb)] = len(gt.keys)
	gt.keys = append(gt.keys, append([]T(nil), key...))
	gt.cells = append(gt.cells, cells)
	return cells
}

// result sorts the accumulated groups lexicographically by key.
func (gt *groupTable[T]) result() Grouped[T] {
	ord := make([]int, len(gt.keys))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		ka, kc := gt.keys[ord[a]], gt.keys[ord[b]]
		for i := range ka {
			if ka[i] != kc[i] {
				return ka[i] < kc[i]
			}
		}
		return false
	})
	res := Grouped[T]{Keys: make([][]T, len(ord)), Aggs: make([][]int64, len(ord))}
	for i, g := range ord {
		res.Keys[i] = gt.keys[g]
		res.Aggs[i] = gt.cells[g]
	}
	return res
}

// rowInput returns spec s's input for row i of the block's materialized
// columns.
func rowInput[T Integer](spec *AggSpec[T], cols [][]T, i int) int64 {
	if spec.Map != nil {
		return spec.Map(cols, i)
	}
	if spec.Kind == AggCount {
		return 0
	}
	return int64(cols[spec.Col][i])
}

// applyRow folds row i directly into a group's cells (the hash path).
func applyRow[T Integer](specs []AggSpec[T], cells []int64, cols [][]T, i int) {
	for s := range specs {
		switch specs[s].Kind {
		case AggCount:
			cells[s]++
		default:
			cells[s] = aggMerge(specs[s].Kind, cells[s], rowInput(&specs[s], cols, i))
		}
	}
}

// GroupAggregate evaluates q's predicate over the set and folds the
// aggregate specs per distinct combination of the group columns' values,
// in one sequential pass. The result has one entry per group, sorted
// lexicographically by key; an empty groupCols folds everything the
// predicate selects into a single group with an empty key (and a
// predicate selecting nothing yields no groups at all).
//
// Group columns whose blocks are dictionary-compressed are aggregated in
// code space — see the package comment above AggKind — so a low-
// cardinality GROUP BY over PDICT columns never hashes per row. The
// aggregate inputs themselves are materialized only at the selected
// rows, exactly like a scan.
//
// Of q's run options SkipCorrupt and Report apply; Cols and Workers are
// ignored, as in RunAggregate. A panic in a spec's Map reaches
// the caller.
func (cs *ColumnSet[T]) GroupAggregate(q Query[T], groupCols []int, specs []AggSpec[T]) (Grouped[T], error) {
	var zero Grouped[T]
	need := make([]bool, len(cs.cols))
	for _, ci := range groupCols {
		if ci < 0 || ci >= len(cs.cols) {
			return zero, fmt.Errorf("%w: group column %d not in [0,%d)", ErrIndexOutOfRange, ci, len(cs.cols))
		}
		need[ci] = true
	}
	for s := range specs {
		if specs[s].Map != nil {
			for _, ci := range specs[s].Cols {
				if ci < 0 || ci >= len(cs.cols) {
					return zero, fmt.Errorf("%w: aggregate input column %d not in [0,%d)", ErrIndexOutOfRange, ci, len(cs.cols))
				}
				need[ci] = true
			}
			continue
		}
		if specs[s].Kind == AggCount {
			continue
		}
		if specs[s].Col < 0 || specs[s].Col >= len(cs.cols) {
			return zero, fmt.Errorf("%w: aggregate column %d not in [0,%d)", ErrIndexOutOfRange, specs[s].Col, len(cs.cols))
		}
		need[specs[s].Col] = true
	}

	mat := make([]int, 0, len(need)) // non-nil: no column at all is not every column
	for ci, n := range need {
		if n {
			mat = append(mat, ci)
		}
	}
	gt := newGroupTable(specs)
	colsBuf := make([][]T, len(cs.cols))
	key := make([]T, len(groupCols))
	dictLens := make([]int, len(groupCols))
	var flatCells []int64 // specs-major: flatCells[s*P+code]
	var flatCount []int64
	var touched []int32
	err := cs.visitBlocks(context.Background(), &q, mat, func(st *setState[T], b int) (bool, error) {
		return true, cs.groupBlock(st, b, groupCols, specs, need, gt,
			colsBuf, key, dictLens, &flatCells, &flatCount, &touched)
	})
	if err != nil {
		return zero, err
	}
	return gt.result(), nil
}

// groupBlock folds the rows block b's bitmap (st.sv) selects into gt. Only
// the decode calls run under the crafted-frame panic guard; the specs' Map
// functions are the caller's code and run outside it.
func (cs *ColumnSet[T]) groupBlock(st *setState[T], b int,
	groupCols []int, specs []AggSpec[T], need []bool, gt *groupTable[T],
	colsBuf [][]T, key []T, dictLens []int,
	flatCells, flatCount *[]int64, touched *[]int32,
) error {
	for ci := range cs.cols {
		colsBuf[ci] = nil
		if !need[ci] {
			continue
		}
		vals, err := cs.gatherCol(st, b, ci)
		if err != nil {
			return err
		}
		colsBuf[ci] = vals
	}
	n := st.sv.Count()

	// Code-space gate: every group column's block dictionary-compressed,
	// flat accumulator small. Grouping by nothing is the trivial flat
	// case — one cell, no codes.
	flat, product := true, 1
	for gi, ci := range groupCols {
		cst := &st.cols[ci]
		if cst.form != colSeg || cst.cur.Scheme != core.SchemePDict {
			flat = false
			break
		}
		dictLens[gi] = cst.cur.DictLen
		if product *= cst.cur.DictLen; product > maxFlatGroups {
			flat = false
			break
		}
	}
	if !flat {
		for i := 0; i < n; i++ {
			for gi, ci := range groupCols {
				key[gi] = colsBuf[ci][i]
			}
			applyRow(specs, gt.group(key), colsBuf, i)
		}
		return nil
	}

	if cap(st.codes) < len(groupCols) {
		st.codes = make([][]int32, len(groupCols))
	}
	codes := st.codes[:len(groupCols)]
	for gi, ci := range groupCols {
		var err error
		if codes[gi], err = selectedCodes(&st.cols[ci], &st.sv, codes[gi][:0]); err != nil {
			return err
		}
	}
	if cap(*flatCount) < product {
		*flatCount = make([]int64, product)
		*flatCells = make([]int64, len(specs)*product)
	}
	count := (*flatCount)[:product]
	cells := (*flatCells)[:len(specs)*product]
	tl := (*touched)[:0]
	for i := 0; i < n; i++ {
		code, ok := 0, true
		for gi := range groupCols {
			c := codes[gi][i]
			if uint32(c) >= uint32(dictLens[gi]) {
				ok = false
				break
			}
			code = code*dictLens[gi] + int(c)
		}
		if !ok {
			// Exception slot (-1, or a code past the dictionary that only a
			// crafted frame holds): the row's true value may be out of the
			// dictionary — fold it through the hash path on values.
			for gi, ci := range groupCols {
				key[gi] = colsBuf[ci][i]
			}
			applyRow(specs, gt.group(key), colsBuf, i)
			continue
		}
		if count[code] == 0 {
			tl = append(tl, int32(code))
			for s := range specs {
				cells[s*product+code] = aggInit(specs[s].Kind)
			}
		}
		count[code]++
		for s := range specs {
			if specs[s].Kind == AggCount {
				continue
			}
			cells[s*product+code] = aggMerge(specs[s].Kind, cells[s*product+code], rowInput(&specs[s], colsBuf, i))
		}
	}
	// Flush: decode each touched combined code back into key values via
	// the block dictionaries (mixed-radix, last column fastest) and merge
	// the block-local cells into the global table.
	for _, tc := range tl {
		code := int(tc)
		rem := code
		for gi := len(groupCols) - 1; gi >= 0; gi-- {
			ci := groupCols[gi]
			key[gi] = st.cols[ci].cur.Dict[rem%dictLens[gi]]
			rem /= dictLens[gi]
		}
		g := gt.group(key)
		for s := range specs {
			part := cells[s*product+code]
			if specs[s].Kind == AggCount {
				part = count[code]
			}
			g[s] = aggMerge(specs[s].Kind, g[s], part)
		}
		count[code] = 0
	}
	*touched = tl[:0]
	return nil
}
