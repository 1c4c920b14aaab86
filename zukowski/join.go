package zukowski

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// Hash join with the probe side in the compressed domain. The build side
// is an ordinary hash table from key value to build-row indexes; the
// probe side is a ColumnSet scan that, when the probe key column's block
// is dictionary-compressed, probes the hash table once per dictionary
// entry instead of once per row — the per-row work collapses to an array
// index by dictionary code. Rows in exception slots and blocks that are
// not dictionary-compressed probe the table on their decoded values.

// JoinTable is the build side of a hash join: each distinct key value
// maps to the build rows holding it. Build once, probe from any number
// of scans (the table is immutable after BuildJoin).
type JoinTable[T Integer] struct {
	rows map[T][]int32
}

// BuildJoin indexes the build side: keys[i] is build row i's join key.
// Duplicate keys are kept — the join is many-to-many.
func BuildJoin[T Integer](keys []T) *JoinTable[T] {
	jt := &JoinTable[T]{rows: make(map[T][]int32, len(keys))}
	for i, k := range keys {
		jt.rows[k] = append(jt.rows[k], int32(i))
	}
	return jt
}

// Len returns the number of distinct keys in the table.
func (jt *JoinTable[T]) Len() int { return len(jt.rows) }

// Rows returns the build rows holding key, nil when absent. The returned
// slice is the table's own — don't mutate it.
func (jt *JoinTable[T]) Rows(key T) []int32 { return jt.rows[key] }

// JoinOn probes the table with column probeCol of every row q's predicate
// selects, invoking fn once per block that produced at least one match
// with aligned pair slices: probe row probeRows[i] joined build row
// buildRows[i]. A probe row matching k build rows contributes k pairs,
// in build order; probe rows without a match contribute nothing (inner
// join). The slices are reused between calls; fn must copy what it
// keeps, and returning false stops the scan.
//
// When the probe block is dictionary-compressed the table is probed once
// per dictionary entry, and each row then joins by its dictionary code;
// only exception-slot rows probe the table individually, on their
// materialized values.
//
// Of q's run options SkipCorrupt and Report apply; Cols and Workers are
// ignored, as in RunAggregate. A panic in fn reaches the caller.
func (cs *ColumnSet[T]) JoinOn(q Query[T], probeCol int, jt *JoinTable[T], fn func(probeRows []int64, buildRows []int32) bool) error {
	if probeCol < 0 || probeCol >= len(cs.cols) {
		return fmt.Errorf("%w: probe column %d not in [0,%d)", ErrIndexOutOfRange, probeCol, len(cs.cols))
	}
	var (
		pr       []int64
		br       []int32
		codes    []int32
		dictRows [][]int32 // build matches per dictionary code of the current block
	)
	mat := [1]int{probeCol}
	return cs.visitBlocks(context.Background(), &q, mat[:], func(st *setState[T], b int) (bool, error) {
		cst := &st.cols[probeCol]
		vals, err := cs.gatherCol(st, b, probeCol)
		if err != nil {
			return true, err
		}
		st.rows = st.sv.AppendRows(st.rows[:0], int64(cs.cols[0].starts[b]))
		pr, br = pr[:0], br[:0]
		if cst.form == colSeg && cst.cur.Scheme == core.SchemePDict {
			dictRows = dictRows[:0]
			for _, v := range cst.cur.Dict[:cst.cur.DictLen] {
				dictRows = append(dictRows, jt.rows[v])
			}
			if codes, err = selectedCodes(cst, &st.sv, codes[:0]); err != nil {
				return true, err
			}
			for i, c := range codes {
				var matches []int32
				if uint32(c) >= uint32(len(dictRows)) {
					// An exception slot (-1), or a code past the dictionary
					// that only a crafted frame holds: probe on the value.
					matches = jt.rows[vals[i]]
				} else {
					matches = dictRows[c]
				}
				for _, r := range matches {
					pr = append(pr, st.rows[i])
					br = append(br, r)
				}
			}
		} else {
			for i, v := range vals {
				for _, r := range jt.rows[v] {
					pr = append(pr, st.rows[i])
					br = append(br, r)
				}
			}
		}
		return len(pr) == 0 || fn(pr, br), nil
	})
}
