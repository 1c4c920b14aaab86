package zukowski

import (
	"fmt"

	"repro/internal/core"
)

// Predicate expression trees: the one form of a scan's predicate
// (Query.Preds is folded into one before a scan starts). An Expr is an
// AND/OR tree over range and membership leaves, evaluated entirely at the
// selection-bitmap level — each leaf produces, refines or unions a
// per-block bitmap with the compressed-domain mask kernels
// (DecompressMask / RefineMask / UnionMask), so a disjunction composes
// with one OR per 32 rows and nothing outside the final bitmap is ever
// decoded into a value.
//
// Before a block is evaluated its zone maps give every node of the tree a
// three-valued verdict — no row of the block matches, every row does, or
// the node has to be evaluated (see verdict). A node decided either way
// costs nothing: its column's frame is not fetched, checksummed, cached,
// parsed or scanned. Evaluation order inside an AND node is
// most-selective-first by zone-map estimate.

type exprOp uint8

const (
	opNone exprOp = iota // zero Expr: selects every row
	opRange
	opIn
	opAnd
	opOr
)

// Expr is a predicate over the columns of a ColumnSet: an AND/OR tree of
// inclusive range and membership tests, built with And, Or, Range and In.
// The zero Expr selects every row — a Query without a predicate. Exprs
// are immutable values; sharing subtrees between queries is safe.
type Expr[T Integer] struct {
	op     exprOp
	col    int
	lo, hi T
	vals   []T
	kids   []Expr[T]
}

// Range selects the rows whose value in column col lies in the inclusive
// range [lo, hi]. A Range with lo > hi selects nothing. A Query.Preds
// entry {Col, Lo, Hi} is exactly And(Range(Col, Lo, Hi), ...).
func Range[T Integer](col int, lo, hi T) Expr[T] {
	return Expr[T]{op: opRange, col: col, lo: lo, hi: hi}
}

// In selects the rows whose value in column col equals one of vals — the
// membership test, evaluated as a union of point ranges. An In with no
// values selects nothing. The values slice is retained; don't mutate it.
func In[T Integer](col int, vals ...T) Expr[T] {
	return Expr[T]{op: opIn, col: col, vals: vals}
}

// And selects the rows every child selects, of any number of children.
// And() with no children selects everything (the identity of
// conjunction).
func And[T Integer](kids ...Expr[T]) Expr[T] {
	return Expr[T]{op: opAnd, kids: kids}
}

// Or selects the rows any child selects. Or() with no children selects
// nothing (the identity of disjunction).
func Or[T Integer](kids ...Expr[T]) Expr[T] {
	return Expr[T]{op: opOr, kids: kids}
}

// isZero reports whether e is the zero Expr (select everything).
func (e *Expr[T]) isZero() bool { return e.op == opNone }

// check validates every column reference in the tree.
func (e *Expr[T]) check(ncols int) error {
	switch e.op {
	case opNone:
		return nil
	case opRange, opIn:
		if e.col < 0 || e.col >= ncols {
			return fmt.Errorf("%w: expression column %d not in [0,%d)", ErrIndexOutOfRange, e.col, ncols)
		}
		return nil
	default:
		for i := range e.kids {
			if err := e.kids[i].check(ncols); err != nil {
				return err
			}
		}
		return nil
	}
}

// verdict is what a block's zone maps prove about a predicate before any
// of the block is read. It is the one block-level pruning decision of the
// query layer: planScan asks it once per block of a scan, and every
// executor walks that plan; evalAnd and evalOr skip every conjunct and
// subtree decided either way.
type verdict uint8

const (
	verdictSome verdict = iota // undecided: the predicate must be evaluated
	verdictNone                // no row of the block matches
	verdictAll                 // every row of the block matches
)

// rangeVerdict is the verdict of the inclusive range [lo, hi] over block b
// of cr.
func (cr *ColumnReader[T]) rangeVerdict(b int, lo, hi T) verdict {
	bmin, bmax := zoneValue[T](cr.blocks[b].minBits), zoneValue[T](cr.blocks[b].maxBits)
	switch {
	case lo > hi || bmax < lo || bmin > hi:
		return verdictNone
	case lo <= bmin && bmax <= hi:
		return verdictAll
	}
	return verdictSome
}

// verdict composes the leaves' verdicts through the tree for block b. An
// AND is none as soon as one child is and all only when every child is; an
// OR is all as soon as one child is and none only when every child is; a
// membership leaf is all only when the block holds a single value and that
// value is listed; the zero Expr selects everything.
func (cs *ColumnSet[T]) verdict(e *Expr[T], b int) verdict {
	switch e.op {
	case opNone:
		return verdictAll
	case opRange:
		return cs.cols[e.col].rangeVerdict(b, e.lo, e.hi)
	case opIn:
		out := verdictNone
		for _, v := range e.vals {
			switch cs.cols[e.col].rangeVerdict(b, v, v) {
			case verdictAll:
				return verdictAll
			case verdictSome:
				out = verdictSome
			}
		}
		return out
	case opAnd:
		out := verdictAll
		for i := range e.kids {
			switch cs.verdict(&e.kids[i], b) {
			case verdictNone:
				return verdictNone
			case verdictSome:
				out = verdictSome
			}
		}
		return out
	case opOr:
		out := verdictNone
		for i := range e.kids {
			switch cs.verdict(&e.kids[i], b) {
			case verdictAll:
				return verdictAll
			case verdictSome:
				out = verdictSome
			}
		}
		return out
	default:
		return verdictSome
	}
}

// markReads sets reads[c] for every column c that evaluating e over block
// b fetches: the columns of the leaves the verdict leaves undecided,
// outside any subtree it decides.
func (cs *ColumnSet[T]) markReads(e *Expr[T], b int, reads []bool) {
	if cs.verdict(e, b) != verdictSome {
		return
	}
	switch e.op {
	case opRange, opIn:
		reads[e.col] = true
	default:
		for i := range e.kids {
			cs.markReads(&e.kids[i], b, reads)
		}
	}
}

// exprEstimate estimates the fraction of block b's rows e selects, from
// zone maps alone — the ordering heuristic for AND children. Estimates
// compose conservatively: an AND is bounded by its most selective child,
// an OR by the clamped sum of its children.
func (cs *ColumnSet[T]) exprEstimate(e *Expr[T], b int) float64 {
	switch e.op {
	case opRange:
		if e.lo > e.hi {
			return 0
		}
		return cs.cols[e.col].predEstimate(b, e.lo, e.hi)
	case opIn:
		sum := 0.0
		for _, v := range e.vals {
			sum += cs.cols[e.col].predEstimate(b, v, v)
		}
		return min(sum, 1)
	case opAnd:
		est := 1.0
		for i := range e.kids {
			est = min(est, cs.exprEstimate(&e.kids[i], b))
		}
		return est
	case opOr:
		sum := 0.0
		for i := range e.kids {
			sum += cs.exprEstimate(&e.kids[i], b)
			if sum >= 1 {
				return 1
			}
		}
		return sum
	default:
		return 1
	}
}

// predEstimate estimates the fraction of block b's rows [lo, hi] can
// select, from the zone map alone: the width of the predicate's overlap
// with the block's value range, relative to that range. It orders
// predicates cheapest-first; correctness never depends on it.
func (cr *ColumnReader[T]) predEstimate(b int, lo, hi T) float64 {
	bmin, bmax := zoneValue[T](cr.blocks[b].minBits), zoneValue[T](cr.blocks[b].maxBits)
	l, h := max(lo, bmin), min(hi, bmax)
	if l > h {
		return 0
	}
	span := float64(bmax) - float64(bmin) + 1
	if span <= 0 {
		return 1
	}
	return (float64(h) - float64(l) + 1) / span
}

// insertByEstimate appends conjunct i to ord, which it keeps ascending by
// est[conjunct]; among equal estimates the earlier conjunct stays first.
func insertByEstimate(ord []int, est []float64, i int) []int {
	j := len(ord)
	ord = append(ord, i)
	for ; j > 0 && est[i] < est[ord[j-1]]; j-- {
		ord[j] = ord[j-1]
	}
	ord[j] = i
	return ord
}

// Bitmap targeting modes of one evaluation step: build a fresh bitmap,
// AND into the running bitmap, or OR into it.
const (
	maskFresh uint8 = iota
	maskRefine
	maskUnion
)

// pushSV borrows a scratch SelectionVector for a nested subtree; vectors
// are pooled per depth in the scan state, so steady-state evaluation of a
// fixed tree shape allocates nothing.
func (st *setState[T]) pushSV() *core.SelectionVector {
	if st.svDepth == len(st.svPool) {
		st.svPool = append(st.svPool, new(core.SelectionVector))
	}
	sv := st.svPool[st.svDepth]
	st.svDepth++
	return sv
}

func (st *setState[T]) popSV() { st.svDepth-- }

// evalSome evaluates e over block b (n rows) into sv under the given
// mode: a fresh bitmap, an intersection with the running one, or a union
// into it. e's verdict is verdictSome — established by the caller, the
// plan for the root, so that no node's zone maps are consulted twice on
// the way down.
func (cs *ColumnSet[T]) evalSome(st *setState[T], e *Expr[T], b, n int, sv *core.SelectionVector, mode uint8) error {
	switch e.op {
	case opRange:
		return cs.maskCol(st, e.col, b, e.lo, e.hi, sv, mode)
	case opIn:
		return cs.evalIn(st, e, b, n, sv, mode)
	case opAnd:
		return cs.evalAnd(st, e, b, n, sv, mode)
	case opOr:
		return cs.evalOr(st, e, b, n, sv, mode)
	default:
		return fmt.Errorf("%w: unknown expression node", ErrIndexOutOfRange)
	}
}

// evalIn evaluates a membership leaf: a union of point ranges over one
// column, the points the zone map excludes skipped. Refinement builds the
// union in a scratch vector first — point ranges cannot refine in place
// without losing rows matched by an earlier point.
func (cs *ColumnSet[T]) evalIn(st *setState[T], e *Expr[T], b, n int, sv *core.SelectionVector, mode uint8) error {
	if mode == maskRefine {
		tmp := st.pushSV()
		defer st.popSV()
		if err := cs.evalIn(st, e, b, n, tmp, maskFresh); err != nil {
			return err
		}
		sv.And(tmp)
		return nil
	}
	for _, v := range e.vals {
		if cs.cols[e.col].rangeVerdict(b, v, v) == verdictNone {
			continue
		}
		if err := cs.maskCol(st, e.col, b, v, v, sv, mode); err != nil {
			return err
		}
		mode = maskUnion
	}
	return nil
}

// pushOrder borrows evalAnd's ordering scratch for an AND node of n
// children: ord empty, est of length n. Like the selection vectors it is
// pooled per depth in the scan state, so a warmed scan of a fixed tree
// shape orders any number of children without allocating.
func (st *setState[T]) pushOrder(n int) (ord []int, est []float64) {
	d := st.ordDepth
	if d == len(st.ord) {
		st.ord, st.est = append(st.ord, nil), append(st.est, nil)
	}
	if cap(st.ord[d]) < n {
		st.ord[d], st.est[d] = make([]int, n), make([]float64, n)
	}
	st.ordDepth++
	return st.ord[d][:0], st.est[d][:n]
}

func (st *setState[T]) popOrder() { st.ordDepth-- }

// evalAnd evaluates a conjunction node: each child's verdict and zone-map
// estimate are taken once, children every row satisfies are dropped, and
// the rest run most-selective-first (the first fresh, the others refining)
// until the bitmap empties. Union mode builds the conjunction in a scratch
// vector and ORs it in.
func (cs *ColumnSet[T]) evalAnd(st *setState[T], e *Expr[T], b, n int, sv *core.SelectionVector, mode uint8) error {
	if mode == maskUnion {
		tmp := st.pushSV()
		defer st.popSV()
		if err := cs.evalAnd(st, e, b, n, tmp, maskFresh); err != nil {
			return err
		}
		sv.Or(tmp)
		return nil
	}
	ord, est := st.pushOrder(len(e.kids))
	defer st.popOrder()
	for i := range e.kids {
		if cs.verdict(&e.kids[i], b) == verdictAll {
			continue
		}
		est[i] = cs.exprEstimate(&e.kids[i], b)
		ord = insertByEstimate(ord, est, i)
	}
	for _, i := range ord {
		if err := cs.evalSome(st, &e.kids[i], b, n, sv, mode); err != nil {
			return err
		}
		if !sv.Any() {
			return nil
		}
		mode = maskRefine
	}
	return nil
}

// evalOr evaluates a disjunction node: zone-excluded branches contribute
// nothing and are skipped, the first live branch establishes the bitmap
// (fresh mode) and every further branch ORs in. Refinement builds the
// disjunction in a scratch vector and ANDs it into the running bitmap.
func (cs *ColumnSet[T]) evalOr(st *setState[T], e *Expr[T], b, n int, sv *core.SelectionVector, mode uint8) error {
	if mode == maskRefine {
		tmp := st.pushSV()
		defer st.popSV()
		if err := cs.evalOr(st, e, b, n, tmp, maskFresh); err != nil {
			return err
		}
		sv.And(tmp)
		return nil
	}
	for i := range e.kids {
		if cs.verdict(&e.kids[i], b) == verdictNone {
			continue
		}
		if err := cs.evalSome(st, &e.kids[i], b, n, sv, mode); err != nil {
			return err
		}
		mode = maskUnion
	}
	return nil
}
