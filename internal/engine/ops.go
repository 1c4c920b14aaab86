package engine

// --- Select -----------------------------------------------------------------

// Filter narrows a candidate selection vector against one batch.
type Filter func(b *Batch, cand, out []int32) []int32

// Select applies a conjunction of filters and compacts passing rows.
type Select struct {
	child   Operator
	filters []Filter
	out     *Batch
	sel     [][]int32
}

// NewSelect builds a selection over child with the given conjunctive
// filters. arity is the child's column count.
func NewSelect(child Operator, arity int, filters ...Filter) *Select {
	return &Select{
		child:   child,
		filters: filters,
		out:     NewBatch(arity, BatchSize),
		sel:     [][]int32{make([]int32, BatchSize), make([]int32, BatchSize)},
	}
}

// Next returns the next non-empty filtered batch.
func (s *Select) Next() *Batch {
	for {
		in := s.child.Next()
		if in == nil {
			return nil
		}
		cand := SelTrue(in.N, s.sel[0][:0])
		for fi, f := range s.filters {
			cand = f(in, cand, s.sel[(fi+1)%2][:BatchSize])
			if len(cand) == 0 {
				break
			}
		}
		if len(cand) == 0 {
			continue
		}
		// Compact the passing rows into the output batch.
		checkArity(len(in.Cols), len(s.out.Cols))
		for c := range in.Cols {
			src, dst := in.Cols[c], s.out.Cols[c]
			for j, i := range cand {
				dst[j] = src[i]
			}
		}
		s.out.N = len(cand)
		return s.out
	}
}

// FilterGE filters column col >= k.
func FilterGE(col int, k int64) Filter {
	return func(b *Batch, cand, out []int32) []int32 { return SelGE(b.Cols[col], k, cand, out) }
}

// FilterLT filters column col < k.
func FilterLT(col int, k int64) Filter {
	return func(b *Batch, cand, out []int32) []int32 { return SelLT(b.Cols[col], k, cand, out) }
}

// FilterLE filters column col <= k.
func FilterLE(col int, k int64) Filter {
	return func(b *Batch, cand, out []int32) []int32 { return SelLE(b.Cols[col], k, cand, out) }
}

// FilterGT filters column col > k.
func FilterGT(col int, k int64) Filter {
	return func(b *Batch, cand, out []int32) []int32 { return SelGT(b.Cols[col], k, cand, out) }
}

// FilterEq filters column col == k.
func FilterEq(col int, k int64) Filter {
	return func(b *Batch, cand, out []int32) []int32 { return SelEq(b.Cols[col], k, cand, out) }
}

// FilterNe filters column col != k.
func FilterNe(col int, k int64) Filter {
	return func(b *Batch, cand, out []int32) []int32 { return SelNe(b.Cols[col], k, cand, out) }
}

// FilterColLT filters column a < column b.
func FilterColLT(a, b int) Filter {
	return func(batch *Batch, cand, out []int32) []int32 {
		return SelColLT(batch.Cols[a], batch.Cols[b], cand, out)
	}
}

// FilterIn filters column col ∈ set.
func FilterIn(col int, set map[int64]bool) Filter {
	return func(b *Batch, cand, out []int32) []int32 { return SelIn(b.Cols[col], set, cand, out) }
}

// --- Project ----------------------------------------------------------------

// Projection computes one output column from an input batch.
type Projection func(dst []int64, b *Batch)

// Project emits a batch whose columns are computed projections of the
// child's columns.
type Project struct {
	child Operator
	projs []Projection
	out   *Batch
}

// NewProject builds a projection operator.
func NewProject(child Operator, projs ...Projection) *Project {
	return &Project{child: child, projs: projs, out: NewBatch(len(projs), BatchSize)}
}

// Next computes the projections for the next batch.
func (p *Project) Next() *Batch {
	in := p.child.Next()
	if in == nil {
		return nil
	}
	for i, proj := range p.projs {
		proj(p.out.Cols[i][:in.N], in)
	}
	p.out.N = in.N
	return p.out
}

// Col passes an input column through.
func Col(c int) Projection {
	return func(dst []int64, b *Batch) { copy(dst, b.Cols[c][:len(dst)]) }
}

// ConstProj emits a constant column.
func ConstProj(k int64) Projection {
	return func(dst []int64, b *Batch) {
		for i := range dst {
			dst[i] = k
		}
	}
}

// Revenue computes extendedprice*(100-discount) on scaled decimals — the
// ubiquitous TPC-H expression (result scale: 1e4).
func Revenue(priceCol, discCol int) Projection {
	return func(dst []int64, b *Batch) {
		price, disc := b.Cols[priceCol], b.Cols[discCol]
		for i := range dst {
			dst[i] = price[i] * (100 - disc[i])
		}
	}
}

// BinOp computes an elementwise function of two columns.
func BinOp(a, b int, f func(x, y int64) int64) Projection {
	return func(dst []int64, batch *Batch) {
		xa, xb := batch.Cols[a], batch.Cols[b]
		for i := range dst {
			dst[i] = f(xa[i], xb[i])
		}
	}
}

// --- Limit / Materialize ------------------------------------------------

// Materialize drains op into full columns. Pass arity < 0 to infer the
// arity from the first batch (an exhausted input then yields nil).
func Materialize(op Operator, arity int) [][]int64 {
	var out [][]int64
	if arity >= 0 {
		out = make([][]int64, arity)
	}
	for {
		b := op.Next()
		if b == nil {
			return out
		}
		if out == nil {
			out = make([][]int64, len(b.Cols))
		}
		checkArity(len(b.Cols), len(out))
		for c := range b.Cols {
			out[c] = append(out[c], b.Cols[c][:b.N]...)
		}
	}
}

// SliceSource replays materialized columns as an operator: the oracle's
// scan over generated arrays, the replay of a pushed-down scan's result,
// TopN's output.
type SliceSource struct {
	cols [][]int64
	pos  int
	out  *Batch
}

// NewSliceSource wraps columns in an operator.
func NewSliceSource(cols [][]int64) *SliceSource {
	return &SliceSource{cols: cols, out: NewBatch(len(cols), BatchSize)}
}

// Next returns the next vector of the underlying slices.
func (s *SliceSource) Next() *Batch {
	n := 0
	if len(s.cols) > 0 {
		n = min(BatchSize, len(s.cols[0])-s.pos)
	}
	if n <= 0 {
		return nil
	}
	for c := range s.cols {
		copy(s.out.Cols[c][:n], s.cols[c][s.pos:s.pos+n])
	}
	s.pos += n
	s.out.N = n
	return s.out
}
