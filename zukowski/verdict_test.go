package zukowski_test

import (
	"slices"
	"testing"

	"repro/zukowski"
)

// The three-valued block verdict, driven deterministically: a table whose
// first column is sorted — so a window covers some blocks whole, misses
// others and cuts the ones at its ends — under trees that put a node of
// every type, carrying every verdict, below every kind of parent. Each
// tree goes through checkExprScan (fuzz_expr_test.go): every engine entry
// point against the scalar oracle, Candidates' read sets against the
// oracle's own zone analysis, a 3-segment table before and after Compact.

// Tree-building shorthands over the fuzzer's node type.
func rangeNode(col int, lo, hi int64) fuzzNode { return fuzzNode{op: 0, col: col, lo: lo, hi: hi} }
func inNode(col int, vals ...int64) fuzzNode   { return fuzzNode{op: 1, col: col, vals: vals} }
func andNode(kids ...fuzzNode) fuzzNode        { return fuzzNode{op: 2, kids: kids} }
func orNode(kids ...fuzzNode) fuzzNode         { return fuzzNode{op: 3, kids: kids} }

const rootParent = 255

// tally counts, for every node of the tree over rows [r0, r1), its type,
// its parent's type and what the rows' min and max prove about it.
func (n *fuzzNode) tally(cols [][]int64, r0, r1 int, parent byte, seen map[[3]byte]int) {
	seen[[3]byte{n.op, parent, byte(n.zone(cols, r0, r1))}]++
	for k := range n.kids {
		n.kids[k].tally(cols, r0, r1, n.op, seen)
	}
}

func TestExprScanVerdictMatrix(t *testing.T) {
	const (
		blockValues = 64
		n           = 10 * blockValues
	)
	// Column 0 ascends; every third block holds a single value. Columns 1
	// and 2 scatter, so each of their blocks spans most of their range.
	cols := make([][]int64, 3)
	for c := range cols {
		cols[c] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		b := i / blockValues
		cols[0][i] = int64(b * 100)
		if b%3 != 0 {
			cols[0][i] += int64(i % blockValues)
		}
		cols[1][i] = int64((i*7+1)%n%97*3 + i%11)
		cols[2][i] = int64((i*11+5)%n%89*4 + i%7)
	}

	// Four nodes, one of each type, that are decided "none" on the blocks
	// left and right of the window, "all" on blocks 2 and 3, and undecided
	// on blocks 1 and 4, which the window's ends cut.
	window := rangeNode(0, 150, 450)
	member := inNode(0, 300, 410, 120)
	both := andNode(window, rangeNode(1, -1<<40, 1<<40))
	either := orNode(window, rangeNode(1, 1<<41, 1<<42))
	// Undecided on every block.
	some1 := rangeNode(1, 60, 200)
	some2 := rangeNode(2, 100, 300)

	var trees []fuzzNode
	for _, x := range []fuzzNode{window, member, both, either} {
		trees = append(trees,
			x,                 // fresh, at the root
			andNode(x, some1), // below an AND: fresh or refining, by estimate
			andNode(some1, some2, x, fuzzNode{op: 4}),
			orNode(x, some1),                  // below an OR: fresh
			orNode(some1, x, fuzzNode{op: 4}), // below an OR: union
			orNode(andNode(some1, x), some2),  // an AND in union mode
			andNode(orNode(some2, x), some1),  // an OR refining
		)
	}

	seen := make(map[[3]byte]int)
	names := zukowski.Codecs()
	codec := func(name string) uint8 { return uint8(slices.Index(names, name)) }
	// The middle selector does two jobs in checkExprScan: column 1's codec
	// (modulo the registry) and the row whose column-0 value ends the Preds
	// window of the combined query. This one picks pfor and a row inside
	// block 2, so the window decides blocks 0 and 1, cuts block 2 and
	// rules out the rest.
	midRow := uint8(180)
	for int(midRow)%len(names) != int(codec("pfor")) {
		midRow--
	}
	for ti := range trees {
		for r0 := 0; r0 < n; r0 += blockValues {
			trees[ti].tally(cols, r0, r0+blockValues, rootParent, seen)
		}
		for _, codecs := range [][3]uint8{
			{codec("pfor-delta"), midRow, codec("pdict")},
			{codec("auto"), midRow, codec("none")},
		} {
			checkExprScan(t, cols, blockValues, &trees[ti], codecs)
		}
	}

	verdicts := []string{zoneSome: "some", zoneNone: "none", zoneAll: "all"}
	ops := []string{"Range", "In", "And", "Or"}
	for op := range ops {
		for _, parent := range []byte{rootParent, 2, 3} {
			for v := range verdicts {
				if seen[[3]byte{byte(op), parent, byte(v)}] == 0 {
					t.Errorf("no %s node with verdict %q below parent %d in any tree and block", ops[op], verdicts[v], parent)
				}
			}
		}
	}
	for _, parent := range []byte{2, 3} {
		if seen[[3]byte{4, parent, zoneAll}] == 0 {
			t.Errorf("no zero Expr below parent %d", parent)
		}
	}
}
