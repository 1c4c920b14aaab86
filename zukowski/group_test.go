package zukowski_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/zukowski"
)

// groupOracle computes GroupAggregate's answer the slow way: filter rows
// with ok, group by the key columns' decoded values, fold each spec.
func groupOracle(all [][]int64, ok func([][]int64, int) bool, groupCols []int, specs []zukowski.AggSpec[int64]) zukowski.Grouped[int64] {
	type acc struct {
		key   []int64
		cells []int64
	}
	idx := map[string]*acc{}
	var order []*acc
	var kb []byte
	for i := range all[0] {
		if !ok(all, i) {
			continue
		}
		kb = kb[:0]
		key := make([]int64, len(groupCols))
		for g, c := range groupCols {
			key[g] = all[c][i]
			for s := 0; s < 8; s++ {
				kb = append(kb, byte(uint64(key[g])>>(8*s)))
			}
		}
		a := idx[string(kb)]
		if a == nil {
			a = &acc{key: key, cells: make([]int64, len(specs))}
			for s := range specs {
				switch specs[s].Kind {
				case zukowski.AggMin:
					a.cells[s] = int64(^uint64(0) >> 1)
				case zukowski.AggMax:
					a.cells[s] = -int64(^uint64(0)>>1) - 1
				}
			}
			idx[string(kb)] = a
			order = append(order, a)
		}
		for s := range specs {
			var v int64
			if specs[s].Map != nil {
				v = specs[s].Map(all, i)
			} else if specs[s].Kind != zukowski.AggCount {
				v = all[specs[s].Col][i]
			}
			switch specs[s].Kind {
			case zukowski.AggCount:
				a.cells[s]++
			case zukowski.AggSum:
				a.cells[s] += v
			case zukowski.AggMin:
				a.cells[s] = min(a.cells[s], v)
			case zukowski.AggMax:
				a.cells[s] = max(a.cells[s], v)
			}
		}
	}
	slices.SortFunc(order, func(x, y *acc) int {
		return slices.Compare(x.key, y.key)
	})
	res := zukowski.Grouped[int64]{}
	for _, a := range order {
		res.Keys = append(res.Keys, a.key)
		res.Aggs = append(res.Aggs, a.cells)
	}
	return res
}

func checkGrouped(t *testing.T, label string, got, want zukowski.Grouped[int64]) {
	t.Helper()
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Keys), len(want.Keys))
	}
	for g := range want.Keys {
		if !slices.Equal(got.Keys[g], want.Keys[g]) {
			t.Fatalf("%s: group %d key = %v, want %v", label, g, got.Keys[g], want.Keys[g])
		}
		if !slices.Equal(got.Aggs[g], want.Aggs[g]) {
			t.Fatalf("%s: group %v aggs = %v, want %v", label, want.Keys[g], got.Aggs[g], want.Aggs[g])
		}
	}
}

// buildGroupSet builds a set whose first two columns are low-cardinality
// (dictionary-friendly) and the rest wide, under the given codecs.
func buildGroupSet(t *testing.T, codecs []string, n int, seed int64) (*zukowski.ColumnSet[int64], [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := make([][]int64, len(codecs))
	crs := make([]*zukowski.ColumnReader[int64], len(codecs))
	for c := range all {
		vals := make([]int64, n)
		switch c {
		case 0: // ~6 distinct values, occasional stragglers
			base := []int64{11, 23, 35, 47, 59, 71}
			for i := range vals {
				vals[i] = base[rng.Intn(len(base))]
				if rng.Intn(200) == 0 {
					vals[i] = 1000 + rng.Int63n(50)
				}
			}
		case 1: // ~4 distinct values
			base := []int64{2, 5, 8, 9}
			for i := range vals {
				vals[i] = base[rng.Intn(len(base))]
			}
		default:
			vals = synthColumn(rng, n)
		}
		all[c] = vals
		codec, err := zukowski.Lookup[int64](codecs[c])
		if err != nil {
			t.Fatal(err)
		}
		crs[c] = buildSelectColumn(t, codec, 0, vals)
	}
	cs, err := zukowski.NewColumnSet(crs...)
	if err != nil {
		t.Fatal(err)
	}
	return cs, all
}

// TestGroupAggregateOracle drives grouped aggregation — code-space and
// hash paths — against the scalar oracle, with and without a filter,
// over one and two group columns, with every aggregate kind plus a
// derived Map input.
func TestGroupAggregateOracle(t *testing.T) {
	for _, mix := range [][]string{
		{"pdict", "pdict", "pfor", "auto"}, // group cols dictionary-compressed: code space
		{"pfor", "none", "pfor", "auto"},   // group cols not PDICT: hash fallback
		{"auto", "auto", "auto", "auto"},
	} {
		cs, all := buildGroupSet(t, mix, 25_000, 43)
		specs := []zukowski.AggSpec[int64]{
			{Kind: zukowski.AggCount},
			{Kind: zukowski.AggSum, Col: 2},
			{Kind: zukowski.AggMin, Col: 2},
			{Kind: zukowski.AggMax, Col: 3},
			{Kind: zukowski.AggSum, Cols: []int{2, 3}, Map: func(cols [][]int64, i int) int64 {
				return cols[2][i]*3 - cols[3][i]
			}},
		}
		exprs := []struct {
			name string
			expr zukowski.Expr[int64]
			ok   func([][]int64, int) bool
		}{
			{"all", zukowski.Expr[int64]{}, func([][]int64, int) bool { return true }},
			{"filtered", zukowski.Or(zukowski.Range[int64](2, 0, 1500), zukowski.In[int64](1, 2, 9)),
				func(all [][]int64, i int) bool {
					return (all[2][i] >= 0 && all[2][i] <= 1500) || all[1][i] == 2 || all[1][i] == 9
				}},
			{"none", zukowski.Range[int64](2, 10, 5), func([][]int64, int) bool { return false }},
		}
		for _, ge := range exprs {
			for _, groupCols := range [][]int{{0}, {0, 1}, {}} {
				got, err := cs.GroupAggregate(zukowski.Query[int64]{Expr: ge.expr}, groupCols, specs)
				if err != nil {
					t.Fatalf("%v/%s/%v: GroupAggregate: %v", mix, ge.name, groupCols, err)
				}
				want := groupOracle(all, ge.ok, groupCols, specs)
				checkGrouped(t, mix[0]+"/"+ge.name, got, want)
			}
		}
	}
}

// TestGroupAggregateErrors checks column validation.
func TestGroupAggregateErrors(t *testing.T) {
	cs, _ := buildGroupSet(t, []string{"pdict", "pdict", "pfor", "auto"}, 1_000, 3)
	var all zukowski.Query[int64]
	if _, err := cs.GroupAggregate(all, []int{4}, nil); err == nil {
		t.Fatal("bad group column accepted")
	}
	if _, err := cs.GroupAggregate(all, nil,
		[]zukowski.AggSpec[int64]{{Kind: zukowski.AggSum, Col: 9}}); err == nil {
		t.Fatal("bad aggregate column accepted")
	}
	if _, err := cs.GroupAggregate(zukowski.Query[int64]{Expr: zukowski.Range[int64](7, 0, 1)}, nil, nil); err == nil {
		t.Fatal("bad expression column accepted")
	}
}

// TestJoinOnOracle drives the dictionary-code hash join against a nested
// loop oracle, over dictionary-compressed and plain probe columns.
func TestJoinOnOracle(t *testing.T) {
	for _, probeCodec := range []string{"pdict", "pfor", "none"} {
		cs, all := buildGroupSet(t, []string{probeCodec, "pdict", "pfor", "auto"}, 12_000, 77)

		// Build side: some keys match the probe column's dense values, some
		// its stragglers, some nothing; key 23 appears twice.
		buildKeys := []int64{23, 35, 23, 1017, 4, 59}
		jt := zukowski.BuildJoin(buildKeys)

		expr := zukowski.Range[int64](2, 0, 2000)
		var wantProbe []int64
		var wantBuild []int32
		for i := range all[0] {
			if all[2][i] < 0 || all[2][i] > 2000 {
				continue
			}
			for bi, k := range buildKeys {
				if all[0][i] == k {
					wantProbe = append(wantProbe, int64(i))
					wantBuild = append(wantBuild, int32(bi))
				}
			}
		}
		// The oracle above emits build-row order per probe row only if the
		// scan does too; JoinOn promises build order within a probe row, and
		// BuildJoin keeps insertion order per key, so sort pairs per probe
		// row identically: both sides already agree by construction.

		var gotProbe []int64
		var gotBuild []int32
		err := cs.JoinOn(zukowski.Query[int64]{Expr: expr}, 0, jt, func(pr []int64, br []int32) bool {
			gotProbe = append(gotProbe, pr...)
			gotBuild = append(gotBuild, br...)
			return true
		})
		if err != nil {
			t.Fatalf("%s: JoinOn: %v", probeCodec, err)
		}
		if !slices.Equal(gotProbe, wantProbe) || !slices.Equal(gotBuild, wantBuild) {
			t.Fatalf("%s: JoinOn disagrees with oracle: got %d pairs, want %d",
				probeCodec, len(gotProbe), len(wantProbe))
		}
		err = cs.JoinOn(zukowski.Query[int64]{}, 4, jt, func([]int64, []int32) bool { return true })
		if !errors.Is(err, zukowski.ErrIndexOutOfRange) {
			t.Fatalf("%s: JoinOn on probe column 4 of 4: %v, want ErrIndexOutOfRange", probeCodec, err)
		}
	}
}

// TestJoinTableRows checks the build-side surface.
func TestJoinTableRows(t *testing.T) {
	jt := zukowski.BuildJoin([]int64{5, 9, 5})
	if jt.Len() != 2 {
		t.Fatalf("Len = %d, want 2", jt.Len())
	}
	if got := jt.Rows(5); !slices.Equal(got, []int32{0, 2}) {
		t.Fatalf("Rows(5) = %v", got)
	}
	if jt.Rows(4) != nil {
		t.Fatal("Rows(4) should be nil")
	}
}
