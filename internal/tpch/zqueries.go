package tpch

import (
	"repro/internal/engine"
	"repro/zukowski"
)

// The ZQueries are the compressed-domain family: the same *DB, queried
// through the expression tree API — Expr filtering below decompression,
// GroupAggregate folding in dictionary-code space — instead of Scan's
// decode-then-process pipeline. Each produces results byte-identical to
// the corresponding Queries entry, so the two families cross-check each
// other end to end.

// maxDate is the open upper bound for "later than" date pushdowns; no
// generated date reaches it, and it keeps range arithmetic far from the
// int64 edges the codecs reject.
var maxDate = Date(2199, 12, 31)

// ZQueryOrder lists the compressed-domain queries in presentation order.
var ZQueryOrder = []string{"01", "03", "06", "14", "15", "18"}

// ZQueries maps query names to their compressed-domain implementations.
// Each produces exactly the same result slices as Queries[name] over the
// same Dataset.
var ZQueries = map[string]QueryFunc{
	"01": ZQ1,
	"03": ZQ3,
	"06": ZQ6,
	"14": ZQ14,
	"15": ZQ15,
	"18": ZQ18,
}

// ZQ1: pricing summary report as a single compressed-domain
// GroupAggregate — the date predicate filters below decompression, and
// the (returnflag, linestatus) grouping folds in dictionary-code space.
// GroupAggregate's key-sorted output matches HashAgg's sorted order.
func ZQ1(db *DB) [][]int64 {
	set := db.Set(Lineitem)
	qty := db.Col(Lineitem, "l_quantity")
	price := db.Col(Lineitem, "l_extendedprice")
	disc := db.Col(Lineitem, "l_discount")
	rf := db.Col(Lineitem, "l_returnflag")
	ls := db.Col(Lineitem, "l_linestatus")
	ship := db.Col(Lineitem, "l_shipdate")
	g, err := set.GroupAggregate(
		zukowski.Query[int64]{Expr: zukowski.Range[int64](ship, 0, Date(1998, 9, 2))},
		[]int{rf, ls},
		[]zukowski.AggSpec[int64]{
			{Kind: zukowski.AggSum, Col: qty},
			{Kind: zukowski.AggSum, Col: price},
			{Kind: zukowski.AggSum, Cols: []int{price, disc}, Map: func(c [][]int64, i int) int64 {
				return c[price][i] * (100 - c[disc][i])
			}},
			{Kind: zukowski.AggSum, Cols: []int{price, disc}, Map: func(c [][]int64, i int) int64 {
				return c[price][i] * (100 - c[disc][i]) / 100
			}},
			{Kind: zukowski.AggCount},
		})
	if err != nil {
		panic(err)
	}
	out := make([][]int64, 7)
	for gi := range g.Keys {
		out[0] = append(out[0], g.Keys[gi][0])
		out[1] = append(out[1], g.Keys[gi][1])
		for s := 0; s < 5; s++ {
			out[2+s] = append(out[2+s], g.Aggs[gi][s])
		}
	}
	return out
}

// ZQ3: shipping priority. The engine pipeline of Q3 with every scan
// predicate pushed into the compressed domain: segment membership via
// In, the date cutoffs via Range. Row-order delivery keeps the hash
// join's build order, the aggregate's group order and TopN's tie
// handling identical to the oracle.
func ZQ3(db *DB) [][]int64 {
	cutoff := Date(1995, 3, 15)
	custs := engine.SemiJoinSet(db.scanExpr(Customer,
		zukowski.In[int64](db.Col(Customer, "c_mktsegment"), SegmentBuilding),
		"c_custkey"), 0)
	orders := engine.NewSelect(db.scanExpr(Orders,
		zukowski.Range[int64](db.Col(Orders, "o_orderdate"), 0, cutoff-1),
		"o_orderkey", "o_custkey", "o_orderdate"), 3,
		engine.FilterIn(1, custs))
	items := engine.NewProject(db.scanExpr(Lineitem,
		zukowski.Range[int64](db.Col(Lineitem, "l_shipdate"), cutoff+1, maxDate),
		"l_orderkey", "l_extendedprice", "l_discount"),
		engine.Col(0), engine.Revenue(1, 2))
	join := engine.NewHashJoin(orders, items, 0, 0, []int{2}, []int{0, 1})
	agg := engine.NewHashAgg(join, []int{0, 2}, []engine.AggSpec{{Kind: engine.AggSum, Col: 1}}, false)
	top := engine.NewTopN(agg, 2, 10, true)
	return engine.Materialize(top, 3)
}

// ZQ6: forecasting revenue change — the paper's scan query as one
// conjunctive expression over three columns, folded by a group-less
// GroupAggregate. Nothing but the two aggregate inputs ever decompresses.
func ZQ6(db *DB) [][]int64 {
	set := db.Set(Lineitem)
	ship := db.Col(Lineitem, "l_shipdate")
	discCol := db.Col(Lineitem, "l_discount")
	qty := db.Col(Lineitem, "l_quantity")
	price := db.Col(Lineitem, "l_extendedprice")
	g, err := set.GroupAggregate(
		zukowski.Query[int64]{Expr: zukowski.And(
			zukowski.Range[int64](ship, Date(1994, 1, 1), Date(1995, 1, 1)-1),
			zukowski.Range[int64](discCol, 5, 7),
			zukowski.Range[int64](qty, 0, 23),
		)},
		nil,
		[]zukowski.AggSpec[int64]{
			{Kind: zukowski.AggSum, Cols: []int{price, discCol}, Map: func(c [][]int64, i int) int64 {
				return c[price][i] * c[discCol][i]
			}},
		})
	if err != nil {
		panic(err)
	}
	if len(g.Keys) == 0 {
		// Match the engine path: an empty input still yields one
		// materialized (empty) column.
		return [][]int64{nil}
	}
	return [][]int64{{g.Aggs[0][0]}}
}

// ZQ14: promotion effect. The part-type lookup projects straight out of
// the compressed part relation; the lineitem month filters below
// decompression. The ratio is order-independent.
func ZQ14(db *DB) [][]int64 {
	_, pv, err := db.Set(Part).Project(zukowski.Expr[int64]{},
		db.Col(Part, "p_partkey"), db.Col(Part, "p_type"))
	if err != nil {
		panic(err)
	}
	partType := make(map[int64]int64, len(pv[0]))
	for i := range pv[0] {
		partType[pv[0][i]] = pv[1][i]
	}
	items := engine.NewProject(db.scanExpr(Lineitem,
		zukowski.Range[int64](db.Col(Lineitem, "l_shipdate"), Date(1995, 9, 1), Date(1995, 10, 1)-1),
		"l_partkey", "l_extendedprice", "l_discount"),
		engine.Col(0), engine.Revenue(1, 2))
	var promo, total int64
	for {
		b := items.Next()
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			rev := b.Cols[1][i]
			total += rev
			if partType[b.Cols[0][i]] < 50 {
				promo += rev
			}
		}
	}
	if total == 0 {
		return [][]int64{{0}}
	}
	return [][]int64{{promo * 1_000_000 / total}}
}

// ZQ15: top supplier. A filtered GroupAggregate by suppkey; the maximum
// is order-independent under Q15's (value desc, key asc) tie-break.
func ZQ15(db *DB) [][]int64 {
	set := db.Set(Lineitem)
	supp := db.Col(Lineitem, "l_suppkey")
	price := db.Col(Lineitem, "l_extendedprice")
	disc := db.Col(Lineitem, "l_discount")
	ship := db.Col(Lineitem, "l_shipdate")
	g, err := set.GroupAggregate(
		zukowski.Query[int64]{Expr: zukowski.Range[int64](ship, Date(1996, 1, 1), Date(1996, 4, 1)-1)},
		[]int{supp},
		[]zukowski.AggSpec[int64]{
			{Kind: zukowski.AggSum, Cols: []int{price, disc}, Map: func(c [][]int64, i int) int64 {
				return c[price][i] * (100 - c[disc][i])
			}},
		})
	if err != nil {
		panic(err)
	}
	var bestKey, bestVal int64 = -1, -1
	for gi := range g.Keys {
		k, v := g.Keys[gi][0], g.Aggs[gi][0]
		if v > bestVal || (v == bestVal && k < bestKey) {
			bestKey, bestVal = k, v
		}
	}
	if bestKey < 0 {
		return [][]int64{{}, {}}
	}
	return [][]int64{{bestKey}, {bestVal}}
}

// ZQ18: large volume customers. Q18's pipeline fed from compressed scans;
// the full-relation scans decompress through the mask path with zone
// pruning disabled by the empty expression, and row order preserves the
// oracle's group and tie behaviour.
func ZQ18(db *DB) [][]int64 {
	var all zukowski.Expr[int64]
	qty := engine.NewHashAgg(
		db.scanExpr(Lineitem, all, "l_orderkey", "l_quantity"),
		[]int{0}, []engine.AggSpec{{Kind: engine.AggSum, Col: 1}}, false)
	big := engine.NewSelect(qty, 2, engine.FilterGT(1, 300))
	join := engine.NewHashJoin(
		db.scanExpr(Orders, all, "o_orderkey", "o_custkey", "o_orderdate"),
		big, 0, 0, []int{1, 2}, []int{0, 1})
	top := engine.NewTopN(join, 1, 100, true)
	return engine.Materialize(top, 4)
}

// ResultsEqual reports whether two materialized results hold the same
// values, treating a nil column and an empty column as equal.
func ResultsEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				return false
			}
		}
	}
	return true
}
