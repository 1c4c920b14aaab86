package tpch

import (
	"sort"
	"time"

	"repro/internal/engine"
)

// The eleven Table-2 queries. They follow the TPC-H access patterns and
// parameter values; the relational logic is simplified where the full
// specification needs features outside this engine's scope (string LIKE,
// correlated EXISTS), but every query touches the same columns, applies
// the same dominant selections, and produces a deterministic result so
// compressed and uncompressed runs can be cross-checked (Oracle, and
// cmd/tpchbench -check).

// QueryFunc runs one benchmark query and returns its materialized result.
type QueryFunc func(*DB) [][]int64

// QueryOrder lists the Table 2 queries in paper order.
var QueryOrder = []string{"01", "03", "04", "05", "06", "07", "11", "14", "15", "18", "21"}

// Queries maps query number to implementation.
var Queries = map[string]QueryFunc{
	"01": Q1, "03": Q3, "04": Q4, "05": Q5, "06": Q6, "07": Q7,
	"11": Q11, "14": Q14, "15": Q15, "18": Q18, "21": Q21,
}

// ScanColumns lists the columns each query reads, used for Table 2's
// per-query compression-ratio accounting (the paper reports the ratio of
// the data each query touches).
var ScanColumns = map[string]map[string][]string{
	"01": {Lineitem: {"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"}},
	"03": {Customer: {"c_custkey", "c_mktsegment"}, Orders: {"o_orderkey", "o_custkey", "o_orderdate"}, Lineitem: {"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"}},
	"04": {Orders: {"o_orderkey", "o_orderdate", "o_orderpriority"}, Lineitem: {"l_orderkey", "l_commitdate", "l_receiptdate"}},
	"05": {Customer: {"c_custkey", "c_nationkey"}, Supplier: {"s_suppkey", "s_nationkey"}, Orders: {"o_orderkey", "o_custkey", "o_orderdate"}, Lineitem: {"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"}},
	"06": {Lineitem: {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}},
	"07": {Customer: {"c_custkey", "c_nationkey"}, Supplier: {"s_suppkey", "s_nationkey"}, Orders: {"o_orderkey", "o_custkey"}, Lineitem: {"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"}},
	"11": {Supplier: {"s_suppkey", "s_nationkey"}, PartSupp: {"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"}},
	"14": {Part: {"p_partkey", "p_type"}, Lineitem: {"l_partkey", "l_extendedprice", "l_discount", "l_shipdate"}},
	"15": {Lineitem: {"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"}},
	"18": {Orders: {"o_orderkey", "o_custkey", "o_orderdate"}, Lineitem: {"l_orderkey", "l_quantity"}},
	"21": {Supplier: {"s_suppkey", "s_nationkey"}, Lineitem: {"l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"}},
}

// Q1: pricing summary report. Full lineitem scan, one predicate, group by
// (returnflag, linestatus) with five aggregates.
func Q1(db *DB) [][]int64 {
	scan := db.Scan(Lineitem,
		"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
		"l_discount", "l_tax", "l_shipdate")
	sel := engine.NewSelect(scan, 7, engine.FilterLE(6, Date(1998, 9, 2)))
	proj := engine.NewProject(sel,
		engine.Col(0), engine.Col(1), engine.Col(2), engine.Col(3),
		engine.Revenue(3, 4), // disc_price = price*(100-disc)
		engine.BinOp(3, 4, func(p, d int64) int64 { return p * (100 - d) / 100 }),
	)
	agg := engine.NewHashAgg(proj, []int{0, 1}, []engine.AggSpec{
		{Kind: engine.AggSum, Col: 2}, // sum_qty
		{Kind: engine.AggSum, Col: 3}, // sum_base_price
		{Kind: engine.AggSum, Col: 4}, // sum_disc_price
		{Kind: engine.AggSum, Col: 5}, // sum_charge (tax folded out)
		{Kind: engine.AggCount, Col: 0},
	}, true)
	return engine.Materialize(agg, 7)
}

// Q3: shipping priority. BUILDING customers' unshipped orders, top 10 by
// revenue.
func Q3(db *DB) [][]int64 {
	cutoff := Date(1995, 3, 15)
	custs := engine.SemiJoinSet(engine.NewSelect(
		db.Scan(Customer, "c_custkey", "c_mktsegment"), 2,
		engine.FilterEq(1, SegmentBuilding)), 0)
	orders := engine.NewSelect(
		db.Scan(Orders, "o_orderkey", "o_custkey", "o_orderdate"), 3,
		engine.FilterLT(2, cutoff), engine.FilterIn(1, custs))
	items := engine.NewProject(engine.NewSelect(
		db.Scan(Lineitem, "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"), 4,
		engine.FilterGT(3, cutoff)),
		engine.Col(0), engine.Revenue(1, 2))
	// probe payload: [orderkey, revenue]; build payload: [orderdate].
	join := engine.NewHashJoin(orders, items, 0, 0, []int{2}, []int{0, 1})
	agg := engine.NewHashAgg(join, []int{0, 2}, []engine.AggSpec{{Kind: engine.AggSum, Col: 1}}, false)
	top := engine.NewTopN(agg, 2, 10, true)
	return engine.Materialize(top, 3)
}

// Q4: order priority checking. Orders of 1993Q3 having at least one
// lineitem received after its commit date, counted by priority.
func Q4(db *DB) [][]int64 {
	late := engine.SemiJoinSet(engine.NewSelect(
		db.Scan(Lineitem, "l_orderkey", "l_commitdate", "l_receiptdate"), 3,
		engine.FilterColLT(1, 2)), 0)
	orders := engine.NewSelect(
		db.Scan(Orders, "o_orderkey", "o_orderdate", "o_orderpriority"), 3,
		engine.FilterGE(1, Date(1993, 7, 1)), engine.FilterLT(1, Date(1993, 10, 1)),
		engine.FilterIn(0, late))
	agg := engine.NewHashAgg(orders, []int{2}, []engine.AggSpec{{Kind: engine.AggCount, Col: 0}}, true)
	return engine.Materialize(agg, 2)
}

// Q5: local supplier volume. Revenue of ASIA-nation lineitems in 1994
// where customer and supplier share the nation, grouped by nation.
func Q5(db *DB) [][]int64 {
	asia := engine.SemiJoinSet(engine.NewSelect(
		db.Scan(Nation, "n_nationkey", "n_regionkey"), 2,
		engine.FilterEq(1, RegionAsia)), 0)
	custNation := lookupMap(db, Customer, "c_custkey", "c_nationkey")
	suppNation := lookupMap(db, Supplier, "s_suppkey", "s_nationkey")

	orders := engine.NewSelect(
		db.Scan(Orders, "o_orderkey", "o_custkey", "o_orderdate"), 3,
		engine.FilterGE(2, Date(1994, 1, 1)), engine.FilterLT(2, Date(1995, 1, 1)))
	items := engine.NewProject(
		db.Scan(Lineitem, "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"),
		engine.Col(0), engine.Col(1), engine.Revenue(2, 3))
	// probe payload: [suppkey, revenue]; build payload: [custkey].
	join := engine.NewHashJoin(orders, items, 0, 0, []int{1}, []int{1, 2})
	// Keep rows where the supplier's nation is in ASIA and equals the
	// customer's nation, then group revenue by that nation.
	filtered := engine.NewSelect(join, 3, func(b *engine.Batch, cand, out []int32) []int32 {
		j := 0
		for _, i := range cand {
			sn, cok := suppNation[b.Cols[0][i]]
			cn, sok := custNation[b.Cols[2][i]]
			out[j] = i
			if cok && sok && sn == cn && asia[sn] {
				j++
			}
		}
		return out[:j]
	})
	proj := engine.NewProject(filtered,
		func(dst []int64, b *engine.Batch) {
			for i := range dst {
				dst[i] = suppNation[b.Cols[0][i]]
			}
		},
		engine.Col(1))
	agg := engine.NewHashAgg(proj, []int{0}, []engine.AggSpec{{Kind: engine.AggSum, Col: 1}}, true)
	return engine.Materialize(agg, 2)
}

// Q6: forecasting revenue change. The pure-scan query: three predicates,
// one sum.
func Q6(db *DB) [][]int64 {
	sel := engine.NewSelect(
		db.Scan(Lineitem, "l_shipdate", "l_discount", "l_quantity", "l_extendedprice"), 4,
		engine.FilterGE(0, Date(1994, 1, 1)), engine.FilterLT(0, Date(1995, 1, 1)),
		engine.FilterGE(1, 5), engine.FilterLE(1, 7),
		engine.FilterLT(2, 24))
	proj := engine.NewProject(sel, engine.BinOp(3, 1, func(p, d int64) int64 { return p * d }))
	agg := engine.NewHashAgg(proj, nil, []engine.AggSpec{{Kind: engine.AggSum, Col: 0}}, false)
	return engine.Materialize(agg, 1)
}

// Q7: volume shipping between FRANCE and GERMANY, grouped by the nation
// pair and ship year.
func Q7(db *DB) [][]int64 {
	custNation := lookupMap(db, Customer, "c_custkey", "c_nationkey")
	suppNation := lookupMap(db, Supplier, "s_suppkey", "s_nationkey")
	orderCust := engine.NewHashJoin(
		db.Scan(Orders, "o_orderkey", "o_custkey"),
		engine.NewProject(engine.NewSelect(
			db.Scan(Lineitem, "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"), 5,
			engine.FilterGE(4, Date(1995, 1, 1)), engine.FilterLE(4, Date(1996, 12, 31))),
			engine.Col(0), engine.Col(1), engine.Revenue(2, 3), engine.Col(4)),
		0, 0, []int{1}, []int{1, 2, 3})
	// cols: [suppkey, revenue, shipdate, custkey]
	filtered := engine.NewSelect(orderCust, 4, func(b *engine.Batch, cand, out []int32) []int32 {
		j := 0
		for _, i := range cand {
			sn := suppNation[b.Cols[0][i]]
			cn := custNation[b.Cols[3][i]]
			out[j] = i
			if (sn == NationFrance && cn == NationGermany) || (sn == NationGermany && cn == NationFrance) {
				j++
			}
		}
		return out[:j]
	})
	proj := engine.NewProject(filtered,
		func(dst []int64, b *engine.Batch) {
			for i := range dst {
				dst[i] = suppNation[b.Cols[0][i]]
			}
		},
		func(dst []int64, b *engine.Batch) {
			for i := range dst {
				dst[i] = custNation[b.Cols[3][i]]
			}
		},
		func(dst []int64, b *engine.Batch) {
			for i := range dst {
				dst[i] = yearOf(b.Cols[2][i])
			}
		},
		engine.Col(1))
	agg := engine.NewHashAgg(proj, []int{0, 1, 2}, []engine.AggSpec{{Kind: engine.AggSum, Col: 3}}, true)
	return engine.Materialize(agg, 4)
}

// Q11: important stock identification. German suppliers' partsupp value by
// part, keeping parts above a fraction of the total.
func Q11(db *DB) [][]int64 {
	german := engine.SemiJoinSet(engine.NewSelect(
		db.Scan(Supplier, "s_suppkey", "s_nationkey"), 2,
		engine.FilterEq(1, NationGermany)), 0)
	ps := engine.NewProject(engine.NewSelect(
		db.Scan(PartSupp, "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"), 4,
		engine.FilterIn(1, german)),
		engine.Col(0), engine.BinOp(2, 3, func(q, c int64) int64 { return q * c }))
	agg := engine.Materialize(engine.NewHashAgg(ps, []int{0},
		[]engine.AggSpec{{Kind: engine.AggSum, Col: 1}}, false), 2)

	var total int64
	for _, v := range agg[1] {
		total += v
	}
	threshold := total / 10000 // fraction 0.0001
	var keys, vals []int64
	for i := range agg[0] {
		if agg[1][i] > threshold {
			keys = append(keys, agg[0][i])
			vals = append(vals, agg[1][i])
		}
	}
	// Order by value desc, key asc for determinism.
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if vals[idx[a]] != vals[idx[b]] {
			return vals[idx[a]] > vals[idx[b]]
		}
		return keys[idx[a]] < keys[idx[b]]
	})
	out := [][]int64{make([]int64, len(idx)), make([]int64, len(idx))}
	for i, x := range idx {
		out[0][i] = keys[x]
		out[1][i] = vals[x]
	}
	return out
}

// Q14: promotion effect. Revenue share of promo parts in 1995-09, as a
// ratio scaled by 1e6.
func Q14(db *DB) [][]int64 {
	partType := lookupMap(db, Part, "p_partkey", "p_type")
	items := engine.NewProject(engine.NewSelect(
		db.Scan(Lineitem, "l_partkey", "l_extendedprice", "l_discount", "l_shipdate"), 4,
		engine.FilterGE(3, Date(1995, 9, 1)), engine.FilterLT(3, Date(1995, 10, 1))),
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
			if partType[b.Cols[0][i]] < 50 { // types 0..49 are "PROMO%"
				promo += rev
			}
		}
	}
	if total == 0 {
		return [][]int64{{0}}
	}
	return [][]int64{{promo * 1_000_000 / total}}
}

// Q15: top supplier. Max supplier revenue over 1996Q1.
func Q15(db *DB) [][]int64 {
	items := engine.NewProject(engine.NewSelect(
		db.Scan(Lineitem, "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"), 4,
		engine.FilterGE(3, Date(1996, 1, 1)), engine.FilterLT(3, Date(1996, 4, 1))),
		engine.Col(0), engine.Revenue(1, 2))
	agg := engine.Materialize(engine.NewHashAgg(items, []int{0},
		[]engine.AggSpec{{Kind: engine.AggSum, Col: 1}}, false), 2)
	var bestKey, bestVal int64 = -1, -1
	for i := range agg[0] {
		if agg[1][i] > bestVal || (agg[1][i] == bestVal && agg[0][i] < bestKey) {
			bestKey, bestVal = agg[0][i], agg[1][i]
		}
	}
	if bestKey < 0 {
		return [][]int64{{}, {}}
	}
	return [][]int64{{bestKey}, {bestVal}}
}

// Q18: large volume customers. Orders whose lineitems sum to > 300 units,
// top 100 by total quantity.
func Q18(db *DB) [][]int64 {
	qty := engine.NewHashAgg(
		db.Scan(Lineitem, "l_orderkey", "l_quantity"),
		[]int{0}, []engine.AggSpec{{Kind: engine.AggSum, Col: 1}}, false)
	big := engine.NewSelect(qty, 2, engine.FilterGT(1, 300))
	// join with orders for custkey and orderdate.
	join := engine.NewHashJoin(
		db.Scan(Orders, "o_orderkey", "o_custkey", "o_orderdate"),
		big, 0, 0, []int{1, 2}, []int{0, 1})
	// cols: [orderkey, sumqty, custkey, orderdate]
	top := engine.NewTopN(join, 1, 100, true)
	return engine.Materialize(top, 4)
}

// Q21: suppliers who kept orders waiting: late lineitems of SAUDI-ARABIA
// suppliers (nation 20), counted per supplier, top 100.
func Q21(db *DB) [][]int64 {
	const nationSaudi = 20
	saudi := engine.SemiJoinSet(engine.NewSelect(
		db.Scan(Supplier, "s_suppkey", "s_nationkey"), 2,
		engine.FilterEq(1, nationSaudi)), 0)
	late := engine.NewSelect(
		db.Scan(Lineitem, "l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"), 4,
		engine.FilterColLT(2, 3), engine.FilterIn(1, saudi))
	agg := engine.NewHashAgg(late, []int{1},
		[]engine.AggSpec{{Kind: engine.AggCount, Col: 0}}, false)
	top := engine.NewTopN(agg, 1, 100, true)
	return engine.Materialize(top, 2)
}

// lookupMap scans a two-column dimension relation into a key->value map.
func lookupMap(db *DB, rel, keyCol, valCol string) map[int64]int64 {
	out := make(map[int64]int64)
	scan := db.Scan(rel, keyCol, valCol)
	for {
		b := scan.Next()
		if b == nil {
			return out
		}
		for i := 0; i < b.N; i++ {
			out[b.Cols[0][i]] = b.Cols[1][i]
		}
	}
}

// yearOf converts a day number to its calendar year.
func yearOf(day int64) int64 {
	return int64(time.Unix(day*86400, 0).UTC().Year())
}
