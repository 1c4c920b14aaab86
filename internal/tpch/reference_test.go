package tpch

import (
	"cmp"
	"slices"
	"testing"
)

// Scalar reference implementations: the vectorized pipeline must agree
// with a plain row-at-a-time computation over the generated data.

func TestQ6MatchesScalarReference(t *testing.T) {
	ds, db := buildDB(t, DSM, true, VectorWise)
	li := ds.Rel(Lineitem)
	ship := li.Column("l_shipdate")
	disc := li.Column("l_discount")
	qty := li.Column("l_quantity")
	price := li.Column("l_extendedprice")

	var want int64
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	for i := 0; i < li.Rows(); i++ {
		if ship[i] >= lo && ship[i] < hi && disc[i] >= 5 && disc[i] <= 7 && qty[i] < 24 {
			want += price[i] * disc[i]
		}
	}
	got := Q6(db)
	if got[0][0] != want {
		t.Fatalf("Q6 = %d, scalar reference = %d", got[0][0], want)
	}
}

func TestQ1MatchesScalarReference(t *testing.T) {
	ds, db := buildDB(t, PAX, true, VectorWise)
	li := ds.Rel(Lineitem)
	flag := li.Column("l_returnflag")
	status := li.Column("l_linestatus")
	qty := li.Column("l_quantity")
	price := li.Column("l_extendedprice")
	disc := li.Column("l_discount")
	ship := li.Column("l_shipdate")

	type key struct{ f, s int64 }
	sumQty := map[key]int64{}
	sumRev := map[key]int64{}
	count := map[key]int64{}
	cutoff := Date(1998, 9, 2)
	for i := 0; i < li.Rows(); i++ {
		if ship[i] > cutoff {
			continue
		}
		k := key{flag[i], status[i]}
		sumQty[k] += qty[i]
		sumRev[k] += price[i] * (100 - disc[i])
		count[k]++
	}

	got := Q1(db)
	if len(got[0]) != len(count) {
		t.Fatalf("Q1 groups %d, reference %d", len(got[0]), len(count))
	}
	for i := range got[0] {
		k := key{got[0][i], got[1][i]}
		if got[2][i] != sumQty[k] {
			t.Fatalf("group %v: sum_qty %d, want %d", k, got[2][i], sumQty[k])
		}
		if got[4][i] != sumRev[k] {
			t.Fatalf("group %v: sum_disc_price %d, want %d", k, got[4][i], sumRev[k])
		}
		if got[6][i] != count[k] {
			t.Fatalf("group %v: count %d, want %d", k, got[6][i], count[k])
		}
	}
}

func TestQ15MatchesScalarReference(t *testing.T) {
	ds, db := buildDB(t, DSM, true, PageWise)
	li := ds.Rel(Lineitem)
	supp := li.Column("l_suppkey")
	price := li.Column("l_extendedprice")
	disc := li.Column("l_discount")
	ship := li.Column("l_shipdate")

	rev := map[int64]int64{}
	lo, hi := Date(1996, 1, 1), Date(1996, 4, 1)
	for i := 0; i < li.Rows(); i++ {
		if ship[i] >= lo && ship[i] < hi {
			rev[supp[i]] += price[i] * (100 - disc[i])
		}
	}
	var bestKey, bestVal int64 = -1, -1
	for k, v := range rev {
		if v > bestVal || (v == bestVal && k < bestKey) {
			bestKey, bestVal = k, v
		}
	}
	got := Q15(db)
	if got[0][0] != bestKey || got[1][0] != bestVal {
		t.Fatalf("Q15 = (%d,%d), reference (%d,%d)", got[0][0], got[1][0], bestKey, bestVal)
	}
}

func TestQ4MatchesScalarReference(t *testing.T) {
	ds, db := buildDB(t, DSM, false, VectorWise)
	li := ds.Rel(Lineitem)
	orders := ds.Rel(Orders)

	late := map[int64]bool{}
	lok := li.Column("l_orderkey")
	commit := li.Column("l_commitdate")
	receipt := li.Column("l_receiptdate")
	for i := 0; i < li.Rows(); i++ {
		if commit[i] < receipt[i] {
			late[lok[i]] = true
		}
	}
	counts := map[int64]int64{}
	ook := orders.Column("o_orderkey")
	odate := orders.Column("o_orderdate")
	oprio := orders.Column("o_orderpriority")
	lo, hi := Date(1993, 7, 1), Date(1993, 10, 1)
	for i := 0; i < orders.Rows(); i++ {
		if odate[i] >= lo && odate[i] < hi && late[ook[i]] {
			counts[oprio[i]]++
		}
	}
	got := Q4(db)
	if len(got[0]) != len(counts) {
		t.Fatalf("Q4 groups %d, reference %d", len(got[0]), len(counts))
	}
	for i := range got[0] {
		if got[1][i] != counts[got[0][i]] {
			t.Fatalf("priority %d: count %d, want %d", got[0][i], got[1][i], counts[got[0][i]])
		}
	}
}

// checkTopN compares a top-n-by-orderCol result, keyed by column 0, with
// the full reference row set. The engine's TopN leaves the choice and
// order among equal values open, so the check pins everything else: the
// row count, the descending order values (which must be the n largest of
// the reference), and every emitted row against the reference row of its
// key, each key at most once.
func checkTopN(t *testing.T, name string, got [][]int64, orderCol, n int, want map[int64][]int64) {
	t.Helper()
	order := make([]int64, 0, len(want))
	for _, row := range want {
		order = append(order, row[orderCol])
	}
	slices.SortFunc(order, func(a, b int64) int { return cmp.Compare(b, a) })
	order = order[:min(n, len(order))]
	if !slices.Equal(got[orderCol], order) {
		t.Fatalf("%s: order column %v, reference top %d is %v", name, got[orderCol], n, order)
	}
	seen := map[int64]bool{}
	for i, key := range got[0] {
		row, ok := want[key]
		if !ok || seen[key] {
			t.Fatalf("%s: row %d has key %d (known %v, repeated %v)", name, i, key, ok, seen[key])
		}
		seen[key] = true
		for c := range got {
			if got[c][i] != row[c] {
				t.Fatalf("%s: key %d column %d = %d, reference %d", name, key, c, got[c][i], row[c])
			}
		}
	}
}

func TestQ3MatchesScalarReference(t *testing.T) {
	ds, db := buildDB(t, DSM, true, VectorWise)
	cust, orders, li := ds.Rel(Customer), ds.Rel(Orders), ds.Rel(Lineitem)
	cutoff := Date(1995, 3, 15)

	building := map[int64]bool{}
	for i, seg := range cust.Column("c_mktsegment") {
		if seg == SegmentBuilding {
			building[cust.Column("c_custkey")[i]] = true
		}
	}
	orderDate := map[int64]int64{}
	for i, key := range orders.Column("o_orderkey") {
		if d := orders.Column("o_orderdate")[i]; d < cutoff && building[orders.Column("o_custkey")[i]] {
			orderDate[key] = d
		}
	}
	// rows: [orderkey, orderdate, revenue]
	want := map[int64][]int64{}
	price, disc := li.Column("l_extendedprice"), li.Column("l_discount")
	for i, key := range li.Column("l_orderkey") {
		d, ok := orderDate[key]
		if !ok || li.Column("l_shipdate")[i] <= cutoff {
			continue
		}
		if want[key] == nil {
			want[key] = []int64{key, d, 0}
		}
		want[key][2] += price[i] * (100 - disc[i])
	}
	if len(want) <= 10 {
		t.Fatalf("only %d qualifying orders: the top-10 cut is not exercised", len(want))
	}
	checkTopN(t, "Q3", Q3(db), 2, 10, want)
	checkTopN(t, "ZQ3", ZQ3(db), 2, 10, want)
}

func TestQ18MatchesScalarReference(t *testing.T) {
	ds, db := buildDB(t, DSM, true, PageWise)
	orders, li := ds.Rel(Orders), ds.Rel(Lineitem)

	qty := map[int64]int64{}
	for i, key := range li.Column("l_orderkey") {
		qty[key] += li.Column("l_quantity")[i]
	}
	// rows: [orderkey, sum(quantity), custkey, orderdate]
	want := map[int64][]int64{}
	for i, key := range orders.Column("o_orderkey") {
		if qty[key] > 300 {
			want[key] = []int64{key, qty[key], orders.Column("o_custkey")[i], orders.Column("o_orderdate")[i]}
		}
	}
	// Few generated orders exceed 300 units (one at this scale), so this
	// checks the aggregate, the filter and the join; Q3 exercises the cut.
	if len(want) == 0 {
		t.Fatal("no order above 300 units: the reference checks nothing")
	}
	checkTopN(t, "Q18", Q18(db), 1, 100, want)
	checkTopN(t, "ZQ18", ZQ18(db), 1, 100, want)
}
