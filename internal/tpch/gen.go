// Package tpch provides a deterministic, scaled-down TPC-H data generator
// and the eleven benchmark queries of Table 2 (Q1, 3, 4, 5, 6, 7, 11, 14,
// 15, 18, 21), implemented on the vectorized engine over ZKC2 column
// containers (store.go).
//
// The generator reproduces the value distributions that drive compression
// behaviour — sequential keys with gaps, clustered dates, low-cardinality
// enums, decimal prices scaled to integer cents — at laptop scale factors
// (SF 1 = 6M lineitems; the paper ran SF 100). Strings are dictionary
// codes, decimals are scaled integers, dates are day numbers: the
// enumerated-storage convention of MonetDB/X100. Comment columns are
// modeled as incompressible random values, matching the paper's note that
// comment fields "could not be compressed with our algorithms".
package tpch

import (
	"math/rand"
	"time"
)

// Relation names.
const (
	Lineitem = "lineitem"
	Orders   = "orders"
	Customer = "customer"
	Supplier = "supplier"
	Nation   = "nation"
	Region   = "region"
	Part     = "part"
	PartSupp = "partsupp"
)

// Rel is one generated relation: named int64 columns.
type Rel struct {
	Name string
	Cols []string
	Data [][]int64
	idx  map[string]int
}

// Col returns the column index for name.
func (r *Rel) Col(name string) int {
	i, ok := r.idx[name]
	if !ok {
		panic("tpch: unknown column " + r.Name + "." + name)
	}
	return i
}

// Column returns the raw data of a named column.
func (r *Rel) Column(name string) []int64 { return r.Data[r.Col(name)] }

// Rows returns the relation cardinality.
func (r *Rel) Rows() int {
	if len(r.Data) == 0 {
		return 0
	}
	return len(r.Data[0])
}

func newRel(name string, cols ...string) *Rel {
	r := &Rel{Name: name, Cols: cols, Data: make([][]int64, len(cols)), idx: map[string]int{}}
	for i, c := range cols {
		r.idx[c] = i
	}
	return r
}

// Dataset is a full generated database.
type Dataset struct {
	SF   float64
	Rels map[string]*Rel
}

// Rel returns a relation by name.
func (ds *Dataset) Rel(name string) *Rel {
	r, ok := ds.Rels[name]
	if !ok {
		panic("tpch: unknown relation " + name)
	}
	return r
}

// Date returns the day number of a calendar date (days since Unix epoch),
// the storage form of all date columns.
func Date(y, m, d int) int64 {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

// Enum code spaces for string columns.
const (
	NumNations  = 25
	NumRegions  = 5
	NumSegments = 5 // c_mktsegment: AUTOMOBILE..MACHINERY; BUILDING = 1
	NumPrios    = 5 // o_orderpriority: 1-URGENT..5-LOW
	NumModes    = 7 // l_shipmode: REG AIR..TRUCK
	NumTypes    = 150
	// SegmentBuilding is the Q3 market segment code.
	SegmentBuilding = 1
	// RegionAsia is the Q5 region code.
	RegionAsia = 2
	// NationGermany is the Q11 nation code.
	NationGermany = 7
	// NationFrance and NationGermany2 are the Q7 nation pair.
	NationFrance = 6
	// ReturnFlagA/N/R and line status codes.
	FlagA, FlagN, FlagR = 0, 1, 2
	StatusO, StatusF    = 0, 1
)

// Generate builds a deterministic dataset at the given scale factor.
// SF 1 corresponds to 1.5M orders / ~6M lineitems.
func Generate(sf float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{SF: sf, Rels: map[string]*Rel{}}

	numOrders := int(sf * 1_500_000)
	if numOrders < 100 {
		numOrders = 100
	}
	numCust := max(numOrders/10, 10)
	numSupp := max(int(sf*10_000), 10)
	numPart := max(int(sf*200_000), 50)

	ds.Rels[Region] = genRegion()
	ds.Rels[Nation] = genNation(rng)
	ds.Rels[Supplier] = genSupplier(rng, numSupp)
	ds.Rels[Customer] = genCustomer(rng, numCust)
	ds.Rels[Part] = genPart(rng, numPart)
	ds.Rels[PartSupp] = genPartSupp(rng, numPart)
	orders, lineitem := genOrdersLineitem(rng, numOrders, numCust, numSupp, numPart)
	ds.Rels[Orders] = orders
	ds.Rels[Lineitem] = lineitem
	return ds
}

func genRegion() *Rel {
	r := newRel(Region, "r_regionkey")
	for k := int64(0); k < NumRegions; k++ {
		r.Data[0] = append(r.Data[0], k)
	}
	return r
}

func genNation(rng *rand.Rand) *Rel {
	r := newRel(Nation, "n_nationkey", "n_regionkey")
	for k := int64(0); k < NumNations; k++ {
		r.Data[0] = append(r.Data[0], k)
		r.Data[1] = append(r.Data[1], k%NumRegions)
	}
	return r
}

func genSupplier(rng *rand.Rand, n int) *Rel {
	r := newRel(Supplier, "s_suppkey", "s_nationkey")
	for k := 0; k < n; k++ {
		r.Data[0] = append(r.Data[0], int64(k+1))
		r.Data[1] = append(r.Data[1], rng.Int63n(NumNations))
	}
	return r
}

func genCustomer(rng *rand.Rand, n int) *Rel {
	r := newRel(Customer, "c_custkey", "c_nationkey", "c_mktsegment")
	for k := 0; k < n; k++ {
		r.Data[0] = append(r.Data[0], int64(k+1))
		r.Data[1] = append(r.Data[1], rng.Int63n(NumNations))
		r.Data[2] = append(r.Data[2], rng.Int63n(NumSegments))
	}
	return r
}

func genPart(rng *rand.Rand, n int) *Rel {
	r := newRel(Part, "p_partkey", "p_type", "p_size")
	for k := 0; k < n; k++ {
		r.Data[0] = append(r.Data[0], int64(k+1))
		r.Data[1] = append(r.Data[1], rng.Int63n(NumTypes))
		r.Data[2] = append(r.Data[2], 1+rng.Int63n(50))
	}
	return r
}

func genPartSupp(rng *rand.Rand, numPart int) *Rel {
	r := newRel(PartSupp, "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost")
	for k := 0; k < numPart; k++ {
		for s := 0; s < 4; s++ {
			r.Data[0] = append(r.Data[0], int64(k+1))
			r.Data[1] = append(r.Data[1], 1+rng.Int63n(1<<20)) // joined via set membership
			r.Data[2] = append(r.Data[2], 1+rng.Int63n(9999))
			r.Data[3] = append(r.Data[3], 100+rng.Int63n(99900)) // cents
		}
	}
	return r
}

// retailPrice mirrors the TPC-H p_retailprice formula (in cents).
func retailPrice(partkey int64) int64 {
	return 90000 + (partkey%2000)*10 + 100*(partkey%1000)/10
}

var (
	startDate = Date(1992, 1, 1)
	endDate   = Date(1998, 8, 2)
)

func genOrdersLineitem(rng *rand.Rand, numOrders, numCust, numSupp, numPart int) (*Rel, *Rel) {
	o := newRel(Orders, "o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority", "o_comment")
	l := newRel(Lineitem,
		"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus",
		"l_shipdate", "l_commitdate", "l_receiptdate", "l_shipmode", "l_comment")

	dateSpan := endDate - startDate - 151

	for i := 0; i < numOrders; i++ {
		// Order keys are sequential with gaps: 8 keys used per 32-key
		// window, as in dbgen — sparse but strongly clustered, the classic
		// PFOR-DELTA case.
		orderkey := int64(i/8)*32 + int64(i%8) + 1
		custkey := 1 + rng.Int63n(int64(numCust))
		orderdate := startDate + rng.Int63n(dateSpan)
		o.Data[0] = append(o.Data[0], orderkey)
		o.Data[1] = append(o.Data[1], custkey)
		o.Data[2] = append(o.Data[2], orderdate)
		o.Data[3] = append(o.Data[3], rng.Int63n(NumPrios))
		o.Data[4] = append(o.Data[4], rng.Int63())

		lines := 1 + rng.Intn(7)
		for ln := 1; ln <= lines; ln++ {
			partkey := 1 + rng.Int63n(int64(numPart))
			qty := 1 + rng.Int63n(50)
			ship := orderdate + 1 + rng.Int63n(121)
			commit := orderdate + 30 + rng.Int63n(61)
			receipt := ship + 1 + rng.Int63n(30)
			flag := int64(FlagN)
			if receipt <= Date(1995, 6, 17) {
				if rng.Intn(2) == 0 {
					flag = FlagA
				} else {
					flag = FlagR
				}
			}
			status := int64(StatusO)
			if ship <= Date(1995, 6, 17) {
				status = StatusF
			}
			l.Data[0] = append(l.Data[0], orderkey)
			l.Data[1] = append(l.Data[1], partkey)
			l.Data[2] = append(l.Data[2], 1+rng.Int63n(int64(numSupp)))
			l.Data[3] = append(l.Data[3], int64(ln))
			l.Data[4] = append(l.Data[4], qty)
			l.Data[5] = append(l.Data[5], qty*retailPrice(partkey)/100)
			l.Data[6] = append(l.Data[6], rng.Int63n(11)) // 0..10%
			l.Data[7] = append(l.Data[7], rng.Int63n(9))  // 0..8%
			l.Data[8] = append(l.Data[8], flag)
			l.Data[9] = append(l.Data[9], status)
			l.Data[10] = append(l.Data[10], ship)
			l.Data[11] = append(l.Data[11], commit)
			l.Data[12] = append(l.Data[12], receipt)
			l.Data[13] = append(l.Data[13], rng.Int63n(NumModes))
			l.Data[14] = append(l.Data[14], rng.Int63())
		}
	}
	return o, l
}
