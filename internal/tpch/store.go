package tpch

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/zukowski"
)

// Layout selects which columns' bytes a relation scan is charged for.
type Layout int

const (
	// DSM stores each column on its own (Copeland & Khoshafian's
	// Decomposition Storage Model): a scan touching k of n columns
	// fetches only those k.
	DSM Layout = iota
	// PAX keeps one row range of every column in the same disk unit
	// (Ailamaki et al.): a scan fetches the block of every column of the
	// relation, whichever it decodes.
	PAX
)

// String names the layout as in the paper's tables.
func (l Layout) String() string {
	if l == PAX {
		return "PAX"
	}
	return "DSM"
}

// Mode selects where decompression happens (Figure 1).
type Mode int

const (
	// VectorWise is the paper's proposal: compressed blocks stay in the
	// buffer pool and a scan decodes one block — 4,096 values, cache
	// resident — just before the pipeline consumes it.
	VectorWise Mode = iota
	// PageWise is the conventional I/O-RAM placement: a scan decodes its
	// columns whole into RAM first and the pipeline reads them back.
	PageWise
)

// String names the mode as in Table 3.
func (m Mode) String() string {
	if m == PageWise {
		return "page-wise"
	}
	return "vector-wise"
}

// blockValues is the container block size: the unit of I/O, of buffer
// pool residency and of vector-wise decompression (32 KB of int64).
const blockValues = 4096

// Image is a stored dataset, the simulated disk's contents: one ZKC2
// container per column. Open it to query.
type Image struct {
	DS    *Dataset
	files map[string][][]byte // files[rel][col] holds the container bytes
}

// DB is one queryable database: an Image opened cold under a layout, a
// decompression mode and a buffer pool, or the Oracle, which has no
// storage and replays the generated arrays. Queries and ZQueries both
// take a *DB. Layout and mode govern Scan; scanExpr fetches and decodes
// what its pushed-down predicate leaves, and only Scan's decode time is
// split out as DecompressTime.
type DB struct {
	DS     *Dataset
	layout Layout
	mode   Mode

	// sets holds the opened containers, one ColumnSet per relation with
	// column indexes matching Rel.Col. Their frames arrive through a
	// byte-counting io.ReaderAt and stay in one BlockLRU. nil for Oracle.
	sets map[string]*zukowski.ColumnSet[int64]

	fetched    atomic.Int64
	decompress time.Duration
}

// Oracle returns a DB whose scans replay ds's generated arrays: no
// container, no codec, nothing shared with the storage it cross-checks.
// It answers Scan only, which is all Queries use.
func Oracle(ds *Dataset) *DB { return &DB{DS: ds} }

// Store encodes every column of ds into an in-memory ZKC2 container of
// 4,096-value blocks — the Auto codec per block when compress is
// set, raw frames otherwise.
func Store(ds *Dataset, compress bool) *Image {
	var codec zukowski.Codec[int64] = zukowski.None[int64]{}
	if compress {
		codec = zukowski.Auto[int64]{}
	}
	files := make(map[string][][]byte, len(ds.Rels))
	for name, rel := range ds.Rels {
		files[name] = make([][]byte, len(rel.Data))
		for i, vals := range rel.Data {
			var buf bytes.Buffer
			cw, err := zukowski.NewColumnWriter(&buf, codec, blockValues)
			must(err, rel.Cols[i])
			must(cw.Write(vals), rel.Cols[i])
			must(cw.Close(), rel.Cols[i])
			files[name][i] = buf.Bytes()
		}
	}
	return &Image{DS: ds, files: files}
}

// Open returns a cold handle on the stored containers: fresh readers, an
// empty buffer pool of bufBytes (none when 0) and zeroed accounting. The
// catalog — container headers and block directories — is read here and
// not charged; a run pays for the block frames it fetches.
func (im *Image) Open(layout Layout, mode Mode, bufBytes int64) *DB {
	db := &DB{DS: im.DS, layout: layout, mode: mode,
		sets: make(map[string]*zukowski.ColumnSet[int64], len(im.files))}
	var opts []zukowski.ReaderOption
	if bufBytes > 0 {
		opts = append(opts, zukowski.WithBlockCache(zukowski.NewBlockLRU(bufBytes)))
	}
	for name, cols := range im.files {
		crs := make([]*zukowski.ColumnReader[int64], len(cols))
		for i, data := range cols {
			var err error
			crs[i], err = zukowski.OpenColumnReaderAt[int64](
				meteredFile{bytes.NewReader(data), &db.fetched}, int64(len(data)), opts...)
			must(err, im.DS.Rel(name).Cols[i])
		}
		set, err := zukowski.NewColumnSet(crs...)
		must(err, name)
		db.sets[name] = set
	}
	db.fetched.Store(0)
	return db
}

// must panics on err: the containers are written and read back in one
// process, and the operator interface has no error path.
func must(err error, what string) {
	if err != nil {
		panic(fmt.Sprintf("tpch: %s: %v", what, err))
	}
}

// meteredFile is one container on the simulated RAID: reads are served
// from memory and every byte is counted, so I/O time is bytes fetched
// over the RAID's bandwidth.
type meteredFile struct {
	r       io.ReaderAt
	fetched *atomic.Int64
}

func (f meteredFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.r.ReadAt(p, off)
	f.fetched.Add(int64(n))
	return n, err
}

// BytesFetched returns the bytes read from the simulated disk since Open.
func (db *DB) BytesFetched() int64 { return db.fetched.Load() }

// DecompressTime returns the wall time Scan operators have spent reading
// blocks since Open: the pool lookup (on a miss the fetch and its
// checksum) and the decode — the "decompression" slice of Figure 8.
func (db *DB) DecompressTime() time.Duration { return db.decompress }

// Set returns the relation's ColumnSet.
func (db *DB) Set(rel string) *zukowski.ColumnSet[int64] {
	s, ok := db.sets[rel]
	if !ok {
		panic("tpch: no open relation " + rel)
	}
	return s
}

// Col returns the set column index of rel's named column.
func (db *DB) Col(rel, col string) int { return db.DS.Rel(rel).Col(col) }

// charged lists the readers whose blocks a scan of rel's cols fetches:
// cols first, in order, then — under PAX — every other column of rel.
func (db *DB) charged(rel string, cols []string) []*zukowski.ColumnReader[int64] {
	set := db.Set(rel)
	crs := make([]*zukowski.ColumnReader[int64], 0, set.Columns())
	scanned := make([]bool, set.Columns())
	for _, c := range cols {
		i := db.Col(rel, c)
		crs, scanned[i] = append(crs, set.Column(i)), true
	}
	if db.layout == PAX {
		for i, seen := range scanned {
			if !seen {
				crs = append(crs, set.Column(i))
			}
		}
	}
	return crs
}

// ScanBytes returns the uncompressed and the stored size of what a full
// scan of rel's cols fetches under db's layout.
func (db *DB) ScanBytes(rel string, cols ...string) (unc, stored int64) {
	for _, cr := range db.charged(rel, cols) {
		unc += int64(cr.UncompressedBytes())
		stored += int64(cr.CompressedBytes())
	}
	return unc, stored
}

// Scan opens a vectorized scan of the named columns, in row order.
func (db *DB) Scan(rel string, cols ...string) engine.Operator {
	if db.sets == nil {
		r := db.DS.Rel(rel)
		data := make([][]int64, len(cols))
		for i, c := range cols {
			data[i] = r.Column(c)
		}
		return engine.NewSliceSource(data)
	}
	crs := db.charged(rel, cols)
	return &scan{
		db:    db,
		cols:  crs[:len(cols)],
		extra: crs[len(cols):],
		vals:  make([][]int64, len(cols)),
		out:   &engine.Batch{Cols: make([][]int64, len(cols))},
	}
}

// scanExpr returns an operator over the named columns of rel at the
// rows expr selects, in row order. The expression is pushed below
// decompression: zone maps prune blocks, masks evaluate on compressed
// words, and only surviving rows materialize. The filtered result
// replays as engine.BatchSize batches, so downstream operators (HashAgg's
// first-seen group order, TopN's tie handling, HashJoin's build order)
// behave as over Scan + Select. It fetches the columns it reads whatever
// the layout says, and its decode time is not split out (see DB).
func (db *DB) scanExpr(rel string, expr zukowski.Expr[int64], cols ...string) engine.Operator {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = db.Col(rel, c)
	}
	_, vals, err := db.Set(rel).Project(expr, idx...)
	must(err, rel)
	return engine.NewSliceSource(vals)
}

// scan is the storage scan operator. It decodes a unit of the relation —
// one block under VectorWise, all of it under PageWise — and hands it to
// the pipeline as engine.BatchSize-row views, so the two modes differ
// only in whether the pipeline reads decoded values back from the CPU
// cache or from RAM.
type scan struct {
	db    *DB
	cols  []*zukowski.ColumnReader[int64] // decoded, in output order
	extra []*zukowski.ColumnReader[int64] // fetched only: the relation's other columns under PAX
	vals  [][]int64                       // the decoded unit, per column
	block int                             // next block to load
	pos   int                             // next row of vals to hand out
	out   *engine.Batch
}

// Next returns the next batch, nil at end of relation.
func (s *scan) Next() *engine.Batch {
	if s.pos == len(s.vals[0]) && !s.load() {
		return nil
	}
	n := min(engine.BatchSize, len(s.vals[0])-s.pos)
	for i, v := range s.vals {
		s.out.Cols[i] = v[s.pos : s.pos+n]
	}
	s.pos += n
	s.out.N = n
	return s.out
}

// load fetches and decodes the next unit, timing the scanned columns'
// share as decompression.
func (s *scan) load() bool {
	lo, hi := s.block, s.cols[0].NumBlocks()
	if lo >= hi {
		return false
	}
	if s.db.mode == VectorWise {
		hi = lo + 1
	}
	for _, cr := range s.extra {
		for b := lo; b < hi; b++ {
			_, err := cr.FrameBytes(b)
			must(err, "scan")
		}
	}
	start := time.Now()
	for i, cr := range s.cols {
		var err error
		if s.db.mode == VectorWise {
			s.vals[i], err = cr.ReadBlock(lo, s.vals[i][:0])
		} else {
			s.vals[i], err = cr.ReadAll(s.vals[i][:0])
		}
		must(err, "scan")
	}
	s.db.decompress += time.Since(start)
	s.block, s.pos = hi, 0
	return true
}
