package zkserve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/zktable"
	"repro/zukowski"
)

// Typed errors of the serving layer. The HTTP handlers map these to
// status codes: ErrUnknownTable/ErrUnknownColumn to 404, ErrMismatch
// (and zukowski.ErrColumnSetMismatch) to 422, ErrBadRequest to 400.
var (
	ErrUnknownTable  = errors.New("zkserve: unknown table")
	ErrUnknownColumn = errors.New("zkserve: unknown column")
	ErrBadRequest    = errors.New("zkserve: bad request")
	ErrMismatch      = errors.New("zkserve: columns cannot be scanned together")
)

// colHandle is the width-erased handle of one registered column of a
// flat table. The underlying reader is a zukowski.ColumnReader[T] for the
// signed integer type of the column's stored element width; geometry and
// statistics cross this boundary untyped, predicates cross it inside the
// typed ColumnSet a request is bound to.
type colHandle interface {
	colName() string
	widthBytes() int
	rows() int
	numBlocks() int
	blockCount(b int) int
	// meta folds the reader's directory into a capability-listing entry.
	meta() ColumnMeta
	// frameBytes returns block b's raw frame, checksum-verified when the
	// container stores one. The returned slice must not be modified.
	frameBytes(b int) ([]byte, error)
	// setCache attaches the registry's hot-block cache to the reader
	// (a no-op for in-memory columns, which are already resident).
	setCache(c zukowski.BlockCache)
	// reader returns the underlying *zukowski.ColumnReader[T].
	reader() any
}

// column is the generic colHandle implementation for one element type.
type column[T zukowski.Integer] struct {
	name   string
	cr     *zukowski.ColumnReader[T]
	counts []int32 // counts[b] = rows in block b, for the per-request geometry check
}

func (c *column[T]) colName() string  { return c.name }
func (c *column[T]) widthBytes() int  { return int(elemWidth(*new(T))) }
func (c *column[T]) rows() int        { return c.cr.Len() }
func (c *column[T]) numBlocks() int   { return c.cr.NumBlocks() }
func (c *column[T]) meta() ColumnMeta { return columnMeta(c.name, c.cr) }
func (c *column[T]) reader() any      { return c.cr }

func (c *column[T]) blockCount(b int) int { return int(c.counts[b]) }

// frameBytes delegates to the reader's verified frame path, so frame-mode
// streaming shares the reader's verification latch (in-memory) or the
// registry's hot-block cache (file-backed) instead of re-reading and
// re-hashing the payload per request.
func (c *column[T]) frameBytes(b int) ([]byte, error) { return c.cr.FrameBytes(b) }

func (c *column[T]) setCache(cache zukowski.BlockCache) { c.cr.SetBlockCache(cache) }

// columnMeta describes one reader for the capability listing, folding its
// zone maps into one column-wide [min, max] (what loadgen draws predicate
// windows from) and counting the blocks it has latched as corrupt.
func columnMeta[T zukowski.Integer](name string, cr *zukowski.ColumnReader[T]) ColumnMeta {
	cm := ColumnMeta{
		Name:              name,
		WidthBytes:        int(elemWidth(*new(T))),
		Rows:              cr.Len(),
		Blocks:            cr.NumBlocks(),
		CompressedBytes:   cr.CompressedBytes(),
		QuarantinedBlocks: len(cr.QuarantinedBlocks()),
	}
	for b := 0; b < cm.Blocks; b++ {
		if lo, hi, ok := cr.ZoneMap(b); !ok {
			break
		} else if !cm.HasMinMax {
			cm.Min, cm.Max, cm.HasMinMax = int64(lo), int64(hi), true
		} else {
			cm.Min, cm.Max = min(cm.Min, int64(lo)), max(cm.Max, int64(hi))
		}
	}
	return cm
}

// elemWidth returns T's size in bytes without reflection on the hot path.
func elemWidth[T zukowski.Integer](T) uintptr {
	switch any(*new(T)).(type) {
	case int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32:
		return 4
	default:
		return 8
	}
}

// clampRange maps a wire-domain range [lo, hi] into T's domain. ok is
// false when the intersection is empty — the predicate can match nothing
// of this column. Only signed element types are instantiated by the
// registry, so the domain is [-2^(w-1), 2^(w-1)-1].
func clampRange[T zukowski.Integer](lo, hi int64) (tlo, thi T, ok bool) {
	if lo > hi {
		return tlo, thi, false
	}
	bits := 8 * int(elemWidth(tlo))
	minT, maxT := int64(math.MinInt64), int64(math.MaxInt64)
	if bits < 64 {
		maxT = 1<<(bits-1) - 1
		minT = -1 << (bits - 1)
	}
	if lo > maxT || hi < minT {
		return tlo, thi, false
	}
	return T(max(lo, minT)), T(min(hi, maxT)), true
}

// openColumn opens the container as element type T and wraps it.
func openColumn[T zukowski.Integer](name string, mem []byte, src io.ReaderAt, size int64, opts []zukowski.ReaderOption) (colHandle, error) {
	var cr *zukowski.ColumnReader[T]
	var err error
	if mem != nil {
		cr, err = zukowski.OpenColumn[T](mem)
	} else {
		cr, err = zukowski.OpenColumnReaderAt[T](src, size, opts...)
	}
	if err != nil {
		return nil, err
	}
	c := &column[T]{name: name, cr: cr, counts: make([]int32, cr.NumBlocks())}
	for b := range c.counts {
		info, err := cr.BlockInfo(b)
		if err != nil {
			return nil, err
		}
		c.counts[b] = int32(info.Count)
	}
	return c, nil
}

// newColHandle sniffs the container's element width from its header and
// opens the column as the signed integer type of that width (the header
// records width, not signedness).
func newColHandle(name string, mem []byte, src io.ReaderAt, size int64, opts []zukowski.ReaderOption) (colHandle, error) {
	var hdr [16]byte
	if mem != nil {
		if len(mem) < len(hdr) {
			return nil, fmt.Errorf("%w: %d bytes", zukowski.ErrCorruptColumn, len(mem))
		}
		copy(hdr[:], mem)
	} else {
		if _, err := src.ReadAt(hdr[:], 0); err != nil {
			return nil, fmt.Errorf("%w: reading header: %v", zukowski.ErrCorruptColumn, err)
		}
	}
	switch hdr[4] {
	case 1:
		return openColumn[int8](name, mem, src, size, opts)
	case 2:
		return openColumn[int16](name, mem, src, size, opts)
	case 4:
		return openColumn[int32](name, mem, src, size, opts)
	case 8:
		return openColumn[int64](name, mem, src, size, opts)
	}
	return nil, fmt.Errorf("%w: unsupported element width %d", zukowski.ErrCorruptColumn, hdr[4])
}

// backend is what a Table is served from. A flat table is a set of
// individually registered column containers (flatTable); a sharded one is
// a zktable directory — one committed manifest generation spanning many
// immutable segments (shard). Either binds a validated plan to the typed
// engine that runs it; nothing above this interface knows which it has.
type backend interface {
	colWidth(i int) int
	fillMeta(m *TableMeta)
	setCache(c zukowski.BlockCache)
	// bind validates p against the stored columns and translates it, once
	// per request, into the engine's Query. aggCol is the aggregate column
	// or -1; frames selects frame mode.
	bind(p *scanPlan, frames bool, aggCol int) (runner, error)
}

// Table is a named collection of columns, flat or sharded (see backend).
// Flat columns are registered and validated individually; whether a
// particular subset can be scanned together (same geometry, one element
// width across what is evaluated together) is checked per request, so one
// malformed column poisons only the requests that touch it. Sharded
// tables expose the committed generation and quarantine state on /tables
// and scan with global row and block numbering.
type Table struct {
	name     string
	colNames []string // schema order
	byName   map[string]int
	src      backend
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column names in registration (schema) order.
func (t *Table) Columns() []string { return append([]string(nil), t.colNames...) }

// colIndex resolves a column name.
func (t *Table) colIndex(name string) (int, error) {
	i, ok := t.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q has no column %q", ErrUnknownColumn, t.name, name)
	}
	return i, nil
}

// ColumnMeta describes one column in the /tables capability listing.
type ColumnMeta struct {
	Name            string `json:"name"`
	WidthBytes      int    `json:"width_bytes"`
	Rows            int    `json:"rows"`
	Blocks          int    `json:"blocks"`
	CompressedBytes int    `json:"compressed_bytes"`
	HasMinMax       bool   `json:"has_min_max"`
	Min             int64  `json:"min"`
	Max             int64  `json:"max"`

	// QuarantinedBlocks counts blocks latched as permanently corrupt —
	// unreadable until the file is repaired (see segdump -repair).
	QuarantinedBlocks int `json:"quarantined_blocks,omitempty"`
}

// TableMeta describes one table in the /tables capability listing.
type TableMeta struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"` // committed rows (first column for flat tables)
	Columns []ColumnMeta `json:"columns"`

	// Sharded (zktable-backed) tables also report the committed manifest
	// generation they serve and their segment-level health.
	Generation          uint64 `json:"generation,omitempty"`
	Segments            int    `json:"segments,omitempty"`
	QuarantinedSegments int    `json:"quarantined_segments,omitempty"`
	RowsUnavailable     int64  `json:"rows_unavailable,omitempty"`

	// Degraded is set when any column has quarantined blocks or any
	// segment is quarantined: exact scans over them fail, degraded scans
	// skip them.
	Degraded bool `json:"degraded,omitempty"`
}

// Meta returns the table's capability listing entry.
func (t *Table) Meta() TableMeta {
	m := TableMeta{Name: t.name}
	t.src.fillMeta(&m)
	m.Degraded = m.QuarantinedSegments > 0
	for _, cm := range m.Columns {
		if cm.QuarantinedBlocks > 0 {
			m.Degraded = true
		}
	}
	return m
}

// Registry maps table names to column sets. It is immutable once serving
// starts: build it (OpenDir or AddColumnBytes/AddColumnFile), then share
// it across every request — the underlying ColumnReaders are safe for
// concurrent use, so the registry needs no locking of its own.
type Registry struct {
	tables  map[string]*Table
	names   []string
	closers []io.Closer
	cache   *zukowski.BlockLRU // shared hot-block cache, nil when disabled

	// retry is applied to every file-backed column opened after it is set;
	// wrap interposes on the raw source (fault injection, tracing).
	retry   zukowski.RetryPolicy
	hasRtry bool
	wrap    func(r io.ReaderAt, size int64) io.ReaderAt
}

// RegistryOption configures a Registry at construction.
type RegistryOption func(*Registry)

// WithCacheBytes enables the registry's shared hot-block cache with a
// byte budget; see EnableCache. maxBytes <= 0 leaves the cache off.
func WithCacheBytes(maxBytes int64) RegistryOption {
	return func(r *Registry) { r.EnableCache(maxBytes) }
}

// WithRetryPolicy makes every file-backed column registered afterwards
// retry transient source-read failures per p (see zukowski.RetryPolicy).
// In-memory columns cannot observe I/O errors and ignore it.
func WithRetryPolicy(p zukowski.RetryPolicy) RegistryOption {
	return func(r *Registry) { r.retry, r.hasRtry = p, true }
}

// WithSourceWrapper interposes wrap on the raw io.ReaderAt of every
// file-backed column registered afterwards — the hook zkserved's chaos
// mode uses to inject faults between the reader and the filesystem.
func WithSourceWrapper(wrap func(r io.ReaderAt, size int64) io.ReaderAt) RegistryOption {
	return func(r *Registry) { r.wrap = wrap }
}

// NewRegistry returns an empty registry.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{tables: map[string]*Table{}}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// EnableCache gives the registry one process-wide hot-block cache of at
// most maxBytes of verified frame bytes, shared by every file-backed
// column across all tables (in-memory columns are already resident and
// ignore it). Columns registered before and after the call are both
// wired up; under the immutable-container model the cache needs no
// explicit invalidation. maxBytes <= 0 disables caching.
func (r *Registry) EnableCache(maxBytes int64) {
	if maxBytes <= 0 {
		r.cache = nil
	} else {
		r.cache = zukowski.NewBlockLRU(maxBytes)
	}
	for _, t := range r.tables {
		t.src.setCache(blockCacheOrNil(r.cache))
	}
}

// blockCacheOrNil converts a possibly-nil *BlockLRU into the interface
// without producing a non-nil interface around a nil pointer.
func blockCacheOrNil(c *zukowski.BlockLRU) zukowski.BlockCache {
	if c == nil {
		return nil
	}
	return c
}

// CacheEnabled reports whether a hot-block cache is attached.
func (r *Registry) CacheEnabled() bool { return r.cache != nil }

// CacheCapacity returns the cache's byte budget, 0 when disabled.
func (r *Registry) CacheCapacity() int64 {
	if r.cache == nil {
		return 0
	}
	return r.cache.Capacity()
}

// CacheStats snapshots the shared cache's counters; the zero value when
// the cache is disabled.
func (r *Registry) CacheStats() zukowski.CacheStats {
	if r.cache == nil {
		return zukowski.CacheStats{}
	}
	return r.cache.Stats()
}

// QuarantinedBlocks sums the quarantined-block counts of every column
// across all tables — the process-wide corruption gauge behind /healthz
// and the zkserve_blocks_quarantined metric.
func (r *Registry) QuarantinedBlocks() int64 {
	var n int64
	for _, t := range r.tables {
		for _, cm := range t.Meta().Columns {
			n += int64(cm.QuarantinedBlocks)
		}
	}
	return n
}

// QuarantinedSegments sums segments out of service across all sharded
// tables. Like QuarantinedBlocks it is read-only introspection for
// health reporting; per-table detail is on /tables.
func (r *Registry) QuarantinedSegments() int {
	n := 0
	for _, t := range r.tables {
		n += t.Meta().QuarantinedSegments
	}
	return n
}

// Tables returns the registered table names, sorted.
func (r *Registry) Tables() []string {
	names := make([]string, len(r.names))
	copy(names, r.names)
	sort.Strings(names)
	return names
}

// Table resolves a table name.
func (r *Registry) Table(name string) (*Table, error) {
	t, ok := r.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return t, nil
}

func (r *Registry) table(name string) *Table {
	t, ok := r.tables[name]
	if !ok {
		t = &Table{name: name, byName: map[string]int{}, src: &flatTable{}}
		r.tables[name] = t
		r.names = append(r.names, name)
	}
	return t
}

func (r *Registry) addHandle(table string, h colHandle) error {
	t := r.table(table)
	flat, ok := t.src.(*flatTable)
	if !ok {
		return fmt.Errorf("%w: table %q is sharded; individual columns cannot be added", ErrBadRequest, table)
	}
	if _, dup := t.byName[h.colName()]; dup {
		return fmt.Errorf("%w: table %q already has column %q", ErrBadRequest, table, h.colName())
	}
	t.byName[h.colName()] = len(flat.cols)
	t.colNames = append(t.colNames, h.colName())
	flat.cols = append(flat.cols, h)
	if r.cache != nil {
		h.setCache(r.cache)
	}
	return nil
}

// readerOpts folds the registry's reader-level configuration into the
// options passed to every file-backed open.
func (r *Registry) readerOpts() []zukowski.ReaderOption {
	if !r.hasRtry {
		return nil
	}
	return []zukowski.ReaderOption{zukowski.WithRetryPolicy(r.retry)}
}

// AddColumnBytes registers an in-memory column container under
// table/col. The bytes are retained and must stay immutable.
func (r *Registry) AddColumnBytes(table, col string, data []byte) error {
	h, err := newColHandle(col, data, nil, int64(len(data)), nil)
	if err != nil {
		return fmt.Errorf("column %s/%s: %w", table, col, err)
	}
	return r.addHandle(table, h)
}

// AddColumnFile registers a column container file under table/col,
// streaming blocks through an io.ReaderAt so columns larger than RAM
// serve fine. The file stays open until Close.
func (r *Registry) AddColumnFile(table, col, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	var src io.ReaderAt = f
	if r.wrap != nil {
		src = r.wrap(src, st.Size())
	}
	h, err := newColHandle(col, nil, src, st.Size(), r.readerOpts())
	if err != nil {
		f.Close()
		return fmt.Errorf("column %s/%s: %w", table, col, err)
	}
	if err := r.addHandle(table, h); err != nil {
		f.Close()
		return err
	}
	r.closers = append(r.closers, f)
	return nil
}

// OpenDir builds a registry from a data directory: every subdirectory is
// a table. A subdirectory holding a zktable manifest is served as a
// sharded table (segments, generation and quarantine state included);
// otherwise every *.zkc file inside it is a flat column named after the
// file. A directory with no tables yields an empty registry, not an
// error.
func OpenDir(dir string, opts ...RegistryOption) (*Registry, error) {
	r := NewRegistry(opts...)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		table := e.Name()
		if zktable.IsTableDir(filepath.Join(dir, table)) {
			if err := r.AddShardedTable(table, filepath.Join(dir, table)); err != nil {
				r.Close()
				return nil, err
			}
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, table))
		if err != nil {
			r.Close()
			return nil, err
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".zkc") {
				continue
			}
			col := strings.TrimSuffix(f.Name(), ".zkc")
			if err := r.AddColumnFile(table, col, filepath.Join(dir, table, f.Name())); err != nil {
				r.Close()
				return nil, err
			}
		}
	}
	return r, nil
}

// Close releases the file handles of file-backed columns.
func (r *Registry) Close() error {
	var first error
	for _, c := range r.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.closers = nil
	return first
}
