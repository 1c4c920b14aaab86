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
// status codes: ErrUnknownTable/ErrUnknownColumn to 404, ErrMismatch to
// 422 (a request understood but not supported, such as a nested any_of),
// ErrBadRequest to 400.
var (
	ErrUnknownTable  = errors.New("zkserve: unknown table")
	ErrUnknownColumn = errors.New("zkserve: unknown column")
	ErrBadRequest    = errors.New("zkserve: bad request")
	ErrMismatch      = errors.New("zkserve: unsupported request")
)

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

// backend is what a Table is served from: a zktable directory — one
// committed manifest generation spanning many immutable segments — held
// as its typed handle (shard[T]). This interface erases the element type
// T; nothing above it knows which width it serves.
type backend interface {
	// colWidth is the element width in bytes, one for the whole table.
	colWidth() int
	fillMeta(m *TableMeta)
	setCache(c *zukowski.BlockLRU)
	// bind translates p, once per request, into the table's Query.
	// aggCol is the aggregate column or -1; frames selects frame mode.
	bind(p *scanPlan, frames bool, aggCol int) runner
}

// Table is a named collection of columns served from one zktable
// directory (see backend). Its columns share one element width and one
// block geometry by construction, so a request needs no per-column
// checks; /tables reports the committed generation and quarantine
// state, and scans number rows and blocks globally across segments.
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
	Rows    int          `json:"rows"` // committed rows
	Columns []ColumnMeta `json:"columns"`

	// The committed manifest generation served, and the table's
	// segment-level health.
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

// Registry maps table names to zktable handles. It is immutable once
// serving starts: build it (OpenDir or AddShardedTable), then share it
// across every request — the tables are safe for concurrent use, so the
// registry needs no locking of its own.
type Registry struct {
	tables  map[string]*Table
	names   []string
	closers []io.Closer
	cache   *zukowski.BlockLRU // shared hot-block cache, nil when disabled

	// retry and wrap apply to the segment readers of every table opened
	// after they are set: retry to transient source-read failures (the
	// zero policy retries nothing), wrap on the raw source (fault
	// injection, tracing).
	retry zukowski.RetryPolicy
	wrap  func(r io.ReaderAt, size int64) io.ReaderAt
}

// RegistryOption configures a Registry at construction.
type RegistryOption func(*Registry)

// WithCacheBytes enables the registry's shared hot-block cache with a
// byte budget; see EnableCache. maxBytes <= 0 leaves the cache off.
func WithCacheBytes(maxBytes int64) RegistryOption {
	return func(r *Registry) { r.EnableCache(maxBytes) }
}

// WithRetryPolicy makes the segment readers of every table registered
// afterwards retry transient source-read failures per p (see
// zukowski.RetryPolicy).
func WithRetryPolicy(p zukowski.RetryPolicy) RegistryOption {
	return func(r *Registry) { r.retry = p }
}

// WithSourceWrapper interposes wrap on the raw io.ReaderAt of every
// segment column file of the tables registered afterwards — the hook
// zkserved's chaos mode uses to inject faults between the reader and the
// filesystem.
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
// most maxBytes of verified frame bytes, shared by every segment reader
// across all tables. Tables registered before and after the call are
// both wired up; under the immutable-container model the cache needs no
// explicit invalidation. maxBytes <= 0 disables caching.
func (r *Registry) EnableCache(maxBytes int64) {
	if maxBytes <= 0 {
		r.cache = nil
	} else {
		r.cache = zukowski.NewBlockLRU(maxBytes)
	}
	for _, t := range r.tables {
		t.src.setCache(r.cache)
	}
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

// QuarantinedSegments sums segments out of service across all tables.
// Like QuarantinedBlocks it is read-only introspection for health
// reporting; per-table detail is on /tables.
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

// OpenDir builds a registry from a data directory: every subdirectory
// holding a zktable manifest is a table, named after the subdirectory
// and opened with its startup recovery (see AddShardedTable). A
// subdirectory of loose .zkc containers without a manifest is refused
// with an error wrapping zktable.ErrNotTable; other subdirectories and
// files are skipped. A directory with no tables yields an empty
// registry, not an error.
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
		tdir := filepath.Join(dir, e.Name())
		if zktable.IsTableDir(tdir) {
			err = r.AddShardedTable(e.Name(), tdir)
		} else {
			err = refuseLooseContainers(tdir)
		}
		if err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// refuseLooseContainers fails on a directory that holds column
// containers but no manifest: data written that way is not a table, and
// serving nothing of it silently would hide it. zktable.Create plus one
// Append turns such columns into a table.
func refuseLooseContainers(dir string) error {
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		if !f.IsDir() && strings.HasSuffix(f.Name(), ".zkc") {
			return fmt.Errorf("%w: %s holds loose .zkc containers; write them as a table with zktable.Create and Append", zktable.ErrNotTable, dir)
		}
	}
	return nil
}

// Close releases every table's segment files.
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
