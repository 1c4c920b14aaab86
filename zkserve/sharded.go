package zkserve

import (
	"fmt"

	"repro/zktable"
	"repro/zukowski"
)

// Served tables: one zktable directory served as one logical table. The
// zktable layer owns durability (manifest generations, startup recovery,
// salvage, quarantine) and segment composition (global row and block
// numbering, quarantine skip with exact loss accounting); this file only
// opens the typed handle and describes it on /tables, and table.go binds
// each plan to it, so clients see one table regardless of how ingest
// segmented it.

// shard is the backend of a served table: the typed handle every scan
// runs against directly.
type shard[T zukowski.Integer] struct {
	*zktable.Table[T]
	names []string // schema order, from the manifest
}

// AddShardedTable opens the zktable at dir (running its startup
// recovery: manifest fallback, orphan sweep, salvage, quarantine) and
// registers it under the given table name. The registry's retry policy
// and source wrapper apply to every segment reader; the zktable handle
// is closed with the registry.
func (r *Registry) AddShardedTable(table, dir string) error {
	info, err := zktable.Peek(dir)
	if err != nil {
		return fmt.Errorf("table %q: %w", table, err)
	}
	switch info.WidthBytes {
	case 1:
		return addSharded[int8](r, table, dir)
	case 2:
		return addSharded[int16](r, table, dir)
	case 4:
		return addSharded[int32](r, table, dir)
	default:
		return addSharded[int64](r, table, dir)
	}
}

func addSharded[T zukowski.Integer](r *Registry, table, dir string) error {
	if _, dup := r.tables[table]; dup {
		return fmt.Errorf("%w: table %q already registered", ErrBadRequest, table)
	}
	zt, _, err := zktable.Open[T](dir, zktable.Options{Salvage: true, Retry: r.retry, SourceWrapper: r.wrap})
	if err != nil {
		return fmt.Errorf("table %q: %w", table, err)
	}
	t := &Table{name: table, colNames: zt.Columns(), byName: map[string]int{}}
	for i, name := range t.colNames {
		t.byName[name] = i
	}
	t.src = &shard[T]{Table: zt, names: t.colNames}
	t.src.setCache(r.cache)
	r.tables[table] = t
	r.names = append(r.names, table)
	r.closers = append(r.closers, zt)
	return nil
}

// colWidth is T's width: every column of a zktable shares it, and it
// holds even when every segment is quarantined.
func (s *shard[T]) colWidth() int { return int(elemWidth(*new(T))) }

func (s *shard[T]) setCache(c *zukowski.BlockLRU) { s.SetBlockCache(c) }

// fillMeta folds per-segment column statistics into one capability entry
// and reports what the ops surface needs: which committed generation is
// served, and exactly how many committed rows are out of service.
func (s *shard[T]) fillMeta(m *TableMeta) {
	m.Rows = int(s.Rows())
	m.Generation = s.Generation()
	m.Segments = s.NumSegments()
	m.Columns = make([]ColumnMeta, len(s.names))
	for ci, name := range s.names {
		m.Columns[ci] = ColumnMeta{Name: name, WidthBytes: s.colWidth()}
	}
	for i := 0; i < m.Segments; i++ {
		rdrs, err := s.SegmentReaders(i)
		if err != nil {
			rows, _ := s.SegmentRows(i)
			m.QuarantinedSegments++
			m.RowsUnavailable += rows
			continue
		}
		for ci, cr := range rdrs {
			cm := &m.Columns[ci]
			cm.Rows += cr.Len()
			cm.Blocks += cr.NumBlocks()
			cm.CompressedBytes += cr.CompressedBytes()
			cm.QuarantinedBlocks += len(cr.QuarantinedBlocks())
			// Fold the zone maps into one column-wide [min, max], what
			// loadgen draws predicate windows from.
			for b := 0; b < cr.NumBlocks(); b++ {
				lo, hi, ok := cr.ZoneMap(b)
				if !ok {
					break
				}
				if !cm.HasMinMax {
					cm.Min, cm.Max, cm.HasMinMax = int64(lo), int64(hi), true
				} else {
					cm.Min, cm.Max = min(cm.Min, int64(lo)), max(cm.Max, int64(hi))
				}
			}
		}
	}
}
