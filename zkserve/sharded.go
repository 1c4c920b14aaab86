package zkserve

import (
	"fmt"

	"repro/zktable"
	"repro/zukowski"
)

// Sharded tables: one zktable directory served as one logical table. The
// zktable layer owns durability (manifest generations, startup recovery,
// salvage, quarantine) and segment composition (global row and block
// numbering, quarantine skip with exact loss accounting); this file only
// holds the typed handle and binds each plan to it, so clients see one
// table regardless of how ingest segmented it.

// shard is the backend of a zktable-backed table: the typed handle every
// scan runs against directly.
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
	opts := zktable.Options{Salvage: true, SourceWrapper: r.wrap}
	if r.hasRtry {
		opts.Retry = r.retry
	}
	zt, _, err := zktable.Open[T](dir, opts)
	if err != nil {
		return fmt.Errorf("table %q: %w", table, err)
	}
	t := r.table(table)
	if len(t.colNames) > 0 {
		zt.Close()
		return fmt.Errorf("%w: table %q already registered", ErrBadRequest, table)
	}
	t.colNames = zt.Columns()
	for i, name := range t.colNames {
		t.byName[name] = i
	}
	t.src = &shard[T]{Table: zt, names: t.colNames}
	t.src.setCache(blockCacheOrNil(r.cache))
	r.closers = append(r.closers, zt)
	return nil
}

// colWidth is T's width: every column of a zktable shares it, and it
// holds even when every segment is quarantined.
func (s *shard[T]) colWidth(int) int { return int(elemWidth(*new(T))) }

func (s *shard[T]) setCache(c zukowski.BlockCache) { s.SetBlockCache(c) }

// fillMeta folds per-segment column statistics into one capability entry
// and reports what the ops surface needs: which committed generation is
// served, and exactly how many committed rows are out of service.
func (s *shard[T]) fillMeta(m *TableMeta) {
	m.Rows = int(s.Rows())
	m.Generation = s.Generation()
	m.Segments = s.NumSegments()
	m.Columns = make([]ColumnMeta, len(s.names))
	for ci, name := range s.names {
		m.Columns[ci] = ColumnMeta{Name: name, WidthBytes: s.colWidth(ci)}
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
			cm, sm := &m.Columns[ci], columnMeta(s.names[ci], cr)
			if sm.HasMinMax {
				if !cm.HasMinMax {
					cm.Min, cm.Max, cm.HasMinMax = sm.Min, sm.Max, true
				} else {
					cm.Min, cm.Max = min(cm.Min, sm.Min), max(cm.Max, sm.Max)
				}
			}
			cm.Rows += sm.Rows
			cm.Blocks += sm.Blocks
			cm.CompressedBytes += sm.CompressedBytes
			cm.QuarantinedBlocks += sm.QuarantinedBlocks
		}
	}
}

// bind needs no validation: a zktable's columns share geometry and width
// by construction, and table column indices are the engine's own.
func (s *shard[T]) bind(p *scanPlan, frames bool, aggCol int) (runner, error) {
	b := bindEngine[T](p, s.Table, func(ci int) int { return ci }, s.colWidth, frames, aggCol)
	b.frame = func(cols []*zukowski.ColumnReader[T], i, local int) ([]byte, error) {
		return cols[p.out[i]].FrameBytes(local)
	}
	return b, nil
}
