package zktable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/zukowski"
)

// writeAtomic stages name in a temp file in the table directory, runs
// body against it (through the fault-injection wrapper when one is
// configured), fsyncs and renames into place. The rename is durable only
// once the caller has run syncDir, which a commit does once for all of a
// segment's column files and once for its manifest. Every failure closes
// and removes the temp file, so a torn write leaves at worst a sweepable
// orphan (when the process died before the cleanup ran), never a
// half-visible file.
func (t *Table[T]) writeAtomic(name string, body func(io.Writer) error) (err error) {
	path := filepath.Join(t.dir, name)
	tmp, err := os.CreateTemp(t.dir, "."+name+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := io.Writer(tmp)
	if t.opts.WriteWrapper != nil {
		w = t.opts.WriteWrapper(name, w)
	}
	if err = body(w); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// syncDir makes the renames done so far durable. Best effort: not every
// filesystem supports fsync on a directory.
func (t *Table[T]) syncDir() {
	if d, err := os.Open(t.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// writeSegment writes segment id's column containers, one atomic file per
// schema column, and makes their renames durable with one directory
// fsync; fill hands column ci's blocks to the writer, in as many pieces as
// it likes. On failure nothing of the segment is left behind; on success
// remove deletes the files again, for a caller whose commit fails later.
func (t *Table[T]) writeSegment(id uint64, fill func(ci int, cw *zukowski.ColumnWriter[T]) error) (remove func(), err error) {
	var written []string
	remove = func() {
		for _, name := range written {
			os.Remove(filepath.Join(t.dir, name))
		}
	}
	for ci, col := range t.cols {
		name := segFileName(id, col)
		err := t.writeAtomic(name, func(w io.Writer) error {
			cw, err := zukowski.NewColumnWriter[T](w, t.codec, t.bv)
			if err != nil {
				return err
			}
			if err := fill(ci, cw); err != nil {
				return err
			}
			return cw.Close()
		})
		if err != nil {
			remove()
			return nil, err
		}
		written = append(written, name)
	}
	t.syncDir()
	return remove, nil
}

// writeManifest commits one generation atomically and durably. The files
// the manifest names were made durable before it is written (writeSegment),
// so a crash never leaves a manifest that outlived its segment.
func (t *Table[T]) writeManifest(m *manifest) error {
	err := t.writeAtomic(manifestName(m.Generation), func(w io.Writer) error {
		_, err := w.Write(m.encode())
		return err
	})
	if err == nil {
		t.syncDir()
	}
	return err
}

// commit writes a segment of rows rows under the next segment id — fill
// hands column ci's blocks to the writer — and commits it as the next
// generation: it opens the new files and hoists their manifest entry,
// writes a manifest of kept plus that entry, publishes it, and prunes
// what aged out. install runs under the write lock with the new segment
// and must replace (never modify) the published slices — scans hold
// snapshots of the old ones. A failure before the manifest rename
// removes the new files and publishes nothing. Runs under the ingest
// lock.
func (t *Table[T]) commit(rows int64, kept []segMeta, fill func(ci int, cw *zukowski.ColumnWriter[T]) error, install func(seg *segment[T])) (uint64, error) {
	id := t.nextSeg
	remove, err := t.writeSegment(id, fill)
	if err != nil {
		return 0, err
	}
	sm := &segMeta{ID: id, Rows: rows, Cols: make([]colSlice, len(t.cols))}
	seg, err := t.openSegment(sm, true)
	newMan := &manifest{
		Generation:  t.man.Generation + 1,
		Width:       t.man.Width,
		BlockValues: t.man.BlockValues,
		Rows:        rows,
		Cols:        t.man.Cols,
		Segs:        append(slices.Clone(kept), *sm),
	}
	for _, s := range kept {
		newMan.Rows += s.Rows
	}
	if err == nil {
		err = t.writeManifest(newMan)
	}
	if err != nil {
		seg.close()
		remove()
		return 0, err
	}
	t.mu.Lock()
	t.man = newMan
	install(seg)
	t.nextSeg = id + 1
	t.mu.Unlock()
	t.recent = append([]*manifest{newMan}, t.recent...)
	if len(t.recent) > defaultKeep {
		t.recent = t.recent[:defaultKeep:defaultKeep]
		t.sweep()
	}
	return newMan.Generation, nil
}

// sweep removes the debris of the table directory, judged against the
// retained manifests in t.recent, and returns the names it removed.
// Removals are best-effort: anything missed is debris still, and the
// next sweep takes it.
func (t *Table[T]) sweep() (removed []string) {
	names, _ := debris(t.dir, t.recent) // an unlistable directory keeps its debris until a later sweep
	for _, name := range names {
		if os.Remove(filepath.Join(t.dir, name)) == nil {
			removed = append(removed, name)
		}
	}
	return removed
}

// Append writes cols (one value slice per schema column, equal lengths)
// as a new immutable segment and commits it as the next generation. The
// segment's files are written first and become real only when the new
// manifest references them: a crash at any byte before the manifest
// rename leaves orphans the next Open sweeps, and the table exactly as
// previously committed. Returns the new generation.
//
// Append serializes with other writers; concurrent scans keep running
// against the generation they snapshotted and see the new rows on their
// next scan.
func (t *Table[T]) Append(cols [][]T) (uint64, error) {
	t.ingest.Lock()
	defer t.ingest.Unlock()
	t.mu.RLock()
	closed, man := t.closed, t.man
	t.mu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	if t.opts.ReadOnly {
		return 0, ErrReadOnly
	}
	if len(cols) != len(t.cols) {
		return 0, fmt.Errorf("zktable: Append got %d columns, schema has %d", len(cols), len(t.cols))
	}
	n := int64(len(cols[0]))
	if n == 0 {
		return 0, fmt.Errorf("zktable: Append of zero rows")
	}
	for ci := range cols {
		if int64(len(cols[ci])) != n {
			return 0, fmt.Errorf("zktable: column %q holds %d rows, column %q holds %d",
				t.cols[ci], len(cols[ci]), t.cols[0], n)
		}
	}

	return t.commit(n, man.Segs, func(ci int, cw *zukowski.ColumnWriter[T]) error {
		return cw.Write(cols[ci])
	}, func(seg *segment[T]) {
		t.segs = append(append([]*segment[T]{}, t.segs...), seg)
		t.starts = append(append([]int64{}, t.starts...), t.rows)
		t.rows += n
	})
}

// Compact gathers every live row into one fresh segment and commits a
// generation referencing only it — the defragmentation pass that keeps
// block geometry uniform and zone maps tight after many small appends.
// The protocol is Append's: new files first, then the manifest, so an
// interrupted compaction is invisible. Old segment files linger on disk
// until the manifests referencing them age out of retention; their open
// handles are released as soon as the last scan still reading them
// finishes.
//
// Blocks move compressed wherever the geometry allows: while every source
// block so far was full — bulk loads of whole blocks, and whatever an
// earlier compaction left behind — its verified frame is copied into the
// new file with its directory entry (zukowski.ColumnWriter.WriteFrame).
// From a column's first short block on, blocks straddle the seams and are
// decoded and encoded again, one at a time, so compaction's memory on top
// of the writer's block is one block, whatever the table's size. Either
// way the new files hold the blocks a single write of each whole column
// would have cut, and a copied frame keeps the layout it was written
// with: compacting does not re-encode it under this handle's codec. A
// frame no read would take — a PDICT dictionary in frequency order, from
// before dictionaries were stored ascending, say — is refused by
// WriteFrame, and the compaction fails without committing anything.
// Refuses to run with quarantined segments, which would silently drop
// committed rows.
func (t *Table[T]) Compact() (uint64, error) {
	t.ingest.Lock()
	defer t.ingest.Unlock()
	t.mu.RLock()
	closed, man, segs, rows := t.closed, t.man, t.segs, t.rows
	t.mu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	if t.opts.ReadOnly {
		return 0, ErrReadOnly
	}
	for _, s := range segs {
		if s.quar != nil {
			return 0, fmt.Errorf("compact: %w", s.quar)
		}
	}
	if len(segs) <= 1 {
		return man.Generation, nil
	}

	var vals []T // the one block being recoded
	return t.commit(rows, nil, func(ci int, cw *zukowski.ColumnWriter[T]) error {
		for _, s := range segs {
			cr := s.rdrs[ci]
			for b := 0; b < cr.NumBlocks(); b++ {
				var err error
				if vals, err = t.moveBlock(cw, cr, b, vals); err != nil {
					return fmt.Errorf("compact: column %q segment %d block %d: %w", t.cols[ci], s.id, b, err)
				}
			}
		}
		return nil
	}, func(seg *segment[T]) {
		t.era.retired = t.segs
		t.era.drain()
		t.era = new(epoch[T])
		t.segs = []*segment[T]{seg}
		t.starts = []int64{0}
	})
}

// moveBlock appends block b of cr to cw. A full block arriving on a block
// boundary of the output is the block the writer would cut there itself,
// so its frame is copied, verified on both sides of the copy; any other is
// decoded into vals (returned for reuse) and written as values.
func (t *Table[T]) moveBlock(cw *zukowski.ColumnWriter[T], cr *zukowski.ColumnReader[T], b int, vals []T) ([]T, error) {
	info, err := cr.BlockInfo(b)
	if err != nil {
		return vals, err
	}
	if info.Count == t.bv && cw.Len() == cw.NumBlocks()*t.bv {
		frame, err := cr.FrameBytes(b)
		if err != nil {
			return vals, err
		}
		return vals, cw.WriteFrame(frame, info)
	}
	if vals, err = cr.ReadBlock(b, vals[:0]); err != nil {
		return vals, err
	}
	return vals, cw.Write(vals)
}
