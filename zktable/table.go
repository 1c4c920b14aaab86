package zktable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/zukowski"
)

// Options configures a table handle. The zero value is a working default:
// automatic per-block codec choice, no retries, no fault injection, no
// salvage, two retained manifest generations.
type Options struct {
	// Codec names the registered codec used to encode appended segments;
	// empty lets the writer pick per block (Auto).
	Codec string

	// Retry makes every segment column reader retry transient source-read
	// failures (see zukowski.RetryPolicy). The zero value disables retries.
	Retry zukowski.RetryPolicy

	// SourceWrapper interposes on the raw io.ReaderAt of every opened
	// segment file — the fault-injection seam (faultio.NewReaderAt).
	SourceWrapper func(r io.ReaderAt, size int64) io.ReaderAt

	// WriteWrapper interposes on the byte stream of every file the table
	// writes (segment columns and manifests); name is the file's final
	// name in the table directory. Crash tests tear the stream with
	// faultio.Writer at chosen byte budgets.
	WriteWrapper func(name string, w io.Writer) io.Writer

	// Salvage lets Open rewrite a segment column that fails verification
	// via zukowski.RecoverColumn before giving up on the segment. Only a
	// salvage that restores the exact committed geometry (every block,
	// count, checksum and zone map the manifest hoists) returns the
	// segment to service; anything short of that leaves it quarantined,
	// because serving a shortened segment would silently drop committed
	// rows from exact scans.
	Salvage bool

	// ReadOnly makes Open purely observational: no debris sweep, no
	// salvage writes; Append and Compact fail with ErrReadOnly. Fsck opens no Table at all; it reads the directory
	// by the rules Open recovers by and lists as orphans what a writable
	// Open with default Options would sweep.
	ReadOnly bool
}

// defaultKeep is how many manifest generations stay on disk: the current
// one plus a fallback for when it is later damaged. Open and a commit
// retain that many, and Peek and Fsck judge a directory by it.
const defaultKeep = 2

// SegmentFault describes one segment Open could not return to service.
type SegmentFault struct {
	Seg  uint64 // segment id
	Rows int64  // committed rows now unavailable to exact scans
	Err  error  // the verification failure, wrapping ErrSegmentQuarantined
}

// OpenReport says what startup recovery found and did.
type OpenReport struct {
	Generation uint64 // the committed generation served
	Rows       int64  // rows in that generation
	Segments   int

	// FellBack is set when a manifest newer than the served generation
	// existed but failed validation.
	FellBack         bool
	CorruptManifests []string // manifest files that failed validation
	Swept            []string // orphan/temp/stale files removed
	Salvaged         []uint64 // segment ids healed via RecoverColumn
	Quarantined      []SegmentFault
	RowsUnavailable  int64 // rows in quarantined segments
}

// segment is one committed segment: its open column readers and the
// ColumnSet scans run against, or — when quarantined — the reason it is
// out of service.
type segment[T zukowski.Integer] struct {
	id     uint64
	rows   int64
	counts []uint32 // rows per block (from the manifest)
	files  []io.Closer
	rdrs   []*zukowski.ColumnReader[T]
	set    *zukowski.ColumnSet[T]
	quar   error // non-nil: unavailable, wraps ErrSegmentQuarantined
}

func (s *segment[T]) close() {
	for _, f := range s.files {
		f.Close()
	}
	s.files = nil
}

// epoch counts the scans running over the segments of one compaction
// era. Appends only add segments, so every scan pinned to an era reads a
// subset of the segments the next Compact replaces: Compact hands them to
// the era it ends, and whoever finds the era unpinned — Compact itself,
// or the last scan to release it — closes them. All fields are guarded
// by Table.mu.
type epoch[T zukowski.Integer] struct {
	pins    int
	retired []*segment[T]
}

// drain closes the era's retired segments once no scan pins it.
func (e *epoch[T]) drain() {
	if e.pins == 0 {
		for _, s := range e.retired {
			s.close()
		}
		e.retired = nil
	}
}

// Table is an open table directory. One writer at a time (Append,
// Compact serialize internally); any number of concurrent scans, each
// running against the committed generation it pinned.
type Table[T zukowski.Integer] struct {
	dir   string
	opts  Options
	codec zukowski.Codec[T]
	cols  []string
	bv    int // blockValues

	ingest sync.Mutex // serializes Append and Compact end to end

	mu      sync.RWMutex // guards the published state below
	man     *manifest
	segs    []*segment[T]
	starts  []int64 // starts[i] = first global row of segs[i]
	rows    int64
	nextSeg uint64
	era     *epoch[T] // the current compaction era; scans pin it
	cache   *zukowski.BlockLRU
	closed  bool

	// recent holds the retained manifest generations, newest first —
	// the pruning window. Touched only single-threaded (Create/Open) or
	// under the ingest lock.
	recent []*manifest
}

// widthOf is T's element width in bytes.
func widthOf[T zukowski.Integer]() int {
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

// Create initializes dir as an empty table of the named columns and
// commits generation 1. blockValues <= 0 uses the writer default. The
// directory is created if missing; a directory that already holds a
// manifest is refused with ErrTableExists.
func Create[T zukowski.Integer](dir string, cols []string, blockValues int, opts Options) (*Table[T], error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("zktable: a table needs at least one column")
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if err := validColName(c); err != nil {
			return nil, err
		}
		if seen[c] {
			return nil, fmt.Errorf("zktable: duplicate column %q", c)
		}
		seen[c] = true
	}
	if blockValues <= 0 {
		blockValues = zukowski.DefaultBlockValues
	}
	if blockValues > zukowski.MaxBlockValues {
		return nil, fmt.Errorf("zktable: block size %d exceeds %d values", blockValues, zukowski.MaxBlockValues)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if _, ok := parseManifestName(e.Name()); ok {
			return nil, fmt.Errorf("%w: %s", ErrTableExists, filepath.Join(dir, e.Name()))
		}
	}
	t, err := newTable[T](dir, opts)
	if err != nil {
		return nil, err
	}
	t.cols = append([]string(nil), cols...)
	t.bv = blockValues
	t.man = &manifest{
		Generation:  1,
		Width:       widthOf[T](),
		BlockValues: blockValues,
		Cols:        t.cols,
	}
	t.nextSeg = 1
	if err := t.writeManifest(t.man); err != nil {
		return nil, err
	}
	t.recent = []*manifest{t.man}
	return t, nil
}

func newTable[T zukowski.Integer](dir string, opts Options) (*Table[T], error) {
	t := &Table[T]{dir: dir, opts: opts, era: new(epoch[T])}
	if opts.Codec != "" {
		c, err := zukowski.Lookup[T](opts.Codec)
		if err != nil {
			return nil, err
		}
		t.codec = c
	}
	return t, nil
}

// Open opens dir and runs startup recovery: pick the newest manifest
// that validates (falling back across damaged ones), sweep the debris
// Fsck lists (temp files, manifests not retained, segment files no
// retained manifest references), open and spot-verify every committed
// segment against the manifest's hoisted statistics, and salvage or
// quarantine segments that fail. The report says exactly what happened;
// err is non-nil only when no committed generation is servable at all.
func Open[T zukowski.Integer](dir string, opts Options) (*Table[T], *OpenReport, error) {
	t, err := newTable[T](dir, opts)
	if err != nil {
		return nil, nil, err
	}
	chosen, retained, corrupt, fellBack, err := manifestsOnDisk(dir, defaultKeep)
	rep := &OpenReport{FellBack: fellBack, CorruptManifests: corrupt}
	if err != nil {
		return nil, rep, err
	}
	if w := widthOf[T](); chosen.Width != w {
		return nil, rep, fmt.Errorf("zktable: %s stores %d-byte elements, opened as %d-byte", dir, chosen.Width, w)
	}
	rep.Generation = chosen.Generation
	rep.Rows = chosen.Rows
	rep.Segments = len(chosen.Segs)
	t.recent = retained
	if !t.opts.ReadOnly {
		rep.Swept = t.sweep()
	}

	t.man = chosen
	t.cols = chosen.Cols
	t.bv = chosen.BlockValues
	t.rows = chosen.Rows
	t.nextSeg = 1
	for i := range chosen.Segs {
		if id := chosen.Segs[i].ID; id >= t.nextSeg {
			t.nextSeg = id + 1
		}
	}

	for si := range chosen.Segs {
		sm := &chosen.Segs[si]
		seg, err := t.openSegment(sm, false)
		if err != nil && t.opts.Salvage && !t.opts.ReadOnly {
			if serr := t.salvageSegment(sm); serr == nil {
				if seg, err = t.openSegment(sm, false); err == nil {
					rep.Salvaged = append(rep.Salvaged, sm.ID)
				}
			}
		}
		if err != nil {
			quar := fmt.Errorf("%w: segment %d: %w", ErrSegmentQuarantined, sm.ID, err)
			seg = &segment[T]{id: sm.ID, rows: sm.Rows, counts: sm.Counts, quar: quar}
			rep.Quarantined = append(rep.Quarantined, SegmentFault{Seg: sm.ID, Rows: sm.Rows, Err: quar})
			rep.RowsUnavailable += sm.Rows
		}
		t.starts = append(t.starts, t.rowsBefore())
		t.segs = append(t.segs, seg)
	}
	return t, rep, nil
}

// rowsBefore is the global row offset of the next segment to be placed.
func (t *Table[T]) rowsBefore() int64 {
	if n := len(t.segs); n > 0 {
		return t.starts[n-1] + t.segs[n-1].rows
	}
	return 0
}

// openSegment opens every column of segment sm and checks it against
// sm: file size, row total, block geometry, per-block payload CRC32-C
// and zone maps. The check reads only directory metadata — payload
// verification stays lazy (per-block CRC on first read) or explicit
// (Fsck). fresh is for a segment just written: sm then takes its
// geometry and every column's statistics from the files, and the check
// holds each column to the first. Errors wrap zukowski.ErrCorruptColumn
// via their cause wherever the data itself is at fault.
func (t *Table[T]) openSegment(sm *segMeta, fresh bool) (seg *segment[T], err error) {
	seg = &segment[T]{id: sm.ID, rows: sm.Rows}
	defer func() {
		if err != nil {
			seg.close()
		}
	}()
	for ci, col := range t.cols {
		f, cr, got, err := openColumn[T](t.dir, segFileName(sm.ID, col), &t.opts)
		if err == nil {
			seg.files = append(seg.files, f)
			if fresh {
				if ci == 0 {
					sm.Counts = got.Counts
				}
				sm.Cols[ci] = got.Cols[0]
			}
			err = verifyAgainstManifest(got, sm, ci)
		}
		if err != nil {
			return seg, fmt.Errorf("column %q: %w", col, err)
		}
		if t.cache != nil {
			cr.SetBlockCache(t.cache)
		}
		seg.rdrs = append(seg.rdrs, cr)
	}
	seg.counts = sm.Counts
	seg.set, err = zukowski.NewColumnSet(seg.rdrs...)
	return seg, err
}

// salvageSegment rewrites every column file of sm through
// zukowski.RecoverColumn (readable-prefix recovery with a rebuilt
// footer). It repairs footer-level damage losslessly; whether the result
// matches the committed geometry is for openSegment to re-judge.
func (t *Table[T]) salvageSegment(sm *segMeta) error {
	for _, col := range t.cols {
		path := filepath.Join(t.dir, segFileName(sm.ID, col))
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		_, rerr := zukowski.RecoverColumnFile[T](f, st.Size(), path)
		f.Close()
		if rerr != nil {
			return rerr
		}
	}
	return nil
}

// pin returns the published state a scan runs against and pins its
// compaction era, keeping the segments' files open until the matching
// unpin even if a Compact replaces them meanwhile. The slices are never
// mutated after publication (commits replace them wholesale), so holding
// them outside the lock is safe.
func (t *Table[T]) pin() (segs []*segment[T], starts []int64, era *epoch[T], err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, nil, nil, ErrClosed
	}
	t.era.pins++
	return t.segs, t.starts, t.era, nil
}

// unpin releases a pin; the last one out of a compacted-away era closes
// its segments.
func (t *Table[T]) unpin(era *epoch[T]) {
	t.mu.Lock()
	era.pins--
	era.drain()
	t.mu.Unlock()
}

// Generation returns the committed generation scans currently see.
func (t *Table[T]) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.man.Generation
}

// Rows returns the committed row count, including quarantined segments.
func (t *Table[T]) Rows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Columns returns the column names in schema order.
func (t *Table[T]) Columns() []string { return append([]string(nil), t.cols...) }

// BlockValues returns the writer block size rows are segmented into.
func (t *Table[T]) BlockValues() int { return t.bv }

// Dir returns the table directory.
func (t *Table[T]) Dir() string { return t.dir }

// NumSegments returns the committed segment count.
func (t *Table[T]) NumSegments() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segs)
}

// SegmentRows returns segment i's committed row count and first global
// row.
func (t *Table[T]) SegmentRows(i int) (rows, firstRow int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.segs[i].rows, t.starts[i]
}

// SegmentReaders returns segment i's open column readers in schema
// order, or the quarantine error when the segment is out of service. The
// readers stay valid until the segment is compacted away or the table is
// closed.
func (t *Table[T]) SegmentReaders(i int) ([]*zukowski.ColumnReader[T], error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.segs) {
		return nil, fmt.Errorf("zktable: segment %d not in [0,%d)", i, len(t.segs))
	}
	if t.segs[i].quar != nil {
		return nil, t.segs[i].quar
	}
	return t.segs[i].rdrs, nil
}

// QuarantinedSegments lists the segments Open left out of service.
func (t *Table[T]) QuarantinedSegments() []SegmentFault {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []SegmentFault
	for _, s := range t.segs {
		if s.quar != nil {
			out = append(out, SegmentFault{Seg: s.id, Rows: s.rows, Err: s.quar})
		}
	}
	return out
}

// SetBlockCache attaches a hot-block cache to every current and future
// segment reader (see zukowski.BlockLRU). Pass nil to detach.
func (t *Table[T]) SetBlockCache(c *zukowski.BlockLRU) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cache = c
	for _, s := range t.segs {
		for _, cr := range s.rdrs {
			cr.SetBlockCache(c)
		}
	}
}

// Close releases every open segment file. Scans and writers must have
// drained; a scan started after Close fails with ErrClosed.
func (t *Table[T]) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	for _, s := range t.segs {
		s.close()
	}
	return nil
}

var _ io.Closer = (*Table[int64])(nil)
