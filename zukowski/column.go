package zukowski

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/segment"
)

// This file implements the streaming column container: a sequence of
// independently compressed blocks plus a directory footer, the multi-block
// analogue of ColumnBM's chunked storage (one segment per chunk, Section 4
// of the paper). Splitting a column into bounded blocks keeps every block
// under the 25-bit exception-offset limit, lets the analyzer re-tune
// parameters as the data drifts, and bounds the work of a point lookup.
//
// The container format is ZKC2, the one format ColumnWriter emits and
// ColumnReader reads:
//
//	header (16 B): "ZKC2", element size, reserved, block size in values
//	blocks:        one compressed frame per block, back to back
//	directory:     per block: u64 offset, u32 byte length, u32 value count,
//	               u32 CRC32-C of the frame bytes, u32 reserved,
//	               u64 min value, u64 max value (zone map, element bit pattern)
//	tail (24 B):   u64 total values, u32 block count,
//	               u32 CRC32-C of the directory bytes, u32 reserved, "ZKE2"
//
// The per-block CRC32-C turns silent bit rot into ErrChecksumMismatch at
// read time; the min/max pair per block is the zone map a Query consults
// to skip blocks without decompressing them; the directory checksum
// protects the metadata that all of this depends on. The directory lives
// at the end so the writer streams blocks without seeking; the reader
// finds it from the fixed-size tail.

const (
	columnHeaderSize = 16
	columnDirEntry   = 40
	columnTailSize   = 24

	// DefaultBlockValues is the writer's default block size: 64K values,
	// the granularity the paper suggests for sample-based analysis and
	// small enough that a block comfortably outlives its 25-bit exception
	// offsets.
	DefaultBlockValues = 64 * 1024
)

var (
	columnMagic = [4]byte{'Z', 'K', 'C', '2'}
	columnTail  = [4]byte{'Z', 'K', 'E', '2'}

	// retiredMagic opens a ZKC1 container, the layout nothing has written
	// since ZKC2 replaced it; readers refuse it by name.
	retiredMagic = [4]byte{'Z', 'K', 'C', '1'}

	// castagnoli is the CRC32-C polynomial table; hardware-accelerated on
	// amd64/arm64, which keeps the per-block checksum off the critical
	// path relative to decompression itself.
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ColumnWriter streams a column of values into an io.Writer as a sequence
// of compressed blocks. Values accumulate via Write; every full block is
// encoded with the writer's codec and flushed immediately, so memory use
// is bounded by one block regardless of column length. Close flushes the
// final partial block and appends the directory.
type ColumnWriter[T Integer] struct {
	w           io.Writer
	codec       Codec[T]
	blockValues int

	buf    []T
	frame  []byte
	check  core.Block[T] // parse target of readableFrame
	dir    []columnBlock
	offset uint64
	total  uint64
	closed bool
	err    error // first write/encode error; sticky
}

type columnBlock struct {
	offset uint64
	length uint32
	count  uint32

	// Payload checksum and zone map (element bit patterns).
	crc     uint32
	minBits uint64
	maxBits uint64
}

// NewColumnWriter starts a column on w. codec nil defaults to the
// self-tuning Auto codec; blockValues <= 0 defaults to DefaultBlockValues
// and may not exceed MaxBlockValues. The 16-byte container header is
// written immediately. The container is ZKC2 (per-block CRC32-C, zone
// maps, directory checksum).
func NewColumnWriter[T Integer](w io.Writer, codec Codec[T], blockValues int) (*ColumnWriter[T], error) {
	if blockValues <= 0 {
		blockValues = DefaultBlockValues
	}
	if blockValues > MaxBlockValues {
		return nil, fmt.Errorf("%w: block of %d values", ErrBlockTooLarge, blockValues)
	}
	if codec == nil {
		codec = Auto[T]{}
	}
	var hdr [columnHeaderSize]byte
	copy(hdr[:4], columnMagic[:])
	hdr[4] = byte(elemSize[T]())
	binary.LittleEndian.PutUint32(hdr[8:], uint32(blockValues))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &ColumnWriter[T]{
		w:           w,
		codec:       codec,
		blockValues: blockValues,
		offset:      columnHeaderSize,
	}, nil
}

// Write appends values to the column, flushing every completed block.
func (cw *ColumnWriter[T]) Write(vals []T) error {
	if cw.closed {
		return ErrClosed
	}
	if cw.err != nil {
		return cw.err
	}
	for len(vals) > 0 {
		take := min(cw.blockValues-len(cw.buf), len(vals))
		cw.buf = append(cw.buf, vals[:take]...)
		vals = vals[take:]
		if len(cw.buf) == cw.blockValues {
			if err := cw.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (cw *ColumnWriter[T]) flushBlock() error {
	frame, err := cw.codec.Encode(cw.frame[:0], cw.buf)
	if err == nil {
		if rerr := readableFrame(frame, len(cw.buf), &cw.check); rerr != nil {
			// Fail at write time if the codec emits frames ColumnReader
			// cannot decode — otherwise the column would be accepted now
			// and unreadable forever. User codecs must emit (or wrap) the
			// segment frame format.
			err = fmt.Errorf("%w: codec %q emits frames the column reader cannot decode: %w",
				ErrUnknownCodec, cw.codec.Name(), rerr)
		}
	}
	if err != nil {
		cw.err = err
		return err
	}
	cw.frame = frame // recycle the encode buffer across blocks
	lo, hi := cw.buf[0], cw.buf[0]
	for _, v := range cw.buf[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	blk := columnBlock{
		count:   uint32(len(cw.buf)),
		crc:     crc32.Checksum(frame, castagnoli),
		minBits: zoneBits(lo),
		maxBits: zoneBits(hi),
	}
	if err := cw.appendBlock(frame, blk); err != nil {
		return err
	}
	cw.buf = cw.buf[:0]
	return nil
}

// readableFrame checks that frame is one ColumnReader decodes as a block
// of want values: a segment frame of that count (parseFrame), and when
// patched one whose every patch list stays in its group, as a read walks
// it. It is the check every written, spliced or verified frame passes, so
// the offline checks refuse what reads refuse: ErrCorruptSegment for a
// frame no read decodes, ErrCorruptColumn for one of another count.
func readableFrame[T Integer](frame []byte, want int, blk *core.Block[T]) (err error) {
	patched, err := parseFrame(blk, frame, want)
	if err != nil || !patched {
		return err
	}
	defer guardSegment(&err)
	blk.CheckExceptions()
	return nil
}

// parseFrame parses frame, which its directory entry says holds want
// values, into blk when it is patched, and reports whether it is; a raw
// frame's header is checked in place. A frame that does not parse is
// ErrCorruptSegment, one of any other count ErrCorruptColumn. A
// container's frames parse trusted: the reader verifies a hardware
// CRC32-C over every frame before it is used, which makes the segment's
// own byte-wise FNV checksum a redundant second pass over the same bytes
// (skipping it roughly doubles scan bandwidth on patched columns).
// FrameDecoder, whose frames come with no container checksum, keeps it.
func parseFrame[T Integer](blk *core.Block[T], frame []byte, want int) (patched bool, err error) {
	n := 0
	if patched = segment.IsCompressed(frame); patched {
		if err := segment.UnmarshalIntoTrusted(blk, frame); err != nil {
			return false, corrupt(err)
		}
		n = blk.N
	} else if n, err = rawHeader[T](frame); err != nil {
		return false, err
	}
	if n != want {
		return false, fmt.Errorf("%w: frame holds %d values, directory says %d", ErrCorruptColumn, n, want)
	}
	return patched, nil
}

// appendBlock writes one frame to the stream and enters blk — its count,
// checksum and zone map filled in by the caller — into the directory at
// the frame's extent. A write error is sticky.
func (cw *ColumnWriter[T]) appendBlock(frame []byte, blk columnBlock) error {
	if _, err := cw.w.Write(frame); err != nil {
		cw.err = err
		return err
	}
	blk.offset, blk.length = cw.offset, uint32(len(frame))
	cw.dir = append(cw.dir, blk)
	cw.offset += uint64(len(frame))
	cw.total += uint64(blk.count)
	return nil
}

// WriteFrame appends one block that is already encoded: frame is written
// as it stands and info — the directory entry it had in the container it
// comes from (ColumnReader.BlockInfo) — supplies the new entry's count,
// CRC32-C and zone map, so a block moves between containers without being
// decoded. This is how zktable compacts block-aligned segments.
//
// Nothing unverified gets a fresh directory entry: WriteFrame hashes frame
// and refuses it with ErrChecksumMismatch when that differs from
// info.CRC32C. It also refuses a frame ColumnReader could not decode,
// and anything that would break the container's geometry — values still
// buffered by Write, or a count other than the writer's block size; a
// column's short last block has to arrive through Write. A refusal changes
// nothing: the writer is as usable as before the call.
func (cw *ColumnWriter[T]) WriteFrame(frame []byte, info BlockInfo[T]) error {
	if cw.closed {
		return ErrClosed
	}
	if cw.err != nil {
		return cw.err
	}
	switch {
	case len(cw.buf) > 0:
		return fmt.Errorf("zukowski: WriteFrame with %d values buffered mid-block", len(cw.buf))
	case info.Count != cw.blockValues:
		return fmt.Errorf("zukowski: WriteFrame of a %d-value block into a column of %d-value blocks",
			info.Count, cw.blockValues)
	}
	if err := readableFrame(frame, info.Count, &cw.check); err != nil {
		return fmt.Errorf("%w: frame the column reader cannot decode: %w", ErrUnknownCodec, err)
	}
	if err := checkCRC(frame, info.CRC32C, len(cw.dir)); err != nil {
		return err
	}
	return cw.appendBlock(frame, columnBlock{
		count:   uint32(info.Count),
		crc:     info.CRC32C,
		minBits: zoneBits(info.Min),
		maxBits: zoneBits(info.Max),
	})
}

// Close flushes the final partial block and writes the directory footer.
// Closing an already-closed writer is a no-op.
func (cw *ColumnWriter[T]) Close() error {
	if cw.closed {
		return nil
	}
	if cw.err != nil {
		return cw.err
	}
	if len(cw.buf) > 0 {
		if err := cw.flushBlock(); err != nil {
			return err
		}
	}
	cw.closed = true
	_, err := cw.w.Write(appendFooter(nil, cw.dir, cw.total))
	if err != nil {
		cw.err = err
	}
	return err
}

// appendFooter serializes the ZKC2 directory and tail of a container — the
// format authority shared by ColumnWriter.Close and RecoverColumn.
func appendFooter(footer []byte, dir []columnBlock, total uint64) []byte {
	footer = slices.Grow(footer, len(dir)*columnDirEntry+columnTailSize)
	dirStart := len(footer)
	for _, blk := range dir {
		var ent [columnDirEntry]byte
		binary.LittleEndian.PutUint64(ent[:], blk.offset)
		binary.LittleEndian.PutUint32(ent[8:], blk.length)
		binary.LittleEndian.PutUint32(ent[12:], blk.count)
		binary.LittleEndian.PutUint32(ent[16:], blk.crc)
		binary.LittleEndian.PutUint64(ent[24:], blk.minBits)
		binary.LittleEndian.PutUint64(ent[32:], blk.maxBits)
		footer = append(footer, ent[:]...)
	}
	dirCRC := crc32.Checksum(footer[dirStart:], castagnoli)
	var tail [columnTailSize]byte
	binary.LittleEndian.PutUint64(tail[:], total)
	binary.LittleEndian.PutUint32(tail[8:], uint32(len(dir)))
	binary.LittleEndian.PutUint32(tail[12:], dirCRC)
	copy(tail[20:], columnTail[:])
	return append(footer, tail[:]...)
}

// Len returns the number of values written so far, including buffered ones.
func (cw *ColumnWriter[T]) Len() int { return int(cw.total) + len(cw.buf) }

// NumBlocks returns the number of blocks flushed so far.
func (cw *ColumnWriter[T]) NumBlocks() int { return len(cw.dir) }

// CompressedBytes returns the container bytes written so far (header and
// flushed blocks; the directory is counted only after Close).
func (cw *ColumnWriter[T]) CompressedBytes() int {
	n := int(cw.offset)
	if cw.closed {
		n += len(cw.dir)*columnDirEntry + columnTailSize
	}
	return n
}

// columnSource abstracts where container bytes come from: a []byte held
// in memory, or an io.ReaderAt fetched lazily block by block.
type columnSource interface {
	// view returns n bytes at off. A byte-backed source returns a
	// subslice of the original data and ignores dst; a ReaderAt-backed
	// source reads into dst, grown to n bytes when it is shorter (a nil
	// dst yields a fresh buffer the caller may retain).
	view(dst []byte, off int64, n int) ([]byte, error)
	size() int64
	// stable reports whether repeated views of the same range return the
	// same bytes (true for in-memory data, false for a ReaderAt, whose
	// backing file can change or rot between reads). Only stable sources
	// may memoize a passed checksum.
	stable() bool
}

type byteSource []byte

func (s byteSource) size() int64 { return int64(len(s)) }

func (s byteSource) stable() bool { return true }

func (s byteSource) view(_ []byte, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > int64(len(s)) {
		return nil, fmt.Errorf("%w: read of [%d,%d) beyond %d bytes", ErrCorruptColumn, off, off+int64(n), len(s))
	}
	return s[off : off+int64(n)], nil
}

type readerAtSource struct {
	r io.ReaderAt
	n int64
}

func (s *readerAtSource) size() int64 { return s.n }

func (s *readerAtSource) stable() bool { return false }

func (s *readerAtSource) view(dst []byte, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > s.n {
		return nil, fmt.Errorf("%w: read of [%d,%d) beyond %d bytes", ErrCorruptColumn, off, off+int64(n), s.n)
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	// ReadAt fills dst completely or says why not; a full read may still
	// come with io.EOF when it ends at the end of the source.
	if got, err := s.r.ReadAt(dst, off); got < n {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		// ErrIO marks the failure as transient-class (the bytes never
		// arrived) for the retry path; ErrCorruptColumn stays in the chain
		// as the umbrella every container failure matches.
		return nil, fmt.Errorf("%w: %w reading [%d,%d): %w", ErrCorruptColumn, ErrIO, off, off+int64(n), err)
	}
	return dst, nil
}

// ColumnReader reads a column container. Point lookups locate the
// enclosing block through the directory and then use the fine-grained
// entry-point access of the patched schemes.
//
// Every access path turns a frame into a block one way (block), and a
// block's parsed form is kept only beside bytes that stay resident: an
// in-memory reader keeps one per patched block it has touched, for its
// life, as its container bytes live; a file-backed reader with a BlockLRU
// keeps it in the cache beside the frame, under the cache's budget; a
// file-backed reader without one keeps nothing and parses on every touch.
//
// A ColumnReader is safe for concurrent use: all per-block state lives in
// atomic slots (the first form stored in a slot wins, and a cache fill is
// singleflighted), and decode scratch comes from an internal pool. Any mix
// of Get, Scan, ReadBlock, ReadAll and Query scans over ColumnSets holding
// the reader, parallel ones included, may share one reader over one set of
// bytes or one io.ReaderAt — the multi-core scan path the paper's
// RAM-bandwidth decompression asks for.
//
// The reader offers the paper's access paths over one column: a block
// decode (ReadBlock), a full scan (Scan, ReadAll) and a fine-grained point
// lookup (Get). A filtered, aggregating, degraded or parallel scan of the
// column is a Query on NewColumnSet(cr).
type ColumnReader[T Integer] struct {
	src    columnSource
	blocks []columnBlock
	starts []int // starts[i] = first row of block i; len = len(blocks)+1
	total  int

	// fixedBlock is the writer's uniform block size when every block but
	// the last holds exactly that many values (true of every container our
	// writer produces); Get then locates a row's block with one division.
	// 0 means irregular: fall back to binary search over starts.
	fixedBlock int

	// slots holds the per-block concurrent state, indexed like blocks.
	slots []blockSlot[T]

	// cache, when attached, holds verified frame bytes for file-backed
	// sources, keyed by a process-unique column id — see SetBlockCache.
	cache atomic.Pointer[attachedCache]

	// retry bounds re-reads of transient source I/O failures — see
	// RetryPolicy. The zero value performs no retries.
	retry RetryPolicy

	// states pools decode scratch (*decodeState[T]). A scan holds one
	// state for its whole pass, so steady-state scans allocate nothing.
	states sync.Pool
}

// blockSlot is one block's share of the reader's concurrent state.
type blockSlot[T Integer] struct {
	// form is the parsed, indexed form of a patched block of an in-memory
	// source, kept beside bytes that live as long as the reader. Readers
	// load it lock-free; of racing first parses, the first stored wins.
	form atomic.Pointer[core.Block[T]]

	// verified latches a passed CRC32-C check. Only set for stable
	// sources: a ReaderAt re-reads bytes on every view, so every fetch is
	// re-verified.
	verified atomic.Bool

	// mu singleflights the fill of an attached cache with this block, so
	// under contention the source is read once. Contention is confined to
	// a block's misses; hits take no slot lock.
	mu sync.Mutex

	// quar latches the block's permanent failure: a checksum mismatch that
	// survived a re-read. Once set, every fetch of the block fails fast
	// with the latched error — see RetryPolicy's package comments.
	quar atomic.Pointer[error]
}

// decodeState is the per-worker scratch of the decode paths: a Decoder
// (bit-unpack and selection scratch), a reusable segment parse target, the
// vector buffer scans hand to fn and the run the read fetches frames
// through (see frame). States cycle through the reader's pool, never shared
// between two goroutines at once.
type decodeState[T Integer] struct {
	dec  core.Decoder[T]
	blk  core.Block[T]
	vals []T
	run  frameRun
}

func (cr *ColumnReader[T]) getState() *decodeState[T] {
	if st, ok := cr.states.Get().(*decodeState[T]); ok {
		return st
	}
	return new(decodeState[T])
}

// putState returns st to the pool, and its run's buffer to its own.
func (cr *ColumnReader[T]) putState(st *decodeState[T]) {
	st.run.release()
	cr.states.Put(st)
}

// ReaderOption configures a ColumnReader beyond the required arguments.
type ReaderOption func(*readerConfig)

type readerConfig struct {
	cache *BlockLRU
	retry RetryPolicy
}

// WithBlockCache attaches a hot-block cache at open time; equivalent to
// calling SetBlockCache on the opened reader. Only file-backed readers
// (OpenColumnReaderAt) use the cache — an in-memory container is already
// resident and latches its verification per block — so the option is a
// no-op for OpenColumn.
func WithBlockCache(c *BlockLRU) ReaderOption {
	return func(rc *readerConfig) { rc.cache = c }
}

// OpenColumn parses a container produced by ColumnWriter. The bytes are
// retained (not copied); they must stay immutable while the reader lives.
// Beside them the reader keeps the parsed form of every patched block any
// access path has read, one per block, until the reader is dropped: its
// header, entry points, exceptions and their index, and its codes, which
// read the container in place where the host allows it.
func OpenColumn[T Integer](data []byte, opts ...ReaderOption) (*ColumnReader[T], error) {
	return openColumn[T](byteSource(data), opts)
}

// OpenColumnReaderAt opens a container through an io.ReaderAt of the given
// total size, fetching the header and directory eagerly but block frames
// lazily — a column far larger than RAM streams through Scan one block at
// a time, the way ColumnBM pages chunks through its buffer manager. The
// ReaderAt must allow concurrent-safe reads at arbitrary offsets (os.File,
// bytes.Reader and mmap wrappers all qualify).
//
// Without a block cache every touch of a block, Get included, re-reads,
// re-verifies and re-parses its bytes from the ReaderAt, and the reader
// keeps nothing of it — a sequential Query scan reads the frames it is
// about to need in runs of adjacent frames, one ReadAt each, the other
// access paths one frame at a time; WithBlockCache keeps the hot working
// set resident, frames and their parsed forms — see BlockLRU.
func OpenColumnReaderAt[T Integer](r io.ReaderAt, size int64, opts ...ReaderOption) (*ColumnReader[T], error) {
	return openColumn[T](&readerAtSource{r: r, n: size}, opts)
}

// checkMagic refuses a header that does not open a ZKC2 container.
func checkMagic(hdr []byte) error {
	switch [4]byte(hdr[:4]) {
	case columnMagic:
		return nil
	case retiredMagic:
		return fmt.Errorf("%w: a ZKC1 container, a retired format this build does not read; "+
			"rewrite it with an earlier build", ErrCorruptColumn)
	}
	return fmt.Errorf("%w: bad header magic", ErrCorruptColumn)
}

func openColumn[T Integer](src columnSource, opts []ReaderOption) (*ColumnReader[T], error) {
	size := src.size()
	if size < columnHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptColumn, size)
	}
	hdr, err := src.view(nil, 0, columnHeaderSize)
	if err != nil {
		return nil, err
	}
	if err := checkMagic(hdr); err != nil {
		return nil, err
	}
	if int(hdr[4]) != elemSize[T]() {
		return nil, fmt.Errorf("%w: element size %d, reading as %d", ErrCorruptColumn, hdr[4], elemSize[T]())
	}
	if size < columnHeaderSize+columnTailSize {
		return nil, fmt.Errorf("%w: %d bytes too small for the tail", ErrCorruptColumn, size)
	}
	tail, err := src.view(nil, size-columnTailSize, columnTailSize)
	if err != nil {
		return nil, err
	}
	if [4]byte(tail[20:]) != columnTail {
		return nil, fmt.Errorf("%w: bad tail magic", ErrCorruptColumn)
	}
	total := binary.LittleEndian.Uint64(tail)
	numBlocks := int(binary.LittleEndian.Uint32(tail[8:]))
	dirCRC := binary.LittleEndian.Uint32(tail[12:])
	dirStart := size - columnTailSize - int64(numBlocks)*columnDirEntry
	if numBlocks < 0 || dirStart < columnHeaderSize {
		return nil, fmt.Errorf("%w: directory of %d blocks does not fit", ErrCorruptColumn, numBlocks)
	}
	dir, err := src.view(nil, dirStart, numBlocks*columnDirEntry)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(dir, castagnoli); got != dirCRC {
		return nil, fmt.Errorf("%w: %w over directory (stored %08x, computed %08x)",
			ErrCorruptColumn, ErrChecksumMismatch, dirCRC, got)
	}
	cr := &ColumnReader[T]{
		src:    src,
		blocks: make([]columnBlock, numBlocks),
		starts: make([]int, numBlocks+1),
		total:  int(total),
		slots:  make([]blockSlot[T], numBlocks),
	}
	rows, nextOffset := 0, uint64(columnHeaderSize)
	for i := range cr.blocks {
		ent := dir[i*columnDirEntry:]
		blk := columnBlock{
			offset:  binary.LittleEndian.Uint64(ent),
			length:  binary.LittleEndian.Uint32(ent[8:]),
			count:   binary.LittleEndian.Uint32(ent[12:]),
			crc:     binary.LittleEndian.Uint32(ent[16:]),
			minBits: binary.LittleEndian.Uint64(ent[24:]),
			maxBits: binary.LittleEndian.Uint64(ent[32:]),
		}
		if blk.offset != nextOffset || blk.offset+uint64(blk.length) > uint64(dirStart) {
			return nil, fmt.Errorf("%w: block %d escapes the data area", ErrCorruptColumn, i)
		}
		cr.blocks[i] = blk
		cr.starts[i] = rows
		rows += int(blk.count)
		nextOffset += uint64(blk.length)
	}
	cr.starts[numBlocks] = rows
	if rows != cr.total {
		return nil, fmt.Errorf("%w: directory counts %d values, tail says %d", ErrCorruptColumn, rows, cr.total)
	}
	var cfg readerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.cache != nil {
		cr.SetBlockCache(cfg.cache)
	}
	cr.retry = cfg.retry
	// Detect the writer's uniform block size so Get can locate a row's
	// block with one division: every block but the last must hold exactly
	// the header's block size, and the last no more (a crafted directory
	// violating either falls back to binary search).
	if bv := int(binary.LittleEndian.Uint32(hdr[8:])); bv > 0 {
		regular := true
		for i, blk := range cr.blocks {
			last := i == numBlocks-1
			if (!last && int(blk.count) != bv) || (last && int(blk.count) > bv) {
				regular = false
				break
			}
		}
		if regular {
			cr.fixedBlock = bv
		}
	}
	return cr, nil
}

// Len returns the number of values in the column.
func (cr *ColumnReader[T]) Len() int { return cr.total }

// NumBlocks returns the number of blocks.
func (cr *ColumnReader[T]) NumBlocks() int { return len(cr.blocks) }

// CompressedBytes returns the container size in bytes.
func (cr *ColumnReader[T]) CompressedBytes() int { return int(cr.src.size()) }

// UncompressedBytes returns the size the values occupy uncoded.
func (cr *ColumnReader[T]) UncompressedBytes() int { return cr.total * elemSize[T]() }

// Ratio returns the column-wide compression ratio.
func (cr *ColumnReader[T]) Ratio() float64 {
	if cr.src.size() == 0 {
		return 0
	}
	return float64(cr.UncompressedBytes()) / float64(cr.src.size())
}

// attachedCache pairs a BlockLRU with the column id this reader keys it
// under; the pair swaps atomically so attachment is race-free.
type attachedCache struct {
	c  *BlockLRU
	id uint64
}

// fetched is a frame as a fetch hands it over: the bytes and, when they
// were hit in a cache that keeps parsed forms, the parsed form resident
// beside them if one has been attached, and the bytes the cache has to
// spare for one (room; none when 0 or less).
type fetched struct {
	frame  []byte
	parsed any
	room   int64
}

// get asks the cache for block b: one hit or one miss counted.
func (ac *attachedCache) get(b int) (f fetched) {
	f.frame, f.parsed, f.room = ac.c.lookup(ac.id, b)
	return f
}

// resident reports whether block b is cached; a read-ahead stops there.
func (ac *attachedCache) resident(b int) bool { return ac.c.peek(ac.id, b) != nil }

// SetBlockCache attaches c as this reader's hot-block cache, or
// detaches with nil. Only file-backed readers use a cache — in-memory
// sources are already resident and latch their verification per block —
// so the call is a no-op on a reader opened with OpenColumn.
//
// The reader keys the cache by a process-unique column id assigned at
// attach time and never reused, so entries of a detached or discarded
// reader can never be observed again; under the immutable-container
// model a cached frame cannot go stale, only get evicted. Attaching is
// safe at any time, including while scans run on other goroutines.
func (cr *ColumnReader[T]) SetBlockCache(c *BlockLRU) {
	if c == nil {
		cr.cache.Store(nil)
		return
	}
	if cr.src.stable() {
		return
	}
	cr.cache.Store(&attachedCache{c: c, id: blockCacheIDs.Add(1)})
}

// checkCRC verifies buf against block b's stored payload CRC32-C.
func checkCRC(buf []byte, want uint32, b int) error {
	if got := crc32.Checksum(buf, castagnoli); got != want {
		return fmt.Errorf("%w: %w over block %d payload (stored %08x, computed %08x)",
			ErrCorruptColumn, ErrChecksumMismatch, b, want, got)
	}
	return nil
}

// verify checks block b's frame against its stored checksum, latching the
// pass for stable sources.
func (cr *ColumnReader[T]) verify(frame []byte, b int) error {
	if err := checkCRC(frame, cr.blocks[b].crc, b); err != nil {
		return err
	}
	if cr.src.stable() {
		cr.slots[b].verified.Store(true)
	}
	return nil
}

// runCap bounds one run: a sequential scan that misses a frame reads at
// most this many bytes from the start of that frame on (the missed frame
// itself whatever its size). 256 KiB is tens of 4,096-value frames, few
// enough to stay in L2 while they are checked and decoded.
const runCap = 256 << 10

// runBufs and frameBufs hold the buffers runs are read into, shared by
// every reader of the process, so a column costs a buffer only while a read
// holds it: a read takes one per file-backed column at its first fetch
// there and puts it back when it ends, a sequential scan at the end of its
// pass. A run of several frames takes a runCap buffer from runBufs; a run
// of one frame (every read without a plan, Run's workers included) takes
// one from frameBufs, which grows to the frames read into it. release
// sorts a buffer back by its capacity.
var (
	runBufs = sync.Pool{New: func() any {
		buf := make([]byte, 0, runCap)
		return &buf
	}}
	frameBufs = sync.Pool{New: func() any { return new([]byte) }}
)

// frameRun is one column's read-ahead within one read: the frames of blocks
// [first, end), as one fetch left them back to back in *buf. A run belongs
// to the read that holds it — it is never shared — and the frames it holds
// are borrowed: valid until the read fetches the column's next run, which
// a scan does only between blocks. Nothing that outlives a block may keep
// them.
type frameRun struct {
	buf        *[]byte // from runBufs; nil until the column's first fetch
	first, end int
}

// holds reports whether the run holds block b's frame.
func (r *frameRun) holds(b int) bool { return b >= r.first && b < r.end }

// release returns the run's buffer to its pool.
func (r *frameRun) release() {
	if r.buf != nil {
		if cap(*r.buf) >= runCap {
			runBufs.Put(r.buf)
		} else {
			frameBufs.Put(r.buf)
		}
		r.buf = nil
	}
	r.first, r.end = 0, 0
}

// frame is the one way a read gets block b's frame. The read holds run for
// this column and will read the column's block k wherever reads.has(k)
// holds (a zero planned: block b alone).
//
// An in-memory source hands out its own bytes, checked once: the first pass
// of the CRC latches, and a mismatch is proven permanent and quarantined.
// It never touches run.
//
// A file-backed frame comes from the attached cache (one hit or one miss
// counted), else from run, reading a new run from b first when run does not
// hold it. That read is the cache's fill: under b's slot mutex, which
// re-checks the cache uncounted first, so concurrent reads of a missed
// block read the source once. The mutex covers the whole run, so a read
// waiting on b waits for every frame the run reads ahead and for the
// read's retries. Every frame taken from a run is CRC-checked before use
// and, with a cache, then offered to it (the cache copies what it admits).
// A frame that fails its check cuts the run before it: one
// re-read of that frame alone, then quarantine. So a torn run quarantines
// exactly the bad frame, and a frame read ahead but never taken reports
// nothing.
//
// The frame is read-only, and borrowed when run holds b after the call:
// valid only for this block. Otherwise it is the caller's to keep: the
// container's bytes, the cache's or a re-read's.
func (cr *ColumnReader[T]) frame(run *frameRun, b int, reads planned) (f fetched, err error) {
	if err := cr.quarantined(b); err != nil {
		return f, err
	}
	if cr.src.stable() {
		// byteSource.view ignores dst and returns the container's own
		// bytes, which must never become a run's buffer.
		f.frame, err = cr.readFrames(nil, b, b+1)
		if err == nil && !cr.slots[b].verified.Load() {
			if err = cr.verify(f.frame, b); err != nil {
				f.frame, err = cr.reread(nil, b, err)
			}
		}
		return f, err
	}
	ac := cr.cache.Load()
	if ac != nil {
		if f = ac.get(b); f.frame != nil {
			return f, nil
		}
	}
	if !run.holds(b) {
		if ac != nil {
			slot := &cr.slots[b]
			slot.mu.Lock()
			defer slot.mu.Unlock()
			// The miss is counted: the re-check peeks, so a fill counts one
			// miss, not two.
			if f.frame = ac.c.peek(ac.id, b); f.frame != nil {
				return f, nil
			}
		}
		if err := cr.readRun(run, b, reads, ac); err != nil {
			return f, err
		}
	}
	blk := cr.blocks[b]
	lo := blk.offset - cr.blocks[run.first].offset
	f.frame = (*run.buf)[lo : lo+uint64(blk.length)]
	if err := cr.verify(f.frame, b); err != nil {
		run.end = b
		if f.frame, err = cr.reread(nil, b, err); err != nil {
			return f, err
		}
	}
	if ac != nil {
		ac.c.Put(ac.id, b, f.frame)
	}
	return f, nil
}

// readRun refills run with one fetch: block b's frame and those of the
// blocks after it that the scan will read (reads), up to the first block
// the cache holds and within runCap bytes. A run of several frames that
// cannot be read after the retries is cut to a run of one, so that an
// unreadable neighbour costs block b nothing.
func (cr *ColumnReader[T]) readRun(run *frameRun, b int, reads planned, ac *attachedCache) error {
	limit := cr.blocks[b].offset + runCap
	end := b + 1
	for end < len(cr.blocks) && reads.has(end) &&
		cr.blocks[end].offset+uint64(cr.blocks[end].length) <= limit &&
		(ac == nil || !ac.resident(end)) {
		end++
	}
	if run.buf != nil && end > b+1 && cap(*run.buf) < runCap {
		run.release()
	}
	if run.buf == nil {
		if end > b+1 {
			run.buf = runBufs.Get().(*[]byte)
		} else {
			run.buf = frameBufs.Get().(*[]byte)
		}
	}
	run.first, run.end = b, b
	buf, err := cr.fetch(*run.buf, b, end)
	if err != nil && end > b+1 {
		end = b + 1
		buf, err = cr.fetch(*run.buf, b, end)
	}
	if err != nil {
		return err
	}
	*run.buf = buf
	run.end = end
	return nil
}

// block fetches block b through run (see frame) and returns its parsed
// form when the frame is patched, or the frame itself when it is raw. It is
// the one place a read turns a frame into a block, and every frame it
// returns holds the values the directory counts (parseFrame).
//
// A parsed form is kept only beside resident bytes, parsed into a block of
// its own with its exceptions indexed, and shared, read-only, by every read
// after. An in-memory source keeps it in the block's slot. A frame resident
// in the cache comes with the form parsed beside it; the first hit to find
// it without one, and the room for one, parses and attaches it, so a
// resident block is parsed once per residency. Indexing walks every patch
// list whole, so a list that leaves its group fails the read there, as the
// kernels' walk fails one over any other frame: no block is kept
// unindexed. Any other frame is parsed into scratch, as every fetch of it
// will be.
func (cr *ColumnReader[T]) block(run *frameRun, b int, reads planned, scratch *core.Block[T]) (blk *core.Block[T], raw []byte, err error) {
	slot := &cr.slots[b]
	if p := slot.form.Load(); p != nil {
		return p, nil, nil
	}
	f, err := cr.frame(run, b, reads)
	if err != nil {
		return nil, nil, err
	}
	if p, ok := f.parsed.(*core.Block[T]); ok {
		return p, nil, nil
	}
	stable := cr.src.stable()
	if stable && segment.IsCompressed(f.frame) {
		scratch = new(core.Block[T]) // the form kept
	}
	patched, err := parseFrame(scratch, f.frame, int(cr.blocks[b].count))
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("block %d: %w", b, err)
	case !patched:
		return nil, f.frame, nil
	case stable:
		scratch.IndexExceptions()
		if !slot.form.CompareAndSwap(nil, scratch) {
			return slot.form.Load(), nil, nil
		}
		return scratch, nil, nil
	}
	if f.room <= 0 {
		return scratch, nil, nil
	}
	ac, cost := cr.cache.Load(), parsedCost(scratch, f.frame)
	if ac == nil || cost > f.room {
		return scratch, nil, nil
	}
	// The scratch goes on to the next block, so the form kept is a parse of
	// its own: a second parse of these bytes, paid once per residency.
	kept := new(core.Block[T])
	if _, err := parseFrame(kept, f.frame, scratch.N); err != nil {
		return scratch, nil, nil
	}
	kept.IndexExceptions()
	if p, ok := ac.c.attach(ac.id, b, f.frame, kept, cost).(*core.Block[T]); ok {
		return p, nil, nil
	}
	return scratch, nil, nil
}

// parsedCost is what a cache charges for keeping blk, indexed, beside
// frame, the frame it was parsed from: the Block itself and the sections
// it owns — exceptions, the 1<<B dictionary, entry points, totals, the
// exception index (a byte per exception), and the codes when it had to
// copy them instead of reading the frame in place.
func parsedCost[T Integer](blk *core.Block[T], frame []byte) int64 {
	n := int(unsafe.Sizeof(*blk)) + (len(blk.Exc)+len(blk.Dict)+len(blk.Totals))*elemSize[T]() +
		4*len(blk.Entries) + len(blk.Exc)
	start := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	if codes := uintptr(unsafe.Pointer(unsafe.SliceData(blk.Codes))); codes < start || codes >= start+uintptr(len(frame)) {
		n += 4 * len(blk.Codes)
	}
	return int64(n)
}

// readBlockInto decodes block b (see block) with st's scratch, appending
// its values to dst.
func (cr *ColumnReader[T]) readBlockInto(st *decodeState[T], b int, dst []T) (out []T, err error) {
	defer guardSegment(&err)
	blk, raw, err := cr.block(&st.run, b, planned{}, &st.blk)
	if err != nil {
		return nil, err
	}
	if raw != nil {
		return rawAppend[T](dst, raw)
	}
	out, tail := grow(dst, blk.N)
	st.dec.Decompress(blk, tail)
	return out, nil
}

// FrameBytes returns block b's raw compressed frame bytes, verified
// against the container's stored checksum. The
// returned slice is shared — with the container bytes, with the block
// cache, with other callers — and must be treated as read-only. This is
// the block-granular serve path: a service that ships raw frames to
// clients (zkserve's frame mode) reads them here, so an attached
// BlockLRU serves repeated requests without re-reading the source.
func (cr *ColumnReader[T]) FrameBytes(b int) ([]byte, error) {
	if b < 0 || b >= len(cr.blocks) {
		return nil, fmt.Errorf("%w: block %d not in [0,%d)", ErrIndexOutOfRange, b, len(cr.blocks))
	}
	// A run of its own: FrameBytes decodes nothing, so it takes no state.
	var run frameRun
	defer run.release()
	f, err := cr.frame(&run, b, planned{})
	if err != nil || !run.holds(b) {
		return f.frame, err
	}
	// The frame is borrowed from the run: hand out the copy the cache kept,
	// or one of the caller's own when the cache declined it or none is
	// attached.
	if ac := cr.cache.Load(); ac != nil {
		if kept := ac.c.peek(ac.id, b); kept != nil {
			return kept, nil
		}
	}
	return slices.Clone(f.frame), nil
}

// ReadAll appends every value of the column to dst, pre-sized from the
// directory's total count so the block loop never regrows it.
func (cr *ColumnReader[T]) ReadAll(dst []T) ([]T, error) {
	dst = slices.Grow(dst, cr.total)
	st := cr.getState()
	defer cr.putState(st)
	var err error
	for i := range cr.blocks {
		if dst, err = cr.readBlockInto(st, i, dst); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// ReadBlock appends the values of block b to dst. Together with
// NumBlocks it lets callers zip several same-shaped columns through a
// query in lockstep, one cache-friendly vector at a time.
func (cr *ColumnReader[T]) ReadBlock(b int, dst []T) ([]T, error) {
	if b < 0 || b >= len(cr.blocks) {
		return nil, fmt.Errorf("%w: block %d not in [0,%d)", ErrIndexOutOfRange, b, len(cr.blocks))
	}
	st := cr.getState()
	defer cr.putState(st)
	return cr.readBlockInto(st, b, dst)
}

// Scan decodes the column block by block, invoking fn with each decoded
// vector. The vector is reused between calls; fn must copy values it
// keeps. Scanning stops early when fn returns false. Scan is fail-stop: the
// first unreadable block ends it with that block's error. A degraded
// whole-column read is Run on NewColumnSet(cr) with Query.SkipCorrupt.
//
// The scan holds one pooled decode state for its whole pass, so a warmed
// sequential scan performs no heap allocation; concurrent scans on one
// shared reader each draw their own state.
func (cr *ColumnReader[T]) Scan(fn func(vals []T) bool) error {
	st := cr.getState()
	defer cr.putState(st)
	for i := range cr.blocks {
		vals, err := cr.readBlockInto(st, i, st.vals[:0])
		if err != nil {
			return err
		}
		st.vals = vals
		if !fn(vals) {
			return nil
		}
	}
	return nil
}

// blockOf returns the block containing row i (i must be in range). Columns
// with a uniform block size — every container our writer produces —
// resolve with one division; irregular directories fall back to binary
// search for the last block starting at or before i.
func (cr *ColumnReader[T]) blockOf(i int) int {
	if cr.fixedBlock > 0 {
		return i / cr.fixedBlock
	}
	return sort.SearchInts(cr.starts, i+1) - 1
}

// Get returns the value at row i, read through block: for a patched frame
// by the entry-point fine-grained access path (at most one 128-value group
// is touched), for a raw frame in place. Get keeps what block keeps, so
// on an in-memory reader and on a cached block it parses nothing, and on
// an uncached file-backed reader every call fetches, verifies and parses
// the block.
func (cr *ColumnReader[T]) Get(i int) (v T, err error) {
	defer guardSegment(&err)
	if i < 0 || i >= cr.total {
		return v, fmt.Errorf("%w: %d not in [0,%d)", ErrIndexOutOfRange, i, cr.total)
	}
	b := cr.blockOf(i)
	st := cr.getState()
	defer cr.putState(st)
	blk, raw, err := cr.block(&st.run, b, planned{}, &st.blk)
	if err != nil {
		return v, err
	}
	if raw != nil {
		return rawGet[T](raw, i-cr.starts[b])
	}
	return st.dec.Get(blk, i-cr.starts[b]), nil
}
