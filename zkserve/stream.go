package zkserve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/zukowski"
)

// Wire formats. A row scan answers in one of two encodings of the same
// rows, chosen by the request's Accept header; frame mode ships stored
// frames. Each stream ends in an in-band trailer saying whether it is
// complete, truncated by a budget, or killed by an error, because the 200
// status is committed before the scan runs. The binary streams are
// little-endian, and a stream that ends without its trailer was cut.
//
// Binary rows (MIMEBinaryRows, "ZKR1") carry each block's selected rows
// as columns at the table's element width, so no value becomes text:
//
//	header:  "ZKR1", u8 version (1), u8 reserved, u16 numCols (≥ 1),
//	         then per column: u8 widthBytes, u8 reserved, u16 nameLen, name
//	block:   u32 count (1 … MaxBlockValues), u8 rowsKind, u64 firstRow,
//	         rowsKind 0 (run):  nothing; the rows are firstRow … firstRow+count−1
//	         rowsKind 1 (list): count × u32 ascending offsets from firstRow
//	         then per column: count values of widthBytes bytes each, signed
//	trailer: u32 0xFFFFFFFF, u8 status, u64 rows, u32 blocksSkipped,
//	         u64 rowsLost, u16 msgLen, msg, u64 elapsedNanos
//
// Its header and its trailer up to msg are the frame stream's (version 2)
// and share its code. A truncated trailer's msg names the budget, "rows"
// or "bytes"; an error trailer's is the error.
//
// NDJSON rows (MIMERows, every other Accept) are the same rows as text
// for curl and jq: a header object, one [rowNumber, col0, col1, ...]
// array per row, then a trailer object.
//
//	{"table":"demo","cols":["a","b"]}
//	[17,3,40]
//	{"done":true,"rows":1,"elapsed_ms":1.8}
//
// Frame mode (MIMEFrames, "ZKS1") ships the raw compressed block frames
// of the requested columns, zone-map-pruned but not decoded: the client
// decodes with zukowski.FrameDecoder and applies the exact predicate
// itself, paying CPU where the paper says it belongs — at the consumer.
//
//	header:  "ZKS1", u8 version, u8 reserved, u16 numCols,
//	         then per column: u8 widthBytes, u8 reserved, u16 nameLen, name
//	block:   u32 blockIndex, u64 firstRow, u32 rowCount,
//	         then per column: u32 frameLen, frame bytes
//	trailer: u32 0xFFFFFFFF, u8 status, u64 rowsRepresented,
//	         u32 blocksSkipped, u64 rowsLost,   (version >= 2 only)
//	         u16 msgLen, msg (empty unless status is error)
//
// Version 2 added the degraded-scan accounting to the trailer; the
// reader accepts both versions.

// Stream trailer status values, shared by the frame and binary row
// streams.
const (
	FrameStatusDone      = 0 // every candidate block was shipped
	FrameStatusTruncated = 1 // a row or byte budget stopped the stream
	FrameStatusError     = 2 // the scan failed mid-stream; see the message
)

const (
	frameStreamVersion = 2
	rowStreamVersion   = 1
	trailerMark        = 0xFFFFFFFF

	rowsRun  = 0 // a row block's rows are consecutive
	rowsList = 1 // a row block lists its rows as offsets
)

var (
	frameStreamMagic = [4]byte{'Z', 'K', 'S', '1'}
	rowStreamMagic   = [4]byte{'Z', 'K', 'R', '1'}
)

// countingWriter counts bytes and latches the first write error, so the
// stream encoders can keep appending unconditionally and the handler
// checks once per block.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
	return n, err
}

// streamBuffers recycles the 32 KiB write buffers of the row and frame
// streams: allocated per response they are most of what a streaming scan
// leaves for the garbage collector.
var streamBuffers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

// streamOut is the buffered, byte-counting response body every stream
// writer appends to.
type streamOut struct {
	cw  countingWriter
	bw  *bufio.Writer
	buf []byte
}

func newStreamOut(w io.Writer) *streamOut {
	o := &streamOut{cw: countingWriter{w: w}}
	o.bw = streamBuffers.Get().(*bufio.Writer)
	o.bw.Reset(&o.cw)
	return o
}

// flush ends the stream and returns its buffer to the pool; the writer
// writes nothing afterwards.
func (o *streamOut) flush() error {
	err := o.bw.Flush()
	o.bw.Reset(nil) // drop the response (and a sticky write error) before pooling
	streamBuffers.Put(o.bw)
	o.bw = nil
	if err != nil {
		return err
	}
	return o.cw.err
}

func (o *streamOut) bytesWritten() int64 { return o.cw.n }
func (o *streamOut) writeErr() error     { return o.cw.err }

// totalBytes includes what is still buffered — the byte budget must see
// bytes as they are produced, not as they are flushed.
func (o *streamOut) totalBytes() int64 { return o.cw.n + int64(o.bw.Buffered()) }

// appendStreamHeader appends the header the frame and binary row streams
// share.
func appendStreamHeader(b []byte, magic [4]byte, version byte, cols []FrameStreamCol) []byte {
	b = append(b, magic[:]...)
	b = append(b, version, 0)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(cols)))
	for _, c := range cols {
		b = append(b, byte(c.WidthBytes), 0)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Name)))
		b = append(b, c.Name...)
	}
	return b
}

// appendTrailer appends the version-2 trailer both binary streams end
// with. A message longer than its u16 length field is cut to fit.
func appendTrailer(b []byte, t FrameTrailer) []byte {
	msg := t.Err[:min(len(t.Err), 0xFFFF)]
	b = binary.LittleEndian.AppendUint32(b, trailerMark)
	b = append(b, t.Status)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Rows))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.BlocksSkipped))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.RowsLost))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
	return append(b, msg...)
}

// appendLE appends vs as little-endian integers of T's width, the binary
// row stream's value encoding: each value's eight little-endian bytes,
// cut back to the width.
func appendLE[T zukowski.Integer](b []byte, vs []T) []byte {
	w := int(elemWidth(*new(T)))
	b = slices.Grow(b, len(vs)*w+8)
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))[:len(b)+w]
	}
	return b
}

// appendInts appends the little-endian values of w bytes each in src to
// dst, sign-extended to int64 — appendLE's inverse, for the row stream's
// reader and the NDJSON writer. w is 1, 2, 4 or 8.
func appendInts(dst []int64, src []byte, w int) []int64 {
	n := len(dst)
	dst = slices.Grow(dst, len(src)/w)[:n+len(src)/w]
	out := dst[n:]
	switch w {
	case 1:
		for j := range out {
			out[j] = int64(int8(src[j]))
		}
	case 2:
		for j := range out {
			out[j] = int64(int16(binary.LittleEndian.Uint16(src[2*j:])))
		}
	case 4:
		for j := range out {
			out[j] = int64(int32(binary.LittleEndian.Uint32(src[4*j:])))
		}
	default:
		for j := range out {
			out[j] = int64(binary.LittleEndian.Uint64(src[8*j:]))
		}
	}
	return dst
}

// rowEncoder is what a row scan writes its response through: the NDJSON
// writer and the binary row writer. block receives one block's rows and,
// per output column, their values as little-endian bytes at the width
// header announced.
type rowEncoder interface {
	header(table string, cols []FrameStreamCol)
	block(rows []int64, cols [][]byte)
	trailer(t FrameTrailer, elapsed time.Duration)
	flush() error
	totalBytes() int64
	bytesWritten() int64
	writeErr() error
}

// ndjsonWriter encodes the NDJSON row stream.
type ndjsonWriter struct {
	*streamOut
	cols []FrameStreamCol
	vals [][]int64 // one block's values, per column
}

func (nw *ndjsonWriter) header(table string, cols []FrameStreamCol) {
	nw.cols, nw.vals = cols, make([][]int64, len(cols))
	var names []string
	for _, c := range cols {
		names = append(names, c.Name)
	}
	b, _ := json.Marshal(struct {
		Table string   `json:"table"`
		Cols  []string `json:"cols"`
	}{table, names})
	nw.bw.Write(append(b, '\n'))
}

// block appends one line per row, [row, v0, v1, ...], in one write.
func (nw *ndjsonWriter) block(rows []int64, cols [][]byte) {
	for i, c := range cols {
		nw.vals[i] = appendInts(nw.vals[i][:0], c, nw.cols[i].WidthBytes)
	}
	b := nw.buf[:0]
	for j, row := range rows {
		b = strconv.AppendInt(append(b, '['), row, 10)
		for _, col := range nw.vals {
			b = strconv.AppendInt(append(b, ','), col[j], 10)
		}
		b = append(b, ']', '\n')
	}
	nw.buf = b
	nw.bw.Write(b)
}

func (nw *ndjsonWriter) trailer(t FrameTrailer, elapsed time.Duration) {
	o := struct {
		Done          bool    `json:"done"`
		Rows          int64   `json:"rows"`
		Truncated     bool    `json:"truncated,omitempty"`
		Reason        string  `json:"reason,omitempty"`
		Error         string  `json:"error,omitempty"`
		Degraded      bool    `json:"degraded,omitempty"`
		BlocksSkipped int64   `json:"blocks_skipped,omitempty"`
		RowsLost      int64   `json:"rows_lost,omitempty"`
		ElapsedMS     float64 `json:"elapsed_ms"`
	}{
		Done: t.Status != FrameStatusError, Rows: t.Rows, Truncated: t.Status == FrameStatusTruncated,
		Degraded: t.Degraded(), BlocksSkipped: t.BlocksSkipped, RowsLost: t.RowsLost,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if o.Truncated {
		o.Reason = t.Err
	} else if !o.Done {
		o.Error = t.Err
	}
	b, _ := json.Marshal(o)
	nw.bw.Write(append(b, '\n'))
}

// binaryRowWriter encodes the binary (ZKR1) row stream.
type binaryRowWriter struct{ *streamOut }

func (rw binaryRowWriter) header(_ string, cols []FrameStreamCol) {
	rw.buf = appendStreamHeader(rw.buf[:0], rowStreamMagic, rowStreamVersion, cols)
	rw.bw.Write(rw.buf)
}

// block writes a run when rows are consecutive and an offset list
// otherwise. Rows come one non-empty block at a time, so an offset fits a
// u32.
func (rw binaryRowWriter) block(rows []int64, cols [][]byte) {
	first, kind := rows[0], byte(rowsList)
	if rows[len(rows)-1]-first == int64(len(rows)-1) {
		kind = rowsRun
	}
	b := binary.LittleEndian.AppendUint32(rw.buf[:0], uint32(len(rows)))
	b = binary.LittleEndian.AppendUint64(append(b, kind), uint64(first))
	if kind == rowsList {
		for _, r := range rows {
			b = binary.LittleEndian.AppendUint32(b, uint32(r-first))
		}
	}
	rw.buf = b
	rw.bw.Write(b)
	for _, c := range cols {
		rw.bw.Write(c)
	}
}

func (rw binaryRowWriter) trailer(t FrameTrailer, elapsed time.Duration) {
	rw.buf = binary.LittleEndian.AppendUint64(appendTrailer(rw.buf[:0], t), uint64(elapsed))
	rw.bw.Write(rw.buf)
}

// frameWriter encodes the binary frame stream.
type frameWriter struct{ *streamOut }

func (fw frameWriter) header(cols []FrameStreamCol) {
	fw.buf = appendStreamHeader(fw.buf[:0], frameStreamMagic, frameStreamVersion, cols)
	fw.bw.Write(fw.buf)
}

func (fw frameWriter) block(index int, firstRow int64, count int, frames [][]byte) {
	b := fw.buf[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(index))
	b = binary.LittleEndian.AppendUint64(b, uint64(firstRow))
	b = binary.LittleEndian.AppendUint32(b, uint32(count))
	fw.buf = b
	fw.bw.Write(b)
	for _, frame := range frames {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(frame)))
		fw.bw.Write(lenBuf[:])
		fw.bw.Write(frame)
	}
}

func (fw frameWriter) trailer(t FrameTrailer) {
	fw.buf = appendTrailer(fw.buf[:0], t)
	fw.bw.Write(fw.buf)
}

// FrameStreamCol describes one column of a frame or binary row stream:
// its name and the element width its frames decode at (frame mode) or
// its values travel at (row mode).
type FrameStreamCol struct {
	Name       string
	WidthBytes int
}

// FrameBlock is one block of a frame stream: its index in the column,
// the global row number of its first row, its row count, and the raw
// compressed frame of every streamed column (parallel to the reader's
// Cols). Frames are freshly allocated; the caller may retain them.
type FrameBlock struct {
	Index    int
	FirstRow int64
	Count    int
	Frames   [][]byte
}

// FrameTrailer ends a frame or binary row stream.
type FrameTrailer struct {
	Status byte  // FrameStatusDone, FrameStatusTruncated or FrameStatusError
	Rows   int64 // rows represented by the shipped blocks (frames) or delivered (rows)
	Err    string

	// Degraded-scan accounting (version 2 streams; zero on version 1):
	// blocks dropped for corruption and the rows they held.
	BlocksSkipped int64
	RowsLost      int64
}

// Degraded reports whether the stream dropped corrupt blocks.
func (t FrameTrailer) Degraded() bool { return t.BlocksSkipped > 0 }

// wireReader is what the frame and binary row stream readers share: the
// header, the trailer, and reads sized by the bytes that arrive rather
// than by what a length or count field claims.
type wireReader struct {
	br      *bufio.Reader
	name    string // "frame stream" or "row stream", for errors
	rows    bool   // a row stream, not a frame stream
	version byte
	cols    []FrameStreamCol
	trailer FrameTrailer
	elapsed time.Duration // the row stream's server-side scan time
	done    bool
}

// readHeader reads the stream header: magic, a version in 1…maxVersion
// and the column list.
func (wr *wireReader) readHeader(r io.Reader, name string, magic [4]byte, maxVersion byte) error {
	wr.br, wr.name, wr.rows = bufio.NewReaderSize(r, 32<<10), name, magic == rowStreamMagic
	var hdr [8]byte
	if _, err := io.ReadFull(wr.br, hdr[:]); err != nil {
		return wr.fail("header", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return fmt.Errorf("zkserve: bad %s magic %q", name, hdr[:4])
	}
	if wr.version = hdr[4]; wr.version < 1 || wr.version > maxVersion {
		return fmt.Errorf("zkserve: unsupported %s version %d", name, wr.version)
	}
	for range binary.LittleEndian.Uint16(hdr[6:]) {
		var ch [4]byte
		if _, err := io.ReadFull(wr.br, ch[:]); err != nil {
			return wr.fail("column header", err)
		}
		b, err := wr.bytes(int(binary.LittleEndian.Uint16(ch[2:])))
		if err != nil {
			return wr.fail("column name", err)
		}
		wr.cols = append(wr.cols, FrameStreamCol{Name: string(b), WidthBytes: int(ch[0])})
	}
	return nil
}

func (wr *wireReader) fail(what string, err error) error {
	return fmt.Errorf("zkserve: %s %s: %w", wr.name, what, err)
}

// bytes reads n bytes, growing the result by at most 64 KiB per read, so
// a corrupt or hostile length costs only the bytes that actually follow
// it.
func (wr *wireReader) bytes(n int) ([]byte, error) {
	const chunk = 64 << 10
	b := make([]byte, 0, min(n, chunk))
	for len(b) < n {
		k := min(n-len(b), chunk)
		b = slices.Grow(b, k)
		if _, err := io.ReadFull(wr.br, b[len(b):len(b)+k]); err != nil {
			return nil, err
		}
		b = b[:len(b)+k]
	}
	return b, nil
}

// values appends n little-endian values of w bytes each, sign-extended,
// to dst, decoding a read buffer at a time: a hostile count allocates
// only for the bytes that arrive.
func (wr *wireReader) values(dst []int64, n, w int) ([]int64, error) {
	for per := wr.br.Size() / w; n > 0; n -= per {
		p, err := wr.br.Peek(min(n, per) * w)
		if err != nil {
			return dst, err
		}
		dst = appendInts(dst, p, w)
		wr.br.Discard(len(p))
	}
	return dst, nil
}

// lead reads the u32 that opens a block. When it is the trailer mark it
// reads the trailer instead, and ok is false from then on. Only
// version-1 frame trailers lack the degraded-scan accounting fields; only
// row trailers end with the scan time.
func (wr *wireReader) lead() (v uint32, ok bool, err error) {
	if wr.done {
		return 0, false, nil
	}
	var th [23]byte
	if _, err := io.ReadFull(wr.br, th[:4]); err != nil {
		return 0, false, wr.fail("cut mid-flight", err)
	}
	if v = binary.LittleEndian.Uint32(th[:4]); v != trailerMark {
		return v, true, nil
	}
	fixed := th[:11]
	if wr.rows || wr.version >= 2 {
		fixed = th[:23]
	}
	if _, err := io.ReadFull(wr.br, fixed); err != nil {
		return 0, false, wr.fail("trailer", err)
	}
	t := FrameTrailer{Status: th[0], Rows: int64(binary.LittleEndian.Uint64(th[1:]))}
	if len(fixed) == 23 {
		t.BlocksSkipped = int64(binary.LittleEndian.Uint32(th[9:]))
		t.RowsLost = int64(binary.LittleEndian.Uint64(th[13:]))
	}
	msg, err := wr.bytes(int(binary.LittleEndian.Uint16(fixed[len(fixed)-2:])))
	if err != nil {
		return 0, false, wr.fail("trailer message", err)
	}
	t.Err = string(msg)
	if wr.rows {
		if _, err := io.ReadFull(wr.br, th[:8]); err != nil {
			return 0, false, wr.fail("trailer scan time", err)
		}
		wr.elapsed = time.Duration(binary.LittleEndian.Uint64(th[:8]))
	}
	wr.trailer, wr.done = t, true
	return 0, false, nil
}

// FrameStreamReader decodes the binary frame stream — the client half of
// frame mode, used by repro/zkserve/client and the tests. It accepts
// stream versions 1 and 2.
type FrameStreamReader struct {
	wireReader
	Cols []FrameStreamCol
}

// NewFrameStreamReader reads the stream header.
func NewFrameStreamReader(r io.Reader) (*FrameStreamReader, error) {
	fr := &FrameStreamReader{}
	if err := fr.readHeader(r, "frame stream", frameStreamMagic, frameStreamVersion); err != nil {
		return nil, err
	}
	fr.Cols = fr.cols
	return fr, nil
}

// maxWireFrame caps a single frame read off the wire. Block frames are
// bounded far below this by MaxBlockValues, and bytes allocates only as
// the frame's bytes arrive.
const maxWireFrame = 1 << 30

// Next returns the next block, or nil after the trailer. A stream cut
// before its trailer returns an error.
func (fr *FrameStreamReader) Next() (*FrameBlock, error) {
	index, ok, err := fr.lead()
	if !ok {
		return nil, err
	}
	var bh [12]byte
	if _, err := io.ReadFull(fr.br, bh[:]); err != nil {
		return nil, fr.fail("block header", err)
	}
	blk := &FrameBlock{
		Index:    int(index),
		FirstRow: int64(binary.LittleEndian.Uint64(bh[:])),
		Count:    int(binary.LittleEndian.Uint32(bh[8:])),
		Frames:   make([][]byte, len(fr.Cols)),
	}
	if blk.Count > zukowski.MaxBlockValues {
		return nil, fmt.Errorf("zkserve: frame stream block of %d rows exceeds %d", blk.Count, zukowski.MaxBlockValues)
	}
	for i := range blk.Frames {
		if _, err := io.ReadFull(fr.br, bh[:4]); err != nil {
			return nil, fr.fail("frame length", err)
		}
		n := binary.LittleEndian.Uint32(bh[:4])
		if n > maxWireFrame {
			return nil, fmt.Errorf("zkserve: frame stream frame of %d bytes exceeds limit", n)
		}
		if blk.Frames[i], err = fr.bytes(int(n)); err != nil {
			return nil, fr.fail("frame bytes", err)
		}
	}
	return blk, nil
}

// Trailer returns the stream trailer; valid once Next has returned nil.
func (fr *FrameStreamReader) Trailer() FrameTrailer { return fr.trailer }

// RowBlock is one block of a binary row stream: the global row numbers of
// its rows, and per stream column their values sign-extended to int64
// (Vals[i][j] is column i's value at Rows[j]). The reader reuses both on
// its next call to Next.
type RowBlock struct {
	Rows []int64
	Vals [][]int64
}

// RowStreamReader decodes the binary row stream (MIMEBinaryRows) — the
// client half of row mode, used by repro/zkserve/client and the tests.
type RowStreamReader struct {
	wireReader
	Cols []FrameStreamCol
	blk  RowBlock
}

// NewRowStreamReader reads the stream header. A row stream has at least
// one column, so every row it delivers costs bytes on the wire.
func NewRowStreamReader(r io.Reader) (*RowStreamReader, error) {
	rr := &RowStreamReader{}
	if err := rr.readHeader(r, "row stream", rowStreamMagic, rowStreamVersion); err != nil {
		return nil, err
	}
	if len(rr.cols) == 0 {
		return nil, errors.New("zkserve: row stream of no columns")
	}
	for _, c := range rr.cols {
		if w := c.WidthBytes; w != 1 && w != 2 && w != 4 && w != 8 {
			return nil, fmt.Errorf("zkserve: row stream column %q of width %d", c.Name, w)
		}
	}
	rr.Cols, rr.blk.Vals = rr.cols, make([][]int64, len(rr.cols))
	return rr, nil
}

// Next returns the next block, or nil after the trailer. A stream cut
// before its trailer returns an error.
func (rr *RowStreamReader) Next() (*RowBlock, error) {
	n, ok, err := rr.lead()
	if !ok {
		return nil, err
	}
	if n == 0 || n > zukowski.MaxBlockValues {
		return nil, fmt.Errorf("zkserve: row stream block of %d rows outside 1…%d", n, zukowski.MaxBlockValues)
	}
	var bh [9]byte
	if _, err := io.ReadFull(rr.br, bh[:]); err != nil {
		return nil, rr.fail("block header", err)
	}
	kind, first, count := bh[0], int64(binary.LittleEndian.Uint64(bh[1:])), int(n)
	blk := &rr.blk
	blk.Rows = blk.Rows[:0]
	switch kind {
	case rowsRun: // numbered below, once the values have arrived
	case rowsList:
		if blk.Rows, err = rr.values(blk.Rows, count, 4); err != nil {
			return nil, rr.fail("row offsets", err)
		}
		// Offsets are u32 on the wire; a sign-extended negative one lies
		// past any block, and the rows must ascend.
		prev := int64(-1)
		for j, off := range blk.Rows {
			if off <= prev {
				return nil, fmt.Errorf("zkserve: row stream offset %d at position %d out of order", off, j)
			}
			prev, blk.Rows[j] = off, first+off
		}
	default:
		return nil, fmt.Errorf("zkserve: row stream block of unknown rows kind %d", kind)
	}
	for i, c := range rr.Cols {
		if blk.Vals[i], err = rr.values(blk.Vals[i][:0], count, c.WidthBytes); err != nil {
			return nil, rr.fail("column values", err)
		}
	}
	if kind == rowsRun {
		for j := range count {
			blk.Rows = append(blk.Rows, first+int64(j))
		}
	}
	return blk, nil
}

// Trailer returns the stream trailer and the server's scan time; valid
// once Next has returned nil.
func (rr *RowStreamReader) Trailer() (FrameTrailer, time.Duration) {
	return rr.trailer, rr.elapsed
}
