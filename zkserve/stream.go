package zkserve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/zukowski"
)

// Wire formats. Row mode is NDJSON (application/x-ndjson): a header
// object, then one JSON array per row — [rowNumber, col0, col1, ...] —
// then a trailer object that tells the client whether the stream is
// complete, truncated by a budget, or killed by an error. The trailer is
// in-band because the 200 status is committed before the scan runs.
//
//	{"table":"demo","cols":["a","b"]}
//	[17,3,40]
//	[18,5,41]
//	{"done":true,"rows":2,"truncated":false,"elapsed_ms":1.8}
//
// Frame mode (application/x-zkc2) ships the raw compressed block frames
// of the requested columns, zone-map-pruned by the predicates but not
// decoded — the client decodes locally with zukowski.FrameDecoder and
// applies the exact predicate itself, paying CPU where the paper says it
// belongs: at the consumer of the data. The stream is little-endian:
//
//	header:  "ZKS1", u8 version, u8 reserved, u16 numCols,
//	         then per column: u8 widthBytes, u8 reserved, u16 nameLen, name
//	block:   u32 blockIndex, u64 firstRow, u32 rowCount,
//	         then per column: u32 frameLen, frame bytes
//	trailer: u32 0xFFFFFFFF, u8 status, u64 rowsRepresented,
//	         u32 blocksSkipped, u64 rowsLost,   (version >= 2 only)
//	         u16 msgLen, msg (empty unless status is error)
//
// A block index of 0xFFFFFFFF marks the trailer; a stream that ends
// without one was cut mid-flight. Version 2 added the degraded-scan
// accounting fields to the trailer; the reader accepts both versions.

// Frame-stream trailer status values.
const (
	FrameStatusDone      = 0 // every candidate block was shipped
	FrameStatusTruncated = 1 // a row or byte budget stopped the stream
	FrameStatusError     = 2 // the scan failed mid-stream; see the message
)

const (
	frameStreamVersion = 2
	frameTrailerMark   = 0xFFFFFFFF
)

var frameStreamMagic = [4]byte{'Z', 'K', 'S', '1'}

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

// getStreamBuffer takes a buffer writing to w from the pool; the stream
// writers return it from flush, their last use of it.
func getStreamBuffer(w io.Writer) *bufio.Writer {
	bw := streamBuffers.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// flushStreamBuffer flushes bw and returns it to the pool.
func flushStreamBuffer(bw *bufio.Writer) error {
	err := bw.Flush()
	bw.Reset(nil) // drop the response (and a sticky write error) before pooling
	streamBuffers.Put(bw)
	return err
}

// rowWriter encodes the NDJSON row stream.
type rowWriter struct {
	cw  countingWriter
	bw  *bufio.Writer
	buf []byte
}

func newRowWriter(w io.Writer) *rowWriter {
	rw := &rowWriter{}
	rw.cw.w = w
	rw.bw = getStreamBuffer(&rw.cw)
	return rw
}

func (rw *rowWriter) header(table string, cols []string) {
	b, _ := json.Marshal(struct {
		Table string   `json:"table"`
		Cols  []string `json:"cols"`
	}{table, cols})
	rw.bw.Write(b)
	rw.bw.WriteByte('\n')
}

// rows appends one block's surviving rows: [row, v0, v1, ...] per line.
func (rw *rowWriter) rows(rows []int64, vals [][]int64) {
	for j, row := range rows {
		b := rw.buf[:0]
		b = append(b, '[')
		b = strconv.AppendInt(b, row, 10)
		for _, col := range vals {
			b = append(b, ',')
			b = strconv.AppendInt(b, col[j], 10)
		}
		b = append(b, ']', '\n')
		rw.buf = b
		rw.bw.Write(b)
	}
}

// trailer ends the stream. reason is empty for a complete scan,
// "rows"/"bytes" for a budget truncation, or an error description. rep
// carries degraded-scan losses; nil or loss-free reports add nothing.
func (rw *rowWriter) trailer(rows int64, truncated bool, reason string, scanErr error, elapsedMS float64, rep *zukowski.ScanReport) {
	t := struct {
		Done          bool    `json:"done"`
		Rows          int64   `json:"rows"`
		Truncated     bool    `json:"truncated,omitempty"`
		Reason        string  `json:"reason,omitempty"`
		Error         string  `json:"error,omitempty"`
		Degraded      bool    `json:"degraded,omitempty"`
		BlocksSkipped int64   `json:"blocks_skipped,omitempty"`
		RowsLost      int64   `json:"rows_lost,omitempty"`
		ElapsedMS     float64 `json:"elapsed_ms"`
	}{Done: scanErr == nil, Rows: rows, Truncated: truncated, Reason: reason, ElapsedMS: elapsedMS}
	if scanErr != nil {
		t.Error = scanErr.Error()
	}
	if rep.Degraded() {
		t.Degraded = true
		t.BlocksSkipped = int64(rep.BlocksSkipped)
		t.RowsLost = rep.RowsLost
	}
	b, _ := json.Marshal(t)
	rw.bw.Write(b)
	rw.bw.WriteByte('\n')
}

// flush ends the stream; rw writes nothing afterwards.
func (rw *rowWriter) flush() error {
	err := flushStreamBuffer(rw.bw)
	rw.bw = nil
	if err != nil {
		return err
	}
	return rw.cw.err
}

func (rw *rowWriter) bytesWritten() int64 { return rw.cw.n }
func (rw *rowWriter) writeErr() error     { return rw.cw.err }

// totalBytes includes what is still buffered — the byte budget must see
// bytes as they are produced, not as they are flushed.
func (rw *rowWriter) totalBytes() int64 { return rw.cw.n + int64(rw.bw.Buffered()) }

// frameWriter encodes the binary frame stream.
type frameWriter struct {
	cw  countingWriter
	bw  *bufio.Writer
	buf []byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	fw := &frameWriter{}
	fw.cw.w = w
	fw.bw = getStreamBuffer(&fw.cw)
	return fw
}

func (fw *frameWriter) header(cols []FrameStreamCol) {
	b := fw.buf[:0]
	b = append(b, frameStreamMagic[:]...)
	b = append(b, frameStreamVersion, 0)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(cols)))
	for _, c := range cols {
		b = append(b, byte(c.WidthBytes), 0)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Name)))
		b = append(b, c.Name...)
	}
	fw.buf = b
	fw.bw.Write(b)
}

func (fw *frameWriter) block(index int, firstRow int64, count int, frames [][]byte) {
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

func (fw *frameWriter) trailer(status byte, rows int64, blocksSkipped int64, rowsLost int64, msg string) {
	b := fw.buf[:0]
	b = binary.LittleEndian.AppendUint32(b, frameTrailerMark)
	b = append(b, status)
	b = binary.LittleEndian.AppendUint64(b, uint64(rows))
	b = binary.LittleEndian.AppendUint32(b, uint32(blocksSkipped))
	b = binary.LittleEndian.AppendUint64(b, uint64(rowsLost))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
	b = append(b, msg...)
	fw.buf = b
	fw.bw.Write(b)
}

// flush ends the stream; fw writes nothing afterwards.
func (fw *frameWriter) flush() error {
	err := flushStreamBuffer(fw.bw)
	fw.bw = nil
	if err != nil {
		return err
	}
	return fw.cw.err
}

func (fw *frameWriter) bytesWritten() int64 { return fw.cw.n }
func (fw *frameWriter) writeErr() error     { return fw.cw.err }

func (fw *frameWriter) totalBytes() int64 { return fw.cw.n + int64(fw.bw.Buffered()) }

// FrameStreamCol describes one column of a frame stream: its name and
// the element width its frames decode at.
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

// FrameTrailer ends a frame stream.
type FrameTrailer struct {
	Status byte  // FrameStatusDone, FrameStatusTruncated or FrameStatusError
	Rows   int64 // rows represented by the shipped blocks
	Err    string

	// Degraded-scan accounting (version 2 streams; zero on version 1):
	// blocks dropped for corruption and the rows they held.
	BlocksSkipped int64
	RowsLost      int64
}

// Degraded reports whether the stream dropped corrupt blocks.
func (t FrameTrailer) Degraded() bool { return t.BlocksSkipped > 0 }

// FrameStreamReader decodes the binary frame stream — the client half of
// frame mode, used by repro/zkserve/client and the tests. It accepts
// stream versions 1 and 2.
type FrameStreamReader struct {
	br      *bufio.Reader
	version byte
	Cols    []FrameStreamCol
	trailer FrameTrailer
	done    bool
}

// NewFrameStreamReader reads the stream header.
func NewFrameStreamReader(r io.Reader) (*FrameStreamReader, error) {
	br := bufio.NewReaderSize(r, 32<<10)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("zkserve: frame stream header: %w", err)
	}
	if [4]byte(hdr[:4]) != frameStreamMagic {
		return nil, fmt.Errorf("zkserve: bad frame stream magic %q", hdr[:4])
	}
	if hdr[4] < 1 || hdr[4] > frameStreamVersion {
		return nil, fmt.Errorf("zkserve: unsupported frame stream version %d", hdr[4])
	}
	n := int(binary.LittleEndian.Uint16(hdr[6:]))
	fr := &FrameStreamReader{br: br, version: hdr[4], Cols: make([]FrameStreamCol, n)}
	for i := range fr.Cols {
		var ch [4]byte
		if _, err := io.ReadFull(br, ch[:]); err != nil {
			return nil, fmt.Errorf("zkserve: frame stream column header: %w", err)
		}
		name := make([]byte, binary.LittleEndian.Uint16(ch[2:]))
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("zkserve: frame stream column name: %w", err)
		}
		fr.Cols[i] = FrameStreamCol{Name: string(name), WidthBytes: int(ch[0])}
	}
	return fr, nil
}

// maxWireFrame caps a single frame read off the wire (a corrupt or
// hostile length prefix must not demand an arbitrary allocation). Block
// frames are bounded far below this by MaxBlockValues.
const maxWireFrame = 1 << 30

// Next returns the next block, or nil after the trailer. A stream cut
// before its trailer returns an error.
func (fr *FrameStreamReader) Next() (*FrameBlock, error) {
	if fr.done {
		return nil, nil
	}
	var bh [16]byte
	if _, err := io.ReadFull(fr.br, bh[:4]); err != nil {
		return nil, fmt.Errorf("zkserve: frame stream cut mid-flight: %w", err)
	}
	index := binary.LittleEndian.Uint32(bh[:4])
	if index == frameTrailerMark {
		// v1 trailer: u8 status, u64 rows, u16 msgLen.
		// v2 adds u32 blocksSkipped + u64 rowsLost before msgLen.
		fixed := 11
		if fr.version >= 2 {
			fixed = 23
		}
		th := make([]byte, fixed)
		if _, err := io.ReadFull(fr.br, th); err != nil {
			return nil, fmt.Errorf("zkserve: frame stream trailer: %w", err)
		}
		t := FrameTrailer{Status: th[0], Rows: int64(binary.LittleEndian.Uint64(th[1:]))}
		msgOff := 9
		if fr.version >= 2 {
			t.BlocksSkipped = int64(binary.LittleEndian.Uint32(th[9:]))
			t.RowsLost = int64(binary.LittleEndian.Uint64(th[13:]))
			msgOff = 21
		}
		msg := make([]byte, binary.LittleEndian.Uint16(th[msgOff:]))
		if _, err := io.ReadFull(fr.br, msg); err != nil {
			return nil, fmt.Errorf("zkserve: frame stream trailer message: %w", err)
		}
		t.Err = string(msg)
		fr.trailer = t
		fr.done = true
		return nil, nil
	}
	if _, err := io.ReadFull(fr.br, bh[4:]); err != nil {
		return nil, fmt.Errorf("zkserve: frame stream block header: %w", err)
	}
	blk := &FrameBlock{
		Index:    int(index),
		FirstRow: int64(binary.LittleEndian.Uint64(bh[4:])),
		Count:    int(binary.LittleEndian.Uint32(bh[12:])),
		Frames:   make([][]byte, len(fr.Cols)),
	}
	for i := range blk.Frames {
		var lenBuf [4]byte
		if _, err := io.ReadFull(fr.br, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("zkserve: frame stream frame length: %w", err)
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > maxWireFrame {
			return nil, fmt.Errorf("zkserve: frame stream frame of %d bytes exceeds limit", n)
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(fr.br, frame); err != nil {
			return nil, fmt.Errorf("zkserve: frame stream frame bytes: %w", err)
		}
		blk.Frames[i] = frame
	}
	return blk, nil
}

// Trailer returns the stream trailer; valid once Next has returned nil.
func (fr *FrameStreamReader) Trailer() FrameTrailer { return fr.trailer }
