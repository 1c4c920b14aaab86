package zkserve

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/zukowski"
)

func TestFrameStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := frameWriter{newStreamOut(&buf)}
	cols := []FrameStreamCol{{Name: "alpha", WidthBytes: 8}, {Name: "b", WidthBytes: 2}}
	fw.header(cols)
	frames := [][]byte{{1, 2, 3, 4}, {9}}
	fw.block(7, 7168, 1024, frames)
	fw.block(9, 9216, 512, [][]byte{{}, {0xff, 0xee}})
	fw.trailer(FrameTrailer{Status: FrameStatusTruncated, Rows: 1536})
	if err := fw.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := fw.bytesWritten(); got != int64(buf.Len()) {
		t.Fatalf("bytesWritten = %d, buffer holds %d", got, buf.Len())
	}

	fr, err := NewFrameStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reading header: %v", err)
	}
	if len(fr.Cols) != 2 || fr.Cols[0] != cols[0] || fr.Cols[1] != cols[1] {
		t.Fatalf("cols = %+v, want %+v", fr.Cols, cols)
	}
	blk, err := fr.Next()
	if err != nil {
		t.Fatalf("first block: %v", err)
	}
	if blk.Index != 7 || blk.FirstRow != 7168 || blk.Count != 1024 {
		t.Fatalf("first block = %+v", blk)
	}
	if !bytes.Equal(blk.Frames[0], frames[0]) || !bytes.Equal(blk.Frames[1], frames[1]) {
		t.Fatalf("first block frames = %v", blk.Frames)
	}
	blk, err = fr.Next()
	if err != nil || blk == nil {
		t.Fatalf("second block: %v, %v", blk, err)
	}
	if len(blk.Frames[0]) != 0 || !bytes.Equal(blk.Frames[1], []byte{0xff, 0xee}) {
		t.Fatalf("second block frames = %v", blk.Frames)
	}
	if blk, err = fr.Next(); err != nil || blk != nil {
		t.Fatalf("after last block: %v, %v", blk, err)
	}
	tr := fr.Trailer()
	if tr.Status != FrameStatusTruncated || tr.Rows != 1536 || tr.Err != "" {
		t.Fatalf("trailer = %+v", tr)
	}
}

func TestFrameStreamErrorTrailer(t *testing.T) {
	var buf bytes.Buffer
	fw := frameWriter{newStreamOut(&buf)}
	fw.header(nil)
	fw.trailer(FrameTrailer{Status: FrameStatusError, BlocksSkipped: 3, RowsLost: 12288, Err: "boom"})
	if err := fw.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	fr, err := NewFrameStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if blk, err := fr.Next(); err != nil || blk != nil {
		t.Fatalf("Next = %v, %v", blk, err)
	}
	if tr := fr.Trailer(); tr.Status != FrameStatusError || tr.Err != "boom" ||
		tr.BlocksSkipped != 3 || tr.RowsLost != 12288 || !tr.Degraded() {
		t.Fatalf("trailer = %+v", tr)
	}
}

// TestFrameStreamV1Trailer: the reader still decodes version-1 streams,
// whose trailers lack the degraded-accounting fields.
func TestFrameStreamV1Trailer(t *testing.T) {
	var buf bytes.Buffer
	fw := frameWriter{newStreamOut(&buf)}
	fw.header(nil)
	fw.trailer(FrameTrailer{Status: FrameStatusDone, Rows: 77})
	if err := fw.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Rewrite the stream as v1: flip the version byte and splice the two
	// degraded fields (u32+u64 = 12 bytes) out of the trailer.
	raw := buf.Bytes()
	raw[4] = 1
	cut := len(raw) - 2 - 12 // msgLen is last (empty msg)
	v1 := append(append([]byte{}, raw[:cut]...), raw[cut+12:]...)
	fr, err := NewFrameStreamReader(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 header: %v", err)
	}
	if blk, err := fr.Next(); err != nil || blk != nil {
		t.Fatalf("Next = %v, %v", blk, err)
	}
	if tr := fr.Trailer(); tr.Status != FrameStatusDone || tr.Rows != 77 || tr.Degraded() {
		t.Fatalf("v1 trailer = %+v", tr)
	}
}

func TestFrameStreamCutMidFlight(t *testing.T) {
	var buf bytes.Buffer
	fw := frameWriter{newStreamOut(&buf)}
	fw.header([]FrameStreamCol{{Name: "c", WidthBytes: 8}})
	fw.block(0, 0, 4, [][]byte{{1, 2, 3}})
	if err := fw.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// No trailer: the stream was cut. The reader must not report a clean
	// end.
	fr, err := NewFrameStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if _, err := fr.Next(); err != nil {
		t.Fatalf("block: %v", err)
	}
	if _, err := fr.Next(); err == nil {
		t.Fatal("cut stream reported a clean end")
	}

	// A garbage magic is refused outright.
	if _, err := NewFrameStreamReader(strings.NewReader("NOPE0000")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRowWriterShape(t *testing.T) {
	var buf bytes.Buffer
	nw := &ndjsonWriter{streamOut: newStreamOut(&buf)}
	nw.header("t", []FrameStreamCol{{Name: "a", WidthBytes: 2}, {Name: "b", WidthBytes: 2}})
	nw.block([]int64{5, 6}, [][]byte{appendLE(nil, []int16{10, -20}), appendLE(nil, []int16{30, 40})})
	nw.trailer(FrameTrailer{Status: FrameStatusTruncated, Rows: 2, Err: "rows"}, 1500*time.Microsecond)
	if err := nw.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := `{"table":"t","cols":["a","b"]}
[5,10,30]
[6,-20,40]
{"done":true,"rows":2,"truncated":true,"reason":"rows","elapsed_ms":1.5}
`
	if got := buf.String(); got != want {
		t.Fatalf("stream = %q, want %q", got, want)
	}
}

// narrowLE encodes vs at width w the way the server does: through
// appendLE over the element type of that width.
func narrowLE(w int, vs ...int64) []byte {
	conv := func(b []byte, f func(v int64) []byte) []byte {
		for _, v := range vs {
			b = append(b, f(v)...)
		}
		return b
	}
	switch w {
	case 1:
		return conv(nil, func(v int64) []byte { return appendLE(nil, []int8{int8(v)}) })
	case 2:
		return conv(nil, func(v int64) []byte { return appendLE(nil, []int16{int16(v)}) })
	case 4:
		return conv(nil, func(v int64) []byte { return appendLE(nil, []int32{int32(v)}) })
	}
	return appendLE(nil, vs)
}

// rowSample encodes a two-column row stream of width w: a run block and
// an offset-list block with one gap, holding the width's minimum and maximum, then t.
func rowSample(w int, t FrameTrailer) []byte {
	lo, hi := int64(-1)<<(8*w-1), int64(1)<<(8*w-1)-1
	var buf bytes.Buffer
	rw := binaryRowWriter{newStreamOut(&buf)}
	rw.header("t", []FrameStreamCol{{Name: "x", WidthBytes: w}, {Name: "yy", WidthBytes: w}})
	rw.block([]int64{10, 11, 12}, [][]byte{narrowLE(w, lo, hi, -1), narrowLE(w, 0, 1, hi)})
	rw.block([]int64{100, 101, 103}, [][]byte{narrowLE(w, 7, -7, lo), narrowLE(w, hi, lo, 2)})
	rw.trailer(t, 1234*time.Nanosecond)
	rw.flush()
	return buf.Bytes()
}

func TestRowStreamRoundTrip(t *testing.T) {
	tr := FrameTrailer{Status: FrameStatusTruncated, Rows: 6, Err: "bytes", BlocksSkipped: 1, RowsLost: 512}
	for _, w := range []int{1, 2, 4, 8} {
		lo, hi := int64(-1)<<(8*w-1), int64(1)<<(8*w-1)-1
		data := rowSample(w, tr)
		// header, a run block (no offsets), a list block, trailer + time
		if want := 8 + 5 + 6 + (13 + 6*w) + (13 + 12 + 6*w) + (4 + 23 + 5) + 8; len(data) != want {
			t.Fatalf("width %d: %d bytes, want %d", w, len(data), want)
		}
		rr, err := NewRowStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("width %d header: %v", w, err)
		}
		if len(rr.Cols) != 2 || rr.Cols[1] != (FrameStreamCol{Name: "yy", WidthBytes: w}) {
			t.Fatalf("width %d cols = %+v", w, rr.Cols)
		}
		for _, want := range []RowBlock{
			{Rows: []int64{10, 11, 12}, Vals: [][]int64{{lo, hi, -1}, {0, 1, hi}}},
			{Rows: []int64{100, 101, 103}, Vals: [][]int64{{7, -7, lo}, {hi, lo, 2}}},
		} {
			blk, err := rr.Next()
			if err != nil || blk == nil || !slices.Equal(blk.Rows, want.Rows) ||
				!slices.Equal(blk.Vals[0], want.Vals[0]) || !slices.Equal(blk.Vals[1], want.Vals[1]) {
				t.Fatalf("width %d: block %+v, %v; want %+v", w, blk, err, want)
			}
		}
		if blk, err := rr.Next(); blk != nil || err != nil {
			t.Fatalf("width %d: after the last block: %+v, %v", w, blk, err)
		}
		if got, elapsed := rr.Trailer(); got != tr || elapsed != 1234*time.Nanosecond {
			t.Fatalf("width %d: trailer %+v after %v", w, got, elapsed)
		}
	}
}

// allocatedBy returns the bytes f allocated, freed or not.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// drain reads data as a frame (rows false) or binary row stream to its
// trailer and returns the bytes the stream took.
func drain(data []byte, rows bool) (int, error) {
	src := bytes.NewReader(data)
	var wr *wireReader
	var next func() (more bool, err error)
	if rows {
		rr, err := NewRowStreamReader(src)
		if err != nil {
			return 0, err
		}
		wr, next = &rr.wireReader, func() (bool, error) { blk, err := rr.Next(); return blk != nil, err }
	} else {
		fr, err := NewFrameStreamReader(src)
		if err != nil {
			return 0, err
		}
		wr, next = &fr.wireReader, func() (bool, error) { blk, err := fr.Next(); return blk != nil, err }
	}
	for {
		more, err := next()
		if err != nil {
			return 0, err
		}
		if !more {
			return len(data) - src.Len() - wr.br.Buffered(), nil
		}
	}
}

// TestWireStreamHostileLengths: a length or count field is paid for by
// the bytes that follow it, not by what it claims.
func TestWireStreamHostileLengths(t *testing.T) {
	frame := []byte("ZKS1\x02\x00\x01\x00" + "\x08\x00\x01\x00c") // header, one column
	frame = append(frame, make([]byte, 16)...)                    // block 0, first row 0, 0 rows
	frame = binary.LittleEndian.AppendUint32(frame, 1<<30-1)      // a frame of 2^30-1 bytes
	row := []byte("ZKR1\x01\x00\x01\x00" + "\x08\x00\x01\x00c")
	run := binary.LittleEndian.AppendUint32(slices.Clone(row), zukowski.MaxBlockValues)
	run = append(run, rowsRun, 0, 0, 0, 0, 0, 0, 0, 0)
	list := binary.LittleEndian.AppendUint32(slices.Clone(row), zukowski.MaxBlockValues)
	list = append(list, rowsList, 0, 0, 0, 0, 0, 0, 0, 0)
	for _, tc := range []struct {
		name string
		data []byte
		rows bool
	}{{"frame length", frame, false}, {"run count", run, true}, {"list count", list, true}} {
		var err error
		got := allocatedBy(func() { _, err = drain(tc.data, tc.rows) })
		if err == nil || got >= 1<<20 {
			t.Fatalf("%s (%d bytes): err %v after allocating %d bytes", tc.name, len(tc.data), err, got)
		}
	}
	if len(frame) != 33 {
		t.Fatalf("hostile frame stream is %d bytes, want 33", len(frame))
	}
	over := binary.LittleEndian.AppendUint32(slices.Clone(row), zukowski.MaxBlockValues+1)
	if _, err := drain(append(over, make([]byte, 9+8)...), true); err == nil {
		t.Fatal("row block above MaxBlockValues accepted")
	}
}

// FuzzWireStreams holds both stream readers to three rules on arbitrary
// bytes and on prefixes and one-byte mutations of real encoder output:
// no panic; a stream read to its end has a trailer, so every shorter
// prefix of it is an error; and memory stays within a constant multiple
// of the input plus a constant.
func FuzzWireStreams(f *testing.F) {
	var samples [][]byte
	for i, tr := range []FrameTrailer{
		{Status: FrameStatusDone, Rows: 6},
		{Status: FrameStatusTruncated, Rows: 6, Err: "rows"},
		{Status: FrameStatusDone, Rows: 6, BlocksSkipped: 2, RowsLost: 1024},
		{Status: FrameStatusError, Rows: 6, Err: "boom"},
	} {
		var buf bytes.Buffer
		fw := frameWriter{newStreamOut(&buf)}
		fw.header([]FrameStreamCol{{Name: "a", WidthBytes: 8}, {Name: "bb", WidthBytes: 8}})
		fw.block(0, 0, 3, [][]byte{{1, 2, 3}, {4}})
		fw.block(4, 4096, 2, [][]byte{{}, {5, 6}})
		fw.trailer(tr)
		fw.flush()
		samples = append(samples, buf.Bytes(), rowSample(1<<i, tr))
	}
	for i, s := range samples {
		f.Add(s, uint8(i), uint32(len(s)/2), uint8(0x10))
	}
	f.Add([]byte("ZKR1"), uint8(1), uint32(17), uint8(0xff))
	f.Fuzz(func(t *testing.T, raw []byte, which uint8, pos uint32, flip uint8) {
		check := func(data []byte) {
			for _, rows := range []bool{false, true} {
				var n int
				var err error
				got := allocatedBy(func() { n, err = drain(data, rows) })
				if limit := uint64(64*len(data) + 1<<20); got > limit {
					t.Fatalf("rows=%v: %d input bytes allocated %d (limit %d)", rows, len(data), got, limit)
				}
				if err != nil {
					continue
				}
				if n == 0 {
					t.Fatalf("rows=%v: a stream read to its end took no bytes", rows)
				}
				if _, err := drain(data[:n-1], rows); err == nil {
					t.Fatalf("rows=%v: the stream cut before its last byte read cleanly", rows)
				}
			}
		}
		check(raw)
		i := int(which) % len(samples) // even: a frame stream; odd: a row stream
		s := samples[i]
		cut := int(pos % uint32(len(s)))
		if _, err := drain(s[:cut], i%2 == 1); err == nil {
			t.Fatalf("sample %d cut at %d of %d bytes read cleanly", i, cut, len(s))
		}
		check(s[:cut])
		mut := slices.Clone(s)
		mut[cut] ^= flip | 1
		check(mut)
	})
}
