package zukowski_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/zukowski"
)

// FuzzRoundTrip drives every registered codec with arbitrary values:
// whatever Encode accepts must Decode back to exactly the input, and Get
// must agree with Decode. Raw fuzz bytes are also thrown at Decode, which
// must reject or decode them without ever panicking — the property the
// typed-error redesign exists to guarantee.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<40), uint8(2))
	f.Add([]byte{0xC5, 1, 10, 8, 1, 0, 0, 0}, uint8(3)) // segment-ish prefix
	f.Add([]byte{0xB6, 1, 8, 4, 2, 0, 0, 0}, uint8(4))  // a retired frame magic

	names := zukowski.Codecs()
	f.Fuzz(func(t *testing.T, data []byte, codecSel uint8) {
		name := names[int(codecSel)%len(names)]
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			t.Skip() // codec registered for another element type
		}

		// Interpret the fuzz bytes as values.
		src := make([]int64, 0, len(data)/8+1)
		for len(data) >= 8 {
			src = append(src, int64(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		if len(data) > 0 {
			var tail [8]byte
			copy(tail[:], data)
			src = append(src, int64(binary.LittleEndian.Uint64(tail[:])))
		}

		frame, err := codec.Encode(nil, src)
		if err == nil {
			out, err := codec.Decode(nil, frame)
			if err != nil {
				t.Fatalf("%s: decode of own frame: %v", name, err)
			}
			if len(out) != len(src) {
				t.Fatalf("%s: decoded %d values, want %d", name, len(out), len(src))
			}
			for i := range src {
				if out[i] != src[i] {
					t.Fatalf("%s: value %d: got %d want %d", name, i, out[i], src[i])
				}
			}
			if len(src) > 0 {
				i := int(uint(codecSel) % uint(len(src)))
				v, err := codec.Get(frame, i)
				if err != nil {
					t.Fatalf("%s: Get(%d): %v", name, i, err)
				}
				if v != src[i] {
					t.Fatalf("%s: Get(%d) = %d, want %d", name, i, v, src[i])
				}
			}
			if _, err := codec.Stats(frame); err != nil {
				t.Fatalf("%s: Stats of own frame: %v", name, err)
			}
			// The same frame one byte off its alignment: whichever of the two
			// a patched codec could read in place, the other it had to copy.
			if off, err := codec.Decode(nil, offByOne(frame)); err != nil || !slices.Equal(off, src) {
				t.Fatalf("%s: decode of the frame moved by one byte differs (err %v)", name, err)
			}
		}

		// Decode/Get/Stats of arbitrary bytes must error or succeed, never
		// panic. (The t.Fatal-free body means a panic is the only way to
		// fail here.)
		raw := tailBytes(src)
		codec.Decode(nil, raw)
		codec.Get(raw, 1)
		codec.Stats(raw)
	})
}

// FuzzColumn drives the column container decode path with arbitrary bytes
// and writer round-trips. Whatever the writer produces must read back
// exactly through both OpenColumn and OpenColumnReaderAt; arbitrary bytes
// must be rejected with typed errors or read successfully — never panic.
// sel picks the point the round-trip looks up.
func FuzzColumn(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(16))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1), uint8(1))
	f.Add([]byte("ZKC1............"), uint8(2), uint8(4))
	f.Add([]byte("ZKC2............"), uint8(3), uint8(4))
	f.Add([]byte("ZKC2........................ZKE2"), uint8(4), uint8(8))

	f.Fuzz(func(t *testing.T, data []byte, sel uint8, blockSel uint8) {
		// Writer round-trip: fuzz bytes as values, fuzzed block size.
		src := make([]int64, 0, len(data)/8+1)
		for chunk := data; len(chunk) > 0; {
			var tail [8]byte
			n := copy(tail[:], chunk)
			src = append(src, int64(binary.LittleEndian.Uint64(tail[:])))
			chunk = chunk[n:]
		}
		blockValues := 1 + int(blockSel)*7 // [1, 1786]: past one-value, group, and multi-group shapes
		container := buildColumnV2[int64](t, nil, blockValues, src)
		for _, open := range []func() (*zukowski.ColumnReader[int64], error){
			func() (*zukowski.ColumnReader[int64], error) { return zukowski.OpenColumn[int64](container) },
			func() (*zukowski.ColumnReader[int64], error) {
				return zukowski.OpenColumnReaderAt[int64](bytes.NewReader(container), int64(len(container)))
			},
			func() (*zukowski.ColumnReader[int64], error) {
				return zukowski.OpenColumn[int64](offByOne(container))
			},
		} {
			cr, err := open()
			if err != nil {
				t.Fatalf("open own container: %v", err)
			}
			out, err := cr.ReadAll(nil)
			if err != nil {
				t.Fatalf("ReadAll of own container: %v", err)
			}
			if len(out) != len(src) {
				t.Fatalf("read %d values, want %d", len(out), len(src))
			}
			for i := range src {
				if out[i] != src[i] {
					t.Fatalf("value %d: got %d want %d", i, out[i], src[i])
				}
			}
			if err := cr.Verify(); err != nil {
				t.Fatalf("Verify of own container: %v", err)
			}
			if len(src) > 0 {
				i := int(uint(sel) % uint(len(src)))
				if v, err := cr.Get(i); err != nil || v != src[i] {
					t.Fatalf("Get(%d) = %d, %v; want %d", i, v, err, src[i])
				}
				lo := src[0]
				rows, _, err := collectRun(t, oneColumn(t, cr), rangeQuery(lo, lo))
				if err != nil {
					t.Fatalf("point Query: %v", err)
				}
				if want := countOf(src, lo); len(rows) != want {
					t.Fatalf("point Query selected %d rows, want %d", len(rows), want)
				}
			}
		}

		// Arbitrary bytes: typed error or success, never a panic.
		if cr, err := zukowski.OpenColumn[int64](data); err == nil {
			cr.ReadAll(nil)
			cr.Get(0)
			cr.Verify()
			collectRun(t, oneColumn(t, cr), rangeQuery[int64](0, 1<<40))
		}
		if cr, err := zukowski.OpenColumnReaderAt[int64](bytes.NewReader(data), int64(len(data))); err == nil {
			cr.ReadAll(nil)
			cr.Get(0)
		}
	})
}

// countOf counts the occurrences of v in vals.
func countOf(vals []int64, v int64) int {
	n := 0
	for _, x := range vals {
		if x == v {
			n++
		}
	}
	return n
}

// offByOne returns a copy of b that starts one byte past an aligned
// address, so that every section a block could borrow from b in place is
// one it must copy from the copy, and the other way round.
func offByOne(b []byte) []byte { return append([]byte{0}, b...)[1:] }

// tailBytes rebuilds a byte view of the fuzz values so the arbitrary-bytes
// decode probe sees the original entropy.
func tailBytes(vals []int64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}
