package zukowski_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/zukowski"
)

var byteStreamNames = []string{"flate", "lzw", "lzrw1"}

// TestByteStreamColumn runs the byte-stream baselines through the column
// container: write, read back, Get, a one-column range Query vs oracle.
func TestByteStreamColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = rng.Int63n(300)
	}
	for _, name := range byteStreamNames {
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			cr := buildSelectColumn(t, codec, 3000, vals)
			out, err := cr.ReadAll(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				if out[i] != vals[i] {
					t.Fatalf("value %d: got %d want %d", i, out[i], vals[i])
				}
			}
			for _, i := range []int{0, 2999, 3000, 19_999} {
				if v, err := cr.Get(i); err != nil || v != vals[i] {
					t.Fatalf("Get(%d) = %v, %v; want %d", i, v, err, vals[i])
				}
			}
			for _, r := range columnRanges(vals) {
				checkColumnSelect(t, cr, r[0], r[1])
			}
		})
	}
}

// TestByteStreamCorruptFrames feeds damaged and crafted frames to the
// byte-stream decoders: every failure mode must be a typed error, and a
// length prefix announcing a huge inflation must be rejected before any
// allocation ("decompression bomb" guard).
func TestByteStreamCorruptFrames(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, name := range byteStreamNames {
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := codec.Encode(nil, vals)
		if err != nil {
			t.Fatal(err)
		}

		// Truncations at every prefix length.
		for cut := 0; cut < len(frame); cut++ {
			if _, err := codec.Decode(nil, frame[:cut]); err == nil {
				t.Errorf("%s: decode of %d-byte truncation succeeded", name, cut)
			} else if !errors.Is(err, zukowski.ErrCorruptSegment) {
				t.Errorf("%s: truncation at %d: %v, want ErrCorruptSegment", name, cut, err)
			}
		}

		// Bit flips across the stream must error or round-trip-mismatch,
		// never panic; errors must stay typed.
		for i := 8; i < len(frame); i++ {
			mut := bytes.Clone(frame)
			mut[i] ^= 0x10
			out, err := codec.Decode(nil, mut)
			if err != nil && !errors.Is(err, zukowski.ErrCorruptSegment) {
				t.Errorf("%s: bit flip at %d: untyped error %v", name, i, err)
			}
			_ = out
		}

		// A crafted inner length prefix demanding 1GB must be refused: the
		// header says 8 values (64 bytes), so the inflation cap is tiny.
		mut := bytes.Clone(frame)
		binary.LittleEndian.PutUint32(mut[8:], 1<<30)
		if _, err := codec.Decode(nil, mut); !errors.Is(err, zukowski.ErrCorruptSegment) {
			t.Errorf("%s: 1GB length prefix: %v, want ErrCorruptSegment", name, err)
		}

		// Frames decode only under their own codec id.
		for _, other := range byteStreamNames {
			if other == name {
				continue
			}
			oc, _ := zukowski.Lookup[int64](other)
			if _, err := oc.Decode(nil, frame); !errors.Is(err, zukowski.ErrCorruptSegment) {
				t.Errorf("%s frame under %s: %v, want ErrCorruptSegment", name, other, err)
			}
		}
	}
}
