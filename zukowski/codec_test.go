package zukowski_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/zukowski"
)

// testLengths exercises the interesting block shapes: empty, single value,
// one-short-of-a-group, exact groups, ragged tails.
var testLengths = []int{0, 1, 5, 127, 128, 129, 1000, 4099}

// genValues produces values codable by every registered codec for every
// element type: small non-negative integers with repetition (so PDICT has
// frequent values) and mild clustering (so PFOR-DELTA sees small deltas).
func genValues[T zukowski.Integer](rng *rand.Rand, n int) []T {
	vals := make([]T, n)
	for i := range vals {
		v := rng.Intn(60)
		if rng.Intn(10) == 0 {
			v = 100 + rng.Intn(27) // occasional "outlier" within int8 range
		}
		vals[i] = T(v)
	}
	return vals
}

// roundTrip encodes src with every registered codec and checks that
// Decode, Get and Stats agree with the input.
func roundTrip[T zukowski.Integer](t *testing.T, rng *rand.Rand) {
	t.Helper()
	for _, name := range zukowski.Codecs() {
		codec, err := zukowski.Lookup[T](name)
		if errors.Is(err, zukowski.ErrUnknownCodec) {
			continue // user codec registered for a different element type
		}
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		for _, n := range testLengths {
			src := genValues[T](rng, n)
			frame, err := codec.Encode(nil, src)
			if err != nil {
				t.Fatalf("%s/%d: Encode: %v", name, n, err)
			}
			out, err := codec.Decode(nil, frame)
			if err != nil {
				t.Fatalf("%s/%d: Decode: %v", name, n, err)
			}
			if len(out) != len(src) {
				t.Fatalf("%s/%d: decoded %d values", name, n, len(out))
			}
			for i := range src {
				if out[i] != src[i] {
					t.Fatalf("%s/%d: value %d: got %v want %v", name, n, i, out[i], src[i])
				}
			}
			// Spot-check fine-grained access (every position for small
			// blocks, a sample for large ones).
			for k := 0; k < min(n, 64); k++ {
				i := k
				if n > 64 {
					i = rng.Intn(n)
				}
				v, err := codec.Get(frame, i)
				if err != nil {
					t.Fatalf("%s/%d: Get(%d): %v", name, n, i, err)
				}
				if v != src[i] {
					t.Fatalf("%s/%d: Get(%d) = %v, want %v", name, n, i, v, src[i])
				}
			}
			st, err := codec.Stats(frame)
			if err != nil {
				t.Fatalf("%s/%d: Stats: %v", name, n, err)
			}
			if st.NumValues != n {
				t.Fatalf("%s/%d: Stats.NumValues = %d", name, n, st.NumValues)
			}
			if st.EncodedBytes != len(frame) {
				t.Fatalf("%s/%d: Stats.EncodedBytes = %d, frame is %d", name, n, st.EncodedBytes, len(frame))
			}
		}
	}
}

// TestRoundTripAllCodecsAllTypes is the cross-product acceptance test:
// every registered codec round-trips on all eight Integer element types.
func TestRoundTripAllCodecsAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	t.Run("int8", func(t *testing.T) { roundTrip[int8](t, rng) })
	t.Run("int16", func(t *testing.T) { roundTrip[int16](t, rng) })
	t.Run("int32", func(t *testing.T) { roundTrip[int32](t, rng) })
	t.Run("int64", func(t *testing.T) { roundTrip[int64](t, rng) })
	t.Run("uint8", func(t *testing.T) { roundTrip[uint8](t, rng) })
	t.Run("uint16", func(t *testing.T) { roundTrip[uint16](t, rng) })
	t.Run("uint32", func(t *testing.T) { roundTrip[uint32](t, rng) })
	t.Run("uint64", func(t *testing.T) { roundTrip[uint64](t, rng) })
}

// TestRoundTripOutliers drives the patched schemes through their reason
// for existing: wide outliers inside a narrow value distribution, including
// negatives for the signed types.
func TestRoundTripOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := make([]int64, 10_000)
	for i := range src {
		src[i] = rng.Int63n(500) - 100
		if rng.Intn(50) == 0 {
			src[i] = rng.Int63() - rng.Int63()
		}
	}
	for _, name := range []string{"pfor", "pfor-delta", "pdict", "none", "auto"} {
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := codec.Encode(nil, src)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		out, err := codec.Decode(nil, frame)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		for i := range src {
			if out[i] != src[i] {
				t.Fatalf("%s: value %d: got %d want %d", name, i, out[i], src[i])
			}
		}
		for k := 0; k < 200; k++ {
			i := rng.Intn(len(src))
			if v, err := codec.Get(frame, i); err != nil || v != src[i] {
				t.Fatalf("%s: Get(%d) = %v, %v; want %d", name, i, v, err, src[i])
			}
		}
	}
}

// TestPatchedFramesCrossDecode: the patched codecs share the segment frame
// format, so any of them decodes any segment frame.
func TestPatchedFramesCrossDecode(t *testing.T) {
	src := []int64{5, 6, 7, 1000, 8, 9}
	frame, err := zukowski.PFOR[int64]{}.Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := zukowski.PDict[int64]{}.Decode(nil, frame)
	if err != nil {
		t.Fatalf("cross decode: %v", err)
	}
	for i := range src {
		if out[i] != src[i] {
			t.Fatalf("cross decode mismatch at %d", i)
		}
	}
}

// TestWidthErrors: invalid explicit bit widths surface as
// ErrWidthOutOfRange, not panics (the internal kernels panic on these).
func TestWidthErrors(t *testing.T) {
	src8 := []int8{1, 2, 3}
	src64 := []int64{1, 2, 3}
	cases := []struct {
		name string
		run  func() error
	}{
		{"pfor width 0 explicit path via 33", func() error {
			_, err := zukowski.PFOR[int64]{Width: 33}.Encode(nil, src64)
			return err
		}},
		{"pfor wider than element", func() error {
			_, err := zukowski.PFOR[int8]{Width: 16}.Encode(nil, src8)
			return err
		}},
		{"pfor-delta width 40", func() error {
			_, err := zukowski.PFORDelta[int64]{Width: 40}.Encode(nil, src64)
			return err
		}},
		{"pdict width 33", func() error {
			_, err := zukowski.PDict[int64]{Width: 33}.Encode(nil, src64)
			return err
		}},
		{"pdict dict larger than code space", func() error {
			_, err := zukowski.PDict[int64]{Width: 1, Dict: []int64{1, 2, 3}}.Encode(nil, src64)
			return err
		}},
		{"pdict width beyond segment dictionary cap", func() error {
			_, err := zukowski.PDict[int64]{Width: 20, Dict: []int64{1, 2, 3}}.Encode(nil, src64)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, zukowski.ErrWidthOutOfRange) {
			t.Errorf("%s: err = %v, want ErrWidthOutOfRange", tc.name, err)
		}
	}
}

// TestBlockTooLarge: encode inputs beyond the 25-bit entry-point limit are
// rejected up front (the internal kernels would panic).
func TestBlockTooLarge(t *testing.T) {
	src := make([]int8, zukowski.MaxBlockValues+1)
	for _, name := range []string{"pfor", "none"} {
		codec, err := zukowski.Lookup[int8](name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.Encode(nil, src); !errors.Is(err, zukowski.ErrBlockTooLarge) {
			t.Errorf("%s: err = %v, want ErrBlockTooLarge", name, err)
		}
	}
}

// TestGetIndexOutOfRange: out-of-range lookups return a typed error for
// every codec (the internal kernels panic).
func TestGetIndexOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := genValues[int64](rng, 1000)
	for _, name := range zukowski.Codecs() {
		codec, err := zukowski.Lookup[int64](name)
		if errors.Is(err, zukowski.ErrUnknownCodec) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		frame, err := codec.Encode(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{-1, len(src), len(src) + 100} {
			if _, err := codec.Get(frame, i); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
				t.Errorf("%s: Get(%d) err = %v, want ErrIndexOutOfRange", name, i, err)
			}
		}
	}
}

// fnv32 mirrors the segment payload checksum so corruption tests can
// re-validate deliberately damaged frames.
func fnv32(data []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range data {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// TestCorruptSegmentErrors: truncated, garbled and deliberately crafted
// segment bytes all return ErrCorruptSegment — paths that reached the
// panicking internal kernels before the public API existed.
func TestCorruptSegmentErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := make([]int64, 5000)
	for i := range src {
		src[i] = rng.Int63n(900)
		if rng.Intn(25) == 0 {
			src[i] = rng.Int63()
		}
	}
	codec := zukowski.PFOR[int64]{Base: 0, Width: 10}
	frame, err := codec.Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at every prefix length of the header plus a sample of
	// longer prefixes.
	for cut := 0; cut < len(frame); cut += 1 + cut/16 {
		if _, err := codec.Decode(nil, frame[:cut]); !errors.Is(err, zukowski.ErrCorruptSegment) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorruptSegment", cut, err)
		}
	}

	// Bad magic.
	bad := bytes.Clone(frame)
	bad[0] ^= 0xFF
	if _, err := codec.Decode(nil, bad); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("bad magic: err = %v, want ErrCorruptSegment", err)
	}
	if _, err := codec.Get(bad, 0); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("bad magic Get: err = %v, want ErrCorruptSegment", err)
	}
	if _, err := codec.Stats(bad); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("bad magic Stats: err = %v, want ErrCorruptSegment", err)
	}

	// Random payload damage: the checksum catches it.
	for trial := 0; trial < 100; trial++ {
		bad := bytes.Clone(frame)
		bad[44+rng.Intn(len(bad)-44)] ^= byte(1 << rng.Intn(8))
		if _, err := codec.Decode(nil, bad); !errors.Is(err, zukowski.ErrCorruptSegment) {
			t.Fatalf("payload flip: err = %v, want ErrCorruptSegment", err)
		}
	}

	// Crafted damage with a recomputed checksum: corrupt an entry-point
	// word so its exception index escapes the exception section, then fix
	// the checksum so only semantic validation can catch it.
	crafted := bytes.Clone(frame)
	for i := 0; i < 4; i++ {
		crafted[44+i] = 0xFF // entry word 0: huge exception index
	}
	crafted[40] = byte(fnv32(crafted[44:]))
	crafted[41] = byte(fnv32(crafted[44:]) >> 8)
	crafted[42] = byte(fnv32(crafted[44:]) >> 16)
	crafted[43] = byte(fnv32(crafted[44:]) >> 24)
	if _, err := codec.Decode(nil, crafted); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("crafted entry word: err = %v, want ErrCorruptSegment", err)
	}

	// Allocation bombs: tiny frames whose headers demand enormous
	// buffers must be rejected before anything is allocated. A crafted
	// PDICT frame with a huge code width (the padded dictionary would be
	// 1<<B entries) and a raw frame announcing 2^25 values with no
	// payload.
	pdictBomb := make([]byte, 52)
	pdictBomb[0] = 0xC5 // segment magic
	pdictBomb[1] = 3    // SchemePDict
	pdictBomb[2] = 30   // b: would imply a 2^30-entry dictionary
	pdictBomb[3] = 8    // elem size
	// N=0, DictLen=1, one 8-byte dictionary entry as payload.
	pdictBomb[24] = 1
	sum := fnv32(pdictBomb[44:])
	pdictBomb[40], pdictBomb[41], pdictBomb[42], pdictBomb[43] =
		byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)
	if _, err := codec.Decode(nil, pdictBomb); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("pdict width bomb: err = %v, want ErrCorruptSegment", err)
	}
	rawBomb := []byte{0xC5, 0, 8, 0, 0, 0, 0, 2} // SchemeNone, n = 1<<25, empty payload
	if _, err := (zukowski.None[int64]{}).Decode(nil, rawBomb); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("raw count bomb: err = %v, want ErrCorruptSegment", err)
	}

	// Arbitrary garbage for every codec.
	garbage := make([]byte, 64)
	rng.Read(garbage)
	garbage[0] = 0x00
	for _, name := range zukowski.Codecs() {
		c, err := zukowski.Lookup[int64](name)
		if errors.Is(err, zukowski.ErrUnknownCodec) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decode(nil, garbage); !errors.Is(err, zukowski.ErrCorruptSegment) {
			t.Errorf("%s: garbage decode err = %v, want ErrCorruptSegment", name, err)
		}
	}
}
