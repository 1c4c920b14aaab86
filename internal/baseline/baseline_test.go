package baseline

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// --- byte codecs ------------------------------------------------------------

func byteCodecs() []ByteCodec {
	return []ByteCodec{LZRW1{}, LZW{}, Huffman{}, Flate{}}
}

func testInputs(rng *rand.Rand) map[string][]byte {
	repetitive := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 200)
	random := make([]byte, 8192)
	rng.Read(random)
	skewed := make([]byte, 16384)
	for i := range skewed {
		if rng.Intn(10) == 0 {
			skewed[i] = byte(rng.Intn(256))
		} else {
			skewed[i] = byte(rng.Intn(4))
		}
	}
	runs := make([]byte, 4096)
	for i := range runs {
		runs[i] = byte(i / 100)
	}
	return map[string][]byte{
		"empty":      {},
		"single":     {42},
		"repetitive": repetitive,
		"random":     random,
		"skewed":     skewed,
		"runs":       runs,
	}
}

func TestByteCodecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for name, input := range testInputs(rng) {
		for _, codec := range byteCodecs() {
			enc := codec.Compress(nil, input)
			dec, err := codec.Decompress(nil, enc)
			if err != nil {
				t.Fatalf("%s/%s: %v", codec.Name(), name, err)
			}
			if !bytes.Equal(dec, input) {
				t.Fatalf("%s/%s: round-trip mismatch (%d vs %d bytes)", codec.Name(), name, len(dec), len(input))
			}
		}
	}
}

func TestByteCodecsAppendSemantics(t *testing.T) {
	// Compress/Decompress must append, not clobber.
	prefix := []byte("prefix")
	input := bytes.Repeat([]byte("ab"), 500)
	for _, codec := range byteCodecs() {
		enc := codec.Compress(append([]byte{}, prefix...), input)
		if !bytes.HasPrefix(enc, prefix) {
			t.Fatalf("%s: Compress clobbered dst", codec.Name())
		}
		dec, err := codec.Decompress(append([]byte{}, prefix...), enc[len(prefix):])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(dec, prefix) || !bytes.Equal(dec[len(prefix):], input) {
			t.Fatalf("%s: Decompress clobbered dst", codec.Name())
		}
	}
}

func TestByteCodecsCompressCompressible(t *testing.T) {
	input := bytes.Repeat([]byte("aaaabbbbccccdddd"), 1000)
	for _, codec := range byteCodecs() {
		enc := codec.Compress(nil, input)
		if len(enc) >= len(input) {
			t.Errorf("%s: repetitive input grew: %d -> %d", codec.Name(), len(input), len(enc))
		}
	}
}

func TestByteCodecsRejectCorrupt(t *testing.T) {
	input := bytes.Repeat([]byte("hello world "), 100)
	for _, codec := range byteCodecs() {
		enc := codec.Compress(nil, input)
		if _, err := codec.Decompress(nil, enc[:3]); err == nil {
			t.Errorf("%s: truncated stream accepted", codec.Name())
		}
	}
}

func TestByteCodecsQuick(t *testing.T) {
	for _, codec := range byteCodecs() {
		codec := codec
		f := func(input []byte) bool {
			enc := codec.Compress(nil, input)
			dec, err := codec.Decompress(nil, enc)
			return err == nil && bytes.Equal(dec, input)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", codec.Name(), err)
		}
	}
}

func TestLZRW1FindsMatches(t *testing.T) {
	// A long literal repeat must compress well below 50%.
	input := bytes.Repeat([]byte("abcdefgh"), 512)
	enc := LZRW1{}.Compress(nil, input)
	if len(enc) > len(input)/3 {
		t.Fatalf("lzrw1 on periodic input: %d -> %d", len(input), len(enc))
	}
}

func TestHuffmanApproachesEntropy(t *testing.T) {
	// Two symbols, 50/50: ~1 bit each, so ~8x compression.
	rng := rand.New(rand.NewSource(62))
	input := make([]byte, 32768)
	for i := range input {
		input[i] = byte(rng.Intn(2))
	}
	enc := Huffman{}.Compress(nil, input)
	if len(enc) > len(input)/6 {
		t.Fatalf("huffman on 1-bit-entropy bytes: %d -> %d", len(input), len(enc))
	}
}

// --- int codecs ---------------------------------------------------------

func intCodecs() []IntCodec {
	return []IntCodec{Carryover12{}, VByte{}}
}

func gapData(rng *rand.Rand, n int, maxGap uint32) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Uint32() % maxGap
	}
	return vals
}

func TestIntCodecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	inputs := map[string][]uint32{
		"empty":      {},
		"single":     {12345},
		"ones":       bytesOfOnes(5000),
		"small gaps": gapData(rng, 10_000, 16),
		"mixed gaps": gapData(rng, 10_000, 1<<20),
		"max":        {MaxValue, 0, MaxValue, 1, MaxValue},
	}
	for name, input := range inputs {
		for _, codec := range intCodecs() {
			enc := codec.Encode(nil, input)
			dec, rest, err := codec.Decode(nil, enc, len(input))
			if err != nil {
				t.Fatalf("%s/%s: %v", codec.Name(), name, err)
			}
			if len(dec) != len(input) {
				t.Fatalf("%s/%s: %d values", codec.Name(), name, len(dec))
			}
			for i := range input {
				if dec[i] != input[i] {
					t.Fatalf("%s/%s: mismatch at %d: %d != %d", codec.Name(), name, i, dec[i], input[i])
				}
			}
			_ = rest
		}
	}
}

func bytesOfOnes(n int) []uint32 {
	v := make([]uint32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestIntCodecsPartialDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	input := gapData(rng, 1000, 1<<12)
	for _, codec := range intCodecs() {
		enc := codec.Encode(nil, input)
		for _, n := range []int{0, 1, 13, 500, 999} {
			dec, _, err := codec.Decode(nil, enc, n)
			if err != nil {
				t.Fatalf("%s: partial %d: %v", codec.Name(), n, err)
			}
			for i := 0; i < n; i++ {
				if dec[i] != input[i] {
					t.Fatalf("%s: partial %d mismatch at %d", codec.Name(), n, i)
				}
			}
		}
		if _, _, err := codec.Decode(nil, enc, 1001); err == nil {
			t.Fatalf("%s: decoding more than encoded must fail", codec.Name())
		}
	}
}

func TestCarryover12Density(t *testing.T) {
	// 1-bit values should pack ~28-32 per word: < 1.3 bits/value.
	input := bytesOfOnes(28_000)
	enc := Carryover12{}.Encode(nil, input)
	bitsPerVal := float64(len(enc)-4) * 8 / float64(len(input))
	if bitsPerVal > 1.3 {
		t.Fatalf("carryover-12 on 1-bit values: %.2f bits/value", bitsPerVal)
	}
}

func TestCarryover12BeatsVByteOnSmallGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	input := gapData(rng, 50_000, 8)
	co := Carryover12{}.Encode(nil, input)
	vb := VByte{}.Encode(nil, input)
	if len(co) >= len(vb) {
		t.Fatalf("carryover-12 (%d B) should beat vbyte (%d B) on 3-bit gaps", len(co), len(vb))
	}
}

func TestCarryover12RejectsOversized(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for value > 28 bits")
		}
	}()
	Carryover12{}.Encode(nil, []uint32{1 << 29})
}

func TestIntCodecsQuick(t *testing.T) {
	for _, codec := range intCodecs() {
		codec := codec
		f := func(raw []uint32) bool {
			vals := make([]uint32, len(raw))
			for i, v := range raw {
				vals[i] = v & MaxValue
			}
			enc := codec.Encode(nil, vals)
			dec, _, err := codec.Decode(nil, enc, len(vals))
			if err != nil || len(dec) != len(vals) {
				return false
			}
			for i := range vals {
				if dec[i] != vals[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", codec.Name(), err)
		}
	}
}

// --- delta helpers --------------------------------------------------------

func TestDeltasPrefixSums(t *testing.T) {
	positions := []uint32{3, 7, 8, 20, 21}
	gaps := append([]uint32{}, positions...)
	Deltas(gaps)
	want := []uint32{3, 4, 1, 12, 1}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gap %d = %d, want %d", i, gaps[i], want[i])
		}
	}
	PrefixSums(gaps)
	for i := range positions {
		if gaps[i] != positions[i] {
			t.Fatalf("inverse failed at %d", i)
		}
	}
}
