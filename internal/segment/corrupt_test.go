package segment

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestChecksumDetectsBitFlips: any single corrupted payload byte must be
// rejected before the decompression kernels (which trust their inputs)
// ever see it.
func TestChecksumDetectsBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	src := make([]int64, 3000)
	for i := range src {
		src[i] = rng.Int63n(1000)
		if rng.Intn(20) == 0 {
			src[i] = rng.Int63()
		}
	}
	blk := core.CompressPFOR(src, 0, 10)
	good := Marshal(blk)
	if _, err := Unmarshal[int64](good); err != nil {
		t.Fatalf("pristine segment rejected: %v", err)
	}

	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), good...)
		pos := 44 + rng.Intn(len(bad)-44) // payload only; header has its own checks
		bit := byte(1 << rng.Intn(8))
		bad[pos] ^= bit
		if _, err := Unmarshal[int64](bad); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrChecksum", pos, err)
		}
	}
}

// TestUnmarshalRefusesUnorderedDictionary: a PDICT frame whose dictionary
// is not ascending — the frequency order older writers used — is refused
// as corrupt, checksum intact or not, and signed order is what counts.
func TestUnmarshalRefusesUnorderedDictionary(t *testing.T) {
	blk := core.CompressPDict([]int64{-5, 3, 3, 9, -5, 100}, []int64{9, -5, 3}, 2)
	if _, err := Unmarshal[int64](Marshal(blk)); err != nil {
		t.Fatalf("ascending dictionary refused: %v", err)
	}
	blk.Dict[0], blk.Dict[2] = blk.Dict[2], blk.Dict[0]
	frame := Marshal(blk)
	var into core.Block[int64]
	for name, err := range map[string]error{
		"UnmarshalInto":        UnmarshalInto(&into, frame),
		"UnmarshalIntoTrusted": UnmarshalIntoTrusted(&into, frame),
	} {
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "ascending") {
			t.Fatalf("%s of a dictionary in order %v = %v, want ErrCorrupt naming the order", name, blk.Dict[:3], err)
		}
	}
}

// TestHeaderCorruptionNeverPanics: arbitrary header damage must produce an
// error, not a panic or an out-of-bounds access.
func TestHeaderCorruptionNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	blk := core.CompressPFORDelta([]int64{1, 5, 9, 1000, 1001}, 0, 0, 4)
	good := Marshal(blk)

	for trial := 0; trial < 2000; trial++ {
		bad := append([]byte(nil), good...)
		// Corrupt 1-4 random bytes anywhere.
		for k := 0; k < 1+rng.Intn(4); k++ {
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		}
		// Also randomly truncate sometimes.
		if rng.Intn(4) == 0 {
			bad = bad[:rng.Intn(len(bad)+1)]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Unmarshal panicked on corrupt input: %v", r)
				}
			}()
			if got, err := Unmarshal[int64](bad); err == nil {
				// The (astronomically unlikely) event that corruption kept
				// the checksum valid: the block must still decode within
				// its own bounds.
				out := make([]int64, got.N)
				core.Decompress(got, out)
			}
		}()
	}
}

// TestRawSegmentTruncation: raw segments validate their length too.
func TestRawSegmentTruncation(t *testing.T) {
	buf := MarshalRaw([]int64{1, 2, 3})
	for cut := 0; cut < len(buf); cut++ {
		if _, err := UnmarshalRaw[int64](buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
