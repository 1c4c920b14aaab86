package zktable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// allocatedBy returns the bytes f allocated, freed or not.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// withCRC returns b with its last four bytes replaced by the CRC32-C of
// the rest, so a damaged manifest gets past the checksum and the field
// checks are what has to stop it.
func withCRC(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	b = slices.Clone(b)
	body := b[:len(b)-4]
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, manifestCRC))
}

// randomManifest builds a valid manifest of the given shape.
func randomManifest(rng *rand.Rand, numCols, numSegs int) *manifest {
	m := &manifest{
		Generation:  rng.Uint64(),
		Width:       1 << rng.Intn(4),
		BlockValues: 1 + rng.Intn(4096),
		Cols:        make([]string, numCols),
		Segs:        make([]segMeta, numSegs),
	}
	for c := range m.Cols {
		m.Cols[c] = fmt.Sprintf("c%d", c)
	}
	for si := range m.Segs {
		s := &m.Segs[si]
		s.ID = uint64(si)*7 + 1
		s.Counts = make([]uint32, rng.Intn(5))
		for b := range s.Counts {
			s.Counts[b] = uint32(1 + rng.Intn(m.BlockValues))
			s.Rows += int64(s.Counts[b])
		}
		s.Cols = make([]colSlice, numCols)
		for c := range s.Cols {
			cs := &s.Cols[c]
			cs.FileSize = rng.Int63()
			cs.CRCs = make([]uint32, len(s.Counts))
			cs.MinBits = make([]uint64, len(s.Counts))
			cs.MaxBits = make([]uint64, len(s.Counts))
			for b := range s.Counts {
				cs.CRCs[b], cs.MinBits[b], cs.MaxBits[b] = rng.Uint32(), rng.Uint64(), rng.Uint64()
			}
		}
		m.Rows += s.Rows
	}
	return m
}

// checkDecode holds decodeManifest to its contract on arbitrary bytes: a
// typed error or a manifest that encodes back to the input, and memory in
// proportion to the input either way. The decoded form costs up to 80
// bytes per 8-byte column slice; the constant covers the column-name table
// (maxManifestCols string headers), which is sized before the names are
// read.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var m *manifest
	var err error
	if got, limit := allocatedBy(func() { m, err = decodeManifest(data) }), uint64(16*len(data)+1<<17); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
	}
	if err != nil {
		if !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("untyped error: %v", err)
		}
		return
	}
	// The decoder does not look at the three reserved bytes; encode writes
	// them zero.
	want := slices.Clone(data)
	want[17], want[18], want[19] = 0, 0, 0
	if enc := m.encode(); !bytes.Equal(enc, withCRC(want)) {
		t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(data), len(enc))
	}
}

// TestDecodeManifestBoundsAllocation: a CRC-valid manifest that declares
// 512 columns and one segment of 60,000 one-row blocks, and ends after
// the block counts, is refused before anything is sized by columns ×
// blocks (the decoder used to allocate ~590 MB on its way to "truncated").
func TestDecodeManifestBoundsAllocation(t *testing.T) {
	const numCols, numBlocks = 512, 60_000
	head := &manifest{Width: 8, BlockValues: 64, Rows: numBlocks, Cols: make([]string, numCols)}
	for c := range head.Cols {
		head.Cols[c] = fmt.Sprintf("c%d", c)
	}
	enc := head.encode()
	enc = enc[:len(enc)-4]
	binary.LittleEndian.PutUint32(enc[28:], 1)             // segment count
	enc = binary.LittleEndian.AppendUint64(enc, 1)         // segment id
	enc = binary.LittleEndian.AppendUint64(enc, numBlocks) // rows
	enc = binary.LittleEndian.AppendUint32(enc, numBlocks)
	for range numBlocks {
		enc = binary.LittleEndian.AppendUint32(enc, 1)
	}
	enc = withCRC(append(enc, 0, 0, 0, 0))

	var err error
	got := allocatedBy(func() { _, err = decodeManifest(enc) })
	if !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("err = %v, want ErrCorruptManifest", err)
	}
	if limit := uint64(4 * len(enc)); got > limit {
		t.Fatalf("refusing a %d-byte manifest allocated %d bytes, limit %d", len(enc), got, limit)
	}
}

// TestDecodeManifestShortInputs: nil and every prefix of a valid manifest,
// as cut and with the checksum made right, is refused with the typed error
// or (the whole manifest) round-trips.
func TestDecodeManifestShortInputs(t *testing.T) {
	enc := randomManifest(rand.New(rand.NewSource(7)), 3, 2).encode()
	checkDecode(t, nil)
	for cut := 0; cut <= len(enc); cut++ {
		checkDecode(t, enc[:cut])
		checkDecode(t, withCRC(enc[:cut]))
	}
}

// FuzzDecodeManifest: a generated manifest survives encode → decode field
// for field; arbitrary bytes, and a prefix and a one-byte mutation of the
// valid encoding, each also with the checksum repaired, are held to
// checkDecode — never a panic, an untyped error, a manifest that encodes
// to other bytes, or memory out of proportion to the input.
func FuzzDecodeManifest(f *testing.F) {
	f.Add(uint8(2), uint8(3), int64(1), []byte(nil), uint32(0), uint8(1))
	f.Add(uint8(1), uint8(0), int64(2), []byte("ZKM1"), uint32(28), uint8(0xff))
	f.Add(uint8(40), uint8(9), int64(3), randomManifest(rand.New(rand.NewSource(3)), 1, 1).encode(), uint32(61), uint8(0x80))
	f.Fuzz(func(t *testing.T, numCols, numSegs uint8, seed int64, raw []byte, pos uint32, flip uint8) {
		m := randomManifest(rand.New(rand.NewSource(seed)), 1+int(numCols)%64, int(numSegs)%16)
		enc := m.encode()
		got, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("decoding a fresh encoding: %v", err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip changed the manifest:\n got %+v\nwant %+v", got, m)
		}

		checkDecode(t, raw)
		checkDecode(t, withCRC(raw))
		cut := int(pos) % len(enc)
		checkDecode(t, enc[:cut])
		checkDecode(t, withCRC(enc[:cut]))
		mut := slices.Clone(enc)
		mut[cut] ^= flip | 1
		checkDecode(t, withCRC(mut))
	})
}
