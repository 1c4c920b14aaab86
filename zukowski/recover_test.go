package zukowski_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultio"
	"repro/zukowski"
)

// recoverBytes runs RecoverColumn over buf and returns the rebuilt
// container plus its stats.
func recoverBytes[T zukowski.Integer](t *testing.T, buf []byte) ([]byte, zukowski.RecoverStats) {
	t.Helper()
	var out bytes.Buffer
	stats, err := zukowski.RecoverColumn[T](bytes.NewReader(buf), int64(len(buf)), &out)
	if err != nil {
		t.Fatalf("RecoverColumn: %v", err)
	}
	return out.Bytes(), stats
}

// checkRecovered opens the rebuilt container, verifies it end to end, and
// checks its values are exactly want.
func checkRecovered[T zukowski.Integer](t *testing.T, rebuilt []byte, want []T) {
	t.Helper()
	cr, err := zukowski.OpenColumn[T](rebuilt)
	if err != nil {
		t.Fatalf("OpenColumn on recovered container: %v", err)
	}
	if err := cr.Verify(); err != nil {
		t.Fatalf("Verify on recovered container: %v", err)
	}
	got, err := cr.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("recovered %d rows, want %d (or values differ)", len(got), len(want))
	}
}

// prefixRows returns the row count of the blocks wholly contained in
// buf[:cut], per the pristine container's directory.
func prefixRows[T zukowski.Integer](t *testing.T, data []byte, cut int) int {
	t.Helper()
	cr, err := zukowski.OpenColumn[T](data)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for b := 0; b < cr.NumBlocks(); b++ {
		info, err := cr.BlockInfo(b)
		if err != nil {
			t.Fatal(err)
		}
		if int(info.Offset)+info.Length > cut {
			break
		}
		rows += info.Count
	}
	return rows
}

// TestRecoverColumnTornTail: truncating a container anywhere — mid tail,
// mid directory, mid frame, even right after the header — recovers exactly
// the whole blocks of the surviving prefix, and the rebuilt container
// passes full verification.
func TestRecoverColumnTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	src := genValues[int64](rng, 5000)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, src)

	cuts := []int{
		len(data) - 1,   // inside the 24-byte tail
		len(data) - 30,  // inside the directory
		len(data) - 200, // deeper in the directory
		len(data) / 2,   // mid frame
		len(data) / 4,   //
		17,              // one byte into the first frame
		16,              // bare header
	}
	for _, cut := range cuts {
		rebuilt, stats := recoverBytes[int64](t, data[:cut])
		rows := prefixRows[int64](t, data, cut)
		checkRecovered(t, rebuilt, src[:rows])
		if stats.Rows != int64(rows) || stats.BytesIn != int64(cut) {
			t.Fatalf("cut %d: stats = %+v, want %d rows", cut, stats, rows)
		}
		// The damaged input does not open; the rebuilt one did (above).
		if _, err := zukowski.OpenColumn[int64](data[:cut]); err == nil {
			t.Fatalf("cut %d: torn container unexpectedly opens", cut)
		}
	}
}

// TestRecoverColumnIntact: recovering an undamaged container is a lossless
// footer rebuild — every row survives and only the old footer is dropped.
func TestRecoverColumnIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, blockValues := range []int{256, 1000} {
		src := genValues[uint32](rng, 4100)
		data := buildColumnV2[uint32](t, nil, blockValues, src)
		rebuilt, stats := recoverBytes[uint32](t, data)
		checkRecovered(t, rebuilt, src)
		cr, err := zukowski.OpenColumn[uint32](data)
		if err != nil {
			t.Fatal(err)
		}
		footer := len(data) - 16
		for b := 0; b < cr.NumBlocks(); b++ {
			info, err := cr.BlockInfo(b)
			if err != nil {
				t.Fatal(err)
			}
			footer -= info.Length
		}
		if stats.DroppedBytes != int64(footer) {
			t.Fatalf("blockValues %d: dropped %d bytes, want the %d-byte footer", blockValues, stats.DroppedBytes, footer)
		}
		if stats.BytesOut != int64(len(rebuilt)) {
			t.Fatalf("BytesOut = %d, wrote %d", stats.BytesOut, len(rebuilt))
		}
	}
}

// TestRecoverColumnBitFlip: a flipped payload byte stops the walk at the
// damaged frame; everything before it survives bit-exact.
func TestRecoverColumnBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	src := genValues[int64](rng, 5000)
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, src)
	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 3
	info, err := cr.BlockInfo(bad)
	if err != nil {
		t.Fatal(err)
	}
	damaged := bytes.Clone(data)
	damaged[int(info.Offset)+info.Length-2] ^= 0x40

	rebuilt, stats := recoverBytes[int64](t, damaged)
	checkRecovered(t, rebuilt, src[:bad*512])
	if stats.Blocks != bad {
		t.Fatalf("recovered %d blocks, want %d", stats.Blocks, bad)
	}
	if stats.DroppedBytes == 0 {
		t.Fatal("bit-flip recovery dropped nothing")
	}
}

// TestRecoverColumnRejects: inputs without a usable header are refused
// with typed errors; a valid header over garbage yields a valid empty
// container.
func TestRecoverColumnRejects(t *testing.T) {
	var out bytes.Buffer
	if _, err := zukowski.RecoverColumn[int64](bytes.NewReader(nil), 0, &out); !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("empty input err = %v", err)
	}
	junk := []byte("this is not a column container at all!!!")
	if _, err := zukowski.RecoverColumn[int64](bytes.NewReader(junk), int64(len(junk)), &out); !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("junk input err = %v", err)
	}
	// Element size mismatch is refused rather than mis-decoded.
	data := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, genValues[int64](rand.New(rand.NewSource(95)), 1000))
	if _, err := zukowski.RecoverColumn[int16](bytes.NewReader(data), int64(len(data)), &out); !errors.Is(err, zukowski.ErrCorruptColumn) {
		t.Fatalf("elem mismatch err = %v", err)
	}
	// Valid header, garbage frames: zero blocks, but a well-formed empty
	// container.
	garbled := append(bytes.Clone(data[:16]), []byte(strings.Repeat("x", 100))...)
	out.Reset()
	stats, err := zukowski.RecoverColumn[int64](bytes.NewReader(garbled), int64(len(garbled)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 0 || stats.Rows != 0 {
		t.Fatalf("stats = %+v, want empty", stats)
	}
	checkRecovered[int64](t, out.Bytes(), nil)
}

// TestTornWriteRecovery: the end-to-end crash story — a writer dies mid
// stream (faultio.Writer), the partial container does not open, and
// RecoverColumn salvages every whole block that reached the file.
func TestTornWriteRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	src := genValues[int64](rng, 5000)
	whole := buildColumnV2(t, zukowski.PFOR[int64]{}, 512, src)

	for _, failAfter := range []int64{20, int64(len(whole)) / 3, int64(len(whole)) - 12} {
		var partial bytes.Buffer
		tw := &faultio.Writer{W: &partial, FailAfter: failAfter}
		cw, err := zukowski.NewColumnWriter(tw, zukowski.PFOR[int64]{}, 512)
		if err != nil {
			t.Fatal(err)
		}
		err = cw.Write(src)
		if err == nil {
			err = cw.Close()
		}
		if !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("failAfter %d: torn write err = %v, want ErrInjected", failAfter, err)
		}
		if _, err := zukowski.OpenColumn[int64](partial.Bytes()); err == nil {
			t.Fatalf("failAfter %d: torn container opens", failAfter)
		}
		rebuilt, _ := recoverBytes[int64](t, partial.Bytes())
		rows := prefixRows[int64](t, whole, partial.Len())
		checkRecovered(t, rebuilt, src[:rows])
	}
}
