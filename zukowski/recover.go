package zukowski

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/segment"
)

// Column salvage. A container's directory lives at the end of the file,
// so a torn write — process death, ENOSPC, power loss mid-stream —
// leaves a file with valid frames but no footer, which the reader
// rejects wholesale. (Writers that must never expose a torn container
// stage it in a temp file, fsync and rename, as zktable does for every
// segment and manifest.)
//
// RecoverColumn salvages a container whose footer is missing or damaged
// by walking frames forward from the header. Every frame's byte length
// is computable from its own header (segment.FrameSize), so the walk
// needs no directory: each candidate frame is fully decoded under
// untrusted validation, and the walk stops at the first frame that fails
// — truncation, bit rot, or the old directory bytes. The surviving prefix is written out as a fresh
// ZKC2 container with a rebuilt directory (checksums and zone maps
// recomputed from the decoded values). This mirrors parquet's
// footer-recovery model: row groups before the damage survive,
// everything after is gone.

// RecoverColumnFile salvages the readable prefix of the container in r
// (see RecoverColumn) into a fresh container at path with all-or-nothing
// visibility: the rebuilt container is staged in a temp file in path's
// directory, fsynced, and renamed over path, so a crash leaves either
// the previous file (or no file) or the complete new container. Every
// failure — a recovery error, a failed write, sync, close or rename —
// closes and removes the temp file before returning, so a failed salvage
// never leaves a stray .tmp file for startup recovery to sweep.
func RecoverColumnFile[T Integer](r io.ReaderAt, size int64, path string) (RecoverStats, error) {
	return recoverColumnToFile[T](r, size, path, nil)
}

// recoverColumnToFile is RecoverColumnFile with an injectable writer
// wrapper, the seam the crash-safety tests use to tear the output stream
// at a chosen byte (faultio.Writer) and assert the cleanup contract.
func recoverColumnToFile[T Integer](r io.ReaderAt, size int64, path string, wrap func(io.Writer) io.Writer) (stats RecoverStats, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return RecoverStats{BytesIn: size}, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := io.Writer(tmp)
	if wrap != nil {
		w = wrap(w)
	}
	if stats, err = RecoverColumn[T](r, size, w); err != nil {
		return stats, err
	}
	if err = tmp.Sync(); err != nil {
		return stats, err
	}
	if err = tmp.Close(); err != nil {
		return stats, err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return stats, err
	}
	// Sync the directory so the rename itself survives a crash; best
	// effort, since not every filesystem supports fsync on a directory.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return stats, nil
}

// RecoverStats summarizes a RecoverColumn pass.
type RecoverStats struct {
	// Blocks and Rows count what survived into the rebuilt container.
	Blocks int
	Rows   int64

	// BytesIn is the size of the damaged input; BytesOut the size of the
	// rebuilt container; DroppedBytes the input bytes not salvaged (for an
	// undamaged container this is exactly its old footer, which is rebuilt
	// rather than copied).
	BytesIn      int64
	BytesOut     int64
	DroppedBytes int64
}

// recoverProbeSize covers the longest frame header: segment headers are
// 44 bytes.
const recoverProbeSize = 64

// RecoverColumn salvages the readable prefix of a column container whose
// directory footer is missing, torn or corrupt, writing a fresh ZKC2
// container to w. Frames are walked forward from the 16-byte header; each
// one is sized from its own header, fully decoded under untrusted
// validation (segment FNV checksums and all structural checks), and
// admitted only if it holds a plausible block. The walk stops at the
// first frame that fails — everything after a damaged frame is
// unreachable without a directory and is dropped. The rebuilt directory
// carries recomputed CRC32-C checksums and zone maps, so the output
// always passes Verify; recovering an intact container is a lossless
// footer rebuild.
//
// A container whose damage reaches the 16-byte header, or whose element
// size does not match T, cannot be recovered and returns an error, as
// does a container in a retired format. An output of zero blocks is still
// a valid, empty container.
func RecoverColumn[T Integer](r io.ReaderAt, size int64, w io.Writer) (RecoverStats, error) {
	stats := RecoverStats{BytesIn: size}
	if size < columnHeaderSize {
		return stats, fmt.Errorf("%w: %d bytes is too small for a container header", ErrCorruptColumn, size)
	}
	var hdr [columnHeaderSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return stats, fmt.Errorf("%w: %w reading header: %w", ErrCorruptColumn, ErrIO, err)
	}
	if err := checkMagic(hdr[:]); err != nil {
		return stats, err
	}
	if int(hdr[4]) != elemSize[T]() {
		return stats, fmt.Errorf("%w: element size %d, recovering as %d", ErrCorruptColumn, hdr[4], elemSize[T]())
	}
	blockValues := int(binary.LittleEndian.Uint32(hdr[8:]))
	if blockValues <= 0 || blockValues > MaxBlockValues {
		return stats, fmt.Errorf("%w: block size %d values", ErrCorruptColumn, blockValues)
	}

	// Emit a canonical header first (damage to the input's reserved header
	// bytes is healed rather than copied), then stream each frame as it
	// validates.
	hdr = [columnHeaderSize]byte{}
	copy(hdr[:4], columnMagic[:])
	hdr[4] = byte(elemSize[T]())
	binary.LittleEndian.PutUint32(hdr[8:], uint32(blockValues))
	if _, err := w.Write(hdr[:]); err != nil {
		return stats, err
	}
	stats.BytesOut = columnHeaderSize

	var (
		dir   []columnBlock
		total uint64
		vals  []T
		probe [recoverProbeSize]byte
		off   = int64(columnHeaderSize)
	)
	for off < size {
		n, _ := r.ReadAt(probe[:min(int64(recoverProbeSize), size-off)], off)
		frameLen, err := segment.FrameSize(probe[:n])
		if err != nil || off+int64(frameLen) > size {
			break
		}
		frame := make([]byte, frameLen)
		if _, err := r.ReadAt(frame, off); err != nil {
			break
		}
		if vals, err = decodeSegment[T](vals[:0], frame); err != nil {
			break
		}
		if len(vals) == 0 || len(vals) > blockValues {
			break
		}
		if _, err := w.Write(frame); err != nil {
			return stats, err
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		dir = append(dir, columnBlock{
			offset:  uint64(off),
			length:  uint32(frameLen),
			count:   uint32(len(vals)),
			crc:     crc32.Checksum(frame, castagnoli),
			minBits: zoneBits(lo),
			maxBits: zoneBits(hi),
		})
		total += uint64(len(vals))
		off += int64(frameLen)
		stats.Blocks++
		stats.Rows += int64(len(vals))
		stats.BytesOut += int64(frameLen)
	}
	stats.DroppedBytes = size - off

	footer := appendFooter(nil, dir, total)
	if _, err := w.Write(footer); err != nil {
		return stats, err
	}
	stats.BytesOut += int64(len(footer))
	return stats, nil
}
