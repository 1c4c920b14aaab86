package zukowski

import (
	"repro/internal/core"
	"repro/internal/segment"
)

// Standalone frame decoding. A column container is not the only place a
// block frame can arrive from: a scan service that ships raw ZKC2 frames
// over the network (the paper's RAM–CPU argument extended to the wire —
// move compressed bits, decode at the consumer) hands the client exactly
// the per-block frames a ColumnWriter produced, stripped of their
// container. FrameDecoder decodes any such frame regardless of which
// registered codec wrote it — every one emits the segment layout, raw or
// patched — with full validation: a frame off the wire carries no
// container CRC, so the segment-level checksum is never skipped.

// FrameDecoder decodes standalone column block frames — the per-block
// byte strings a ColumnWriter emits, patched or raw segments. The zero
// value is ready to use. A FrameDecoder reuses its parse and unpack scratch
// across calls, so decoding frame after frame allocates only when the
// destination grows; it is not safe for concurrent use — give each
// goroutine its own.
type FrameDecoder[T Integer] struct {
	dec core.Decoder[T]
	blk core.Block[T]
}

// Decode appends frame's values to dst, returning the extended slice.
// Corrupt or truncated frames return ErrCorruptSegment (never a panic);
// frames of an unknown or retired format return ErrCorruptSegment as well.
func (d *FrameDecoder[T]) Decode(dst []T, frame []byte) (out []T, err error) {
	defer guardSegment(&err)
	if !segment.IsCompressed(frame) {
		return rawAppend[T](dst, frame)
	}
	if err := segment.UnmarshalInto(&d.blk, frame); err != nil {
		return nil, corrupt(err)
	}
	out, tail := grow(dst, d.blk.N)
	d.dec.Decompress(&d.blk, tail)
	return out, nil
}

// DecodeFrame decodes one standalone block frame with a throwaway
// FrameDecoder. Loops over many frames should hold a FrameDecoder
// instead, to reuse its scratch.
func DecodeFrame[T Integer](dst []T, frame []byte) ([]T, error) {
	var d FrameDecoder[T]
	return d.Decode(dst, frame)
}
