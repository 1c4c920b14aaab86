package zukowski

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/segment"
)

// This file adapts the patched-compression kernels of internal/core to the
// Codec contract. Each adapter validates its parameters (the kernels panic
// on misuse), chooses parameters with the paper's sample analyzer when none
// are fixed, and emits the Figure-3 segment layout of internal/segment.
//
// Empty inputs encode as an empty raw segment under every patched codec:
// with zero values there is nothing for a scheme to parameterize on.

// PFOR is Patched Frame-of-Reference: codes are unsigned b-bit offsets from
// a base value; values below the base or too far above it are stored as
// exceptions and patched in after the branch-free decode loop.
//
// The zero value chooses Base and Width per Encode call by running the
// paper's sample analyzer; setting Width fixes both (Base defaults to T's
// zero).
type PFOR[T Integer] struct {
	Base  T
	Width uint
}

// Name implements Codec.
func (PFOR[T]) Name() string { return "pfor" }

// Encode implements Codec.
func (c PFOR[T]) Encode(dst []byte, src []T) ([]byte, error) {
	if err := checkLen(len(src)); err != nil {
		return nil, err
	}
	if len(src) == 0 {
		return segment.AppendMarshalRaw(dst, src), nil
	}
	base, b := c.Base, c.Width
	if b == 0 {
		ch := core.AnalyzePFOR(core.Sample(src, core.DefaultSampleSize))
		base, b = ch.Base, ch.B
	} else if err := checkWidth[T](b); err != nil {
		return nil, err
	}
	return segment.AppendMarshal(dst, core.CompressPFOR(src, base, b)), nil
}

// Decode implements Codec.
func (PFOR[T]) Decode(dst []T, encoded []byte) ([]T, error) {
	return decodeSegment(dst, encoded)
}

// Get implements Codec.
func (PFOR[T]) Get(encoded []byte, i int) (T, error) { return segmentGet[T](encoded, i) }

// Stats implements Codec.
func (PFOR[T]) Stats(encoded []byte) (Stats, error) { return segmentStats[T](encoded) }

// PFORDelta applies PFOR to the differences between subsequent values — the
// scheme of choice for monotonic or near-monotonic sequences such as
// clustered keys and inverted-file document IDs (Section 5 of the paper).
//
// The zero value chooses DeltaBase and Width per Encode call via the sample
// analyzer; setting Width fixes both (DeltaBase defaults to T's zero, i.e.
// non-negative deltas).
type PFORDelta[T Integer] struct {
	DeltaBase T
	Width     uint
}

// Name implements Codec.
func (PFORDelta[T]) Name() string { return "pfor-delta" }

// Encode implements Codec.
func (c PFORDelta[T]) Encode(dst []byte, src []T) ([]byte, error) {
	if err := checkLen(len(src)); err != nil {
		return nil, err
	}
	if len(src) == 0 {
		return segment.AppendMarshalRaw(dst, src), nil
	}
	deltaBase, b := c.DeltaBase, c.Width
	if b == 0 {
		ch := core.AnalyzePFORDelta(core.Sample(src, core.DefaultSampleSize))
		deltaBase, b = ch.DeltaBase, ch.B
	} else if err := checkWidth[T](b); err != nil {
		return nil, err
	}
	// Chain the frame so the first delta equals deltaBase and codes to
	// zero, as the analyzer's Choice.Compress does.
	blk := core.CompressPFORDelta(src, src[0]-deltaBase, deltaBase, b)
	return segment.AppendMarshal(dst, blk), nil
}

// Decode implements Codec.
func (PFORDelta[T]) Decode(dst []T, encoded []byte) ([]T, error) {
	return decodeSegment(dst, encoded)
}

// Get implements Codec.
func (PFORDelta[T]) Get(encoded []byte, i int) (T, error) { return segmentGet[T](encoded, i) }

// Stats implements Codec.
func (PFORDelta[T]) Stats(encoded []byte) (Stats, error) { return segmentStats[T](encoded) }

// PDict is Patched Dictionary compression: b-bit codes index a dictionary
// of frequent values; values outside the dictionary become exceptions.
// Unlike plain dictionary coding it thrives on skewed distributions, since
// rare values need not widen the code domain.
//
// The zero value builds the dictionary from the most frequent sample values
// per Encode call; setting Width (and optionally Dict) fixes the
// parameters. A fixed Dict must hold at most 1<<Width entries.
type PDict[T Integer] struct {
	Dict  []T
	Width uint
}

// Name implements Codec.
func (PDict[T]) Name() string { return "pdict" }

// Encode implements Codec.
func (c PDict[T]) Encode(dst []byte, src []T) ([]byte, error) {
	if err := checkLen(len(src)); err != nil {
		return nil, err
	}
	if len(src) == 0 {
		return segment.AppendMarshalRaw(dst, src), nil
	}
	dict, b := c.Dict, c.Width
	if b == 0 {
		ch := core.AnalyzePDict(core.Sample(src, core.DefaultSampleSize))
		dict, b = ch.Dict, ch.B
	} else {
		if err := checkWidth[T](b); err != nil {
			return nil, err
		}
		// The segment format caps dictionary widths at MaxDictBits: the
		// decode side materializes 1<<b entries and refuses frames beyond
		// the cap, so wider widths would encode unreadable frames.
		if b > core.MaxDictBits {
			return nil, fmt.Errorf("%w: PDICT width %d exceeds %d bits", ErrWidthOutOfRange, b, core.MaxDictBits)
		}
		if len(dict) > 1<<b {
			return nil, fmt.Errorf("%w: dictionary of %d entries needs more than %d bits",
				ErrWidthOutOfRange, len(dict), b)
		}
	}
	return segment.AppendMarshal(dst, core.CompressPDict(src, dict, b)), nil
}

// Decode implements Codec.
func (PDict[T]) Decode(dst []T, encoded []byte) ([]T, error) {
	return decodeSegment(dst, encoded)
}

// Get implements Codec.
func (PDict[T]) Get(encoded []byte, i int) (T, error) { return segmentGet[T](encoded, i) }

// Stats implements Codec.
func (PDict[T]) Stats(encoded []byte) (Stats, error) { return segmentStats[T](encoded) }

// None stores values verbatim in a raw segment. It is the fallback the
// analyzer picks when no scheme beats uncoded storage, and a useful control
// in benchmarks.
type None[T Integer] struct{}

// Name implements Codec.
func (None[T]) Name() string { return "none" }

// Encode implements Codec.
func (None[T]) Encode(dst []byte, src []T) ([]byte, error) {
	if err := checkLen(len(src)); err != nil {
		return nil, err
	}
	return segment.AppendMarshalRaw(dst, src), nil
}

// Decode implements Codec.
func (None[T]) Decode(dst []T, encoded []byte) ([]T, error) {
	return decodeSegment(dst, encoded)
}

// Get implements Codec.
func (None[T]) Get(encoded []byte, i int) (T, error) { return segmentGet[T](encoded, i) }

// Stats implements Codec.
func (None[T]) Stats(encoded []byte) (Stats, error) { return segmentStats[T](encoded) }
