package zukowski

import (
	"repro/internal/core"
	"repro/internal/segment"
)

// Auto is the self-tuning codec: each Encode call runs the paper's
// compression-mode analysis (Section 3.1, "Choosing Compression Schemes")
// on a sample of the input, picks the scheme and parameters minimizing the
// modeled bits per value, and encodes with the winner. When no scheme beats
// verbatim storage — or the winner's actual output ends up larger than a
// raw segment — the values are stored uncoded.
//
// Decode, Get and Stats dispatch on the frame header, so a reader needs no
// knowledge of which scheme the analyzer picked.
type Auto[T Integer] struct{}

// Name implements Codec.
func (Auto[T]) Name() string { return "auto" }

// Analysis reports the analyzer's decision for an input.
type Analysis struct {
	// Scheme is the chosen scheme's name ("PFOR", "PFOR-DELTA", "PDICT" or
	// "NONE") and Width its code width in bits.
	Scheme string
	Width  uint
	// BitsPerValue is the modeled compressed size in bits per value,
	// including projected exceptions and entry-point overhead.
	BitsPerValue float64
	// ExceptionRate is the projected effective exception rate E',
	// including compulsory exceptions (Figure 6 of the paper).
	ExceptionRate float64
	// DictEntries is the chosen dictionary size (PDICT only).
	DictEntries int
}

// plan is the decision behind both Encode and Analyze: the analyzer's
// choice for a sample of src and the block it compresses src to — or
// SchemeNone and no block, when src is empty, the model prefers raw storage,
// or the block the model preferred turns out no smaller than a raw segment
// on this particular input (the model decided on a sample). Both results
// live in e's scratch. src must pass checkLen.
func plan[T Integer](e *core.Encoder[T], src []T) (core.Choice[T], *core.Block[T]) {
	if len(src) > 0 {
		ch := e.Analyze(src)
		if blk := e.Compress(ch, src); blk != nil && blk.CompressedBytes() < 8+len(src)*elemSize[T]() {
			return ch, blk
		}
	}
	return core.Choice[T]{Scheme: core.SchemeNone, Bits: float64(8 * elemSize[T]())}, nil
}

// Analyze reports the decision Encode takes for src — NONE exactly when
// Encode stores src raw — without serializing anything. For an input no
// single frame can hold it reports the model's choice for a sample.
func (Auto[T]) Analyze(src []T) Analysis {
	e := core.GetEncoder[T]()
	defer e.Release()
	var ch core.Choice[T]
	if checkLen(len(src)) == nil {
		ch, _ = plan(e, src)
	} else {
		ch = e.Analyze(src)
	}
	return Analysis{
		Scheme:        ch.Scheme.String(),
		Width:         ch.B,
		BitsPerValue:  ch.Bits,
		ExceptionRate: ch.ExceptionRate,
		DictEntries:   len(ch.Dict),
	}
}

// Encode implements Codec.
func (Auto[T]) Encode(dst []byte, src []T) ([]byte, error) {
	if err := checkLen(len(src)); err != nil {
		return nil, err
	}
	e := core.GetEncoder[T]()
	defer e.Release()
	if _, blk := plan(e, src); blk != nil {
		return segment.AppendMarshal(dst, blk), nil
	}
	return segment.AppendMarshalRaw(dst, src), nil
}

// Decode implements Codec.
func (Auto[T]) Decode(dst []T, encoded []byte) ([]T, error) {
	return decodeSegment(dst, encoded)
}

// Get implements Codec.
func (Auto[T]) Get(encoded []byte, i int) (T, error) { return segmentGet[T](encoded, i) }

// Stats implements Codec.
func (Auto[T]) Stats(encoded []byte) (Stats, error) { return segmentStats[T](encoded) }
