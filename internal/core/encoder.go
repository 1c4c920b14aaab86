package core

import (
	"sync"
	"unsafe"
)

// Encoder is the reusable state of the write path: the scratch of the
// compression-mode analysis and the block under construction. Analysing
// and compressing block after block through one Encoder allocates nothing
// once its buffers have grown to the block size. What Choose and Compress
// return points into that state and is valid until the Encoder's next
// call. An Encoder is not safe for concurrent use; the package-level
// functions and the codecs take one per call from a pool (GetEncoder).
type Encoder[T Integer] struct {
	// Analysis.
	sort   sorter[T]
	cells  cells   // the window bound (widest)
	sample []T     // run sample of an input longer than the sample size
	hist   runs[T] // PDICT: run-length histogram of the sorted sample
	counts []int32 // PDICT: histogram entries by count
	dict   []T     // PDICT: the chosen dictionary (Choice.Dict)

	// Compression. deltas also serves the analysis, which is over by then.
	deltas    []T
	blk       Block[T]
	codes     []uint32
	miss      []int32 // exception positions (DC: those of the low cursor)
	missHi    []int32 // DC: exception positions of the high cursor
	positions []int32 // one group's exceptions, compulsory ones included
	lookup    dictLookup[T]
}

// Analyze runs the compression-mode analysis on a sample of at most
// DefaultSampleSize values of src; see Choose.
func (e *Encoder[T]) Analyze(src []T) Choice[T] {
	if len(src) <= DefaultSampleSize {
		return e.Choose(src)
	}
	e.sample = sampleInto(e.sample, src, DefaultSampleSize)
	return e.Choose(e.sample)
}

// Compress compresses src with the chosen scheme and parameters. For
// SchemeNone it returns nil (store verbatim).
func (e *Encoder[T]) Compress(c Choice[T], src []T) *Block[T] {
	switch c.Scheme {
	case SchemePFOR:
		return e.pfor(src, c.Base, c.B, detectPFORDC[T])
	case SchemePFORDelta:
		if len(src) == 0 {
			return e.pforDelta(src, 0, c.DeltaBase, c.B)
		}
		// Chain the frame so that the first delta equals DeltaBase and
		// codes to zero.
		return e.pforDelta(src, src[0]-c.DeltaBase, c.DeltaBase, c.B)
	case SchemePDict:
		return e.pdict(src, c.Dict, c.B)
	case SchemeNone:
		return nil
	}
	panic("core: cannot compress scheme " + c.Scheme.String())
}

// encoderPools recycles Encoders behind the stateless package-level
// functions and codecs, one pool per element width and signedness.
var encoderPools [8]sync.Pool

func encoderPool[T Integer]() *sync.Pool {
	var v T
	i := 0
	for size := unsafe.Sizeof(v); size > 1; size >>= 1 {
		i += 2
	}
	if v-1 < 0 { // zero minus one wraps to the maximum unless T is signed
		i++
	}
	return &encoderPools[i]
}

// GetEncoder takes an Encoder from the pool; Release returns it.
func GetEncoder[T Integer]() *Encoder[T] {
	// Distinct named types of one width share a pool; an Encoder of the
	// other type is dropped.
	if e, ok := encoderPool[T]().Get().(*Encoder[T]); ok {
		return e
	}
	return new(Encoder[T])
}

// Release returns e to the pool. Nothing e returned may be used afterwards.
func (e *Encoder[T]) Release() { encoderPool[T]().Put(e) }

// sized returns s resized to n elements, reusing its backing array when
// capacity allows. Contents are unspecified.
func sized[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
}
