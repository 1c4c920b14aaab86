package main

// The cost sheet: what one call into each of the inner layers costs over
// the table's own blocks — its code words, widths, exception lists and
// dictionaries, not synthetic ones. It does not depend on the workload's
// queries, so for one seed it reads the same on every workload; the replay
// supplies what does depend on them.

import (
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/bitpack"
	"repro/internal/core"
	"repro/internal/segment"
	"repro/zukowski"
)

const (
	sheetBlocks = 32 // blocks sampled per column, evenly spread over the segment
	sheetReps   = 5  // each call is timed this often and its fastest run kept
)

// fastest returns the shortest of sheetReps runs of f; prepare, when not
// nil, restores f's input before each run, untimed.
func fastest(prepare, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < sheetReps; i++ {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return best
}

// cost accumulates one kind of call over the sampled blocks.
type cost struct {
	time  time.Duration
	units float64 // rows, blocks or bytes, as the metric says
}

func (c *cost) add(d time.Duration, units float64) {
	c.time += d
	c.units += units
}

func (c *cost) nsPer() float64 { return ratio(float64(c.time.Nanoseconds()), c.units) }

// perSecond is units per second, scaled: 1e9 for GB/s, 1e6 for MB/s.
func (c *cost) perSecond(scale float64) float64 {
	return ratio(c.units/scale, c.time.Seconds())
}

// costSheet fills values with the sheet's metrics, measured over sampled
// blocks of one segment: rd are its readers (every fetch a cache hit after
// the first) and raw its columns as they were appended.
func costSheet(values map[string]float64, rd []*zukowski.ColumnReader[int64], raw [][]int64) error {
	var (
		parse, marshal, decode, mask, refine, union, gather cost
		analyze, compress, encode, read                     cost
		unpack, pack, selMask, refMask, get, put            cost
		storedBytes, rawBytes, exceptions, values64         float64

		dec                  core.Decoder[int64]
		blk                  core.Block[int64]
		quarter, half, work  core.SelectionVector
		dst, sorted          []int64
		codes, packed, words []uint32
		frameBuf             []byte
		frames               [][]byte
	)
	nb := rd[0].NumBlocks()
	step := max(1, nb/sheetBlocks)
	rowStart := make([]int, nb)
	for b, at := 0, 0; b < nb; b++ {
		info, err := rd[0].BlockInfo(b)
		if err != nil {
			return err
		}
		rowStart[b] = at
		at += info.Count
	}
	for col := 0; col < numCols; col++ {
		for b := 0; b < nb; b += step {
			frame, err := rd[col].FrameBytes(b)
			if err != nil {
				return err
			}
			frames = append(frames, frame)
			info, err := rd[col].BlockInfo(b)
			if err != nil {
				return err
			}
			vals := raw[col][rowStart[b] : rowStart[b]+info.Count]
			n := float64(len(vals))
			storedBytes += float64(len(frame))
			rawBytes += n * 8

			read.add(fastest(nil, func() { dst, err = rd[col].ReadBlock(b, dst[:0]) }), n)
			if err != nil {
				return err
			}
			encode.add(fastest(nil, func() { frameBuf, err = zukowski.Auto[int64]{}.Encode(frameBuf[:0], vals) }), n*8)
			if err != nil {
				return err
			}
			var choice core.Choice[int64]
			analyze.add(fastest(nil, func() { choice = core.Choose(core.Sample(vals, core.DefaultSampleSize)) }), n)
			if !segment.IsCompressed(frame) {
				continue // stored raw: nothing below is ever called on it
			}
			var fresh *core.Block[int64]
			compress.add(fastest(nil, func() { fresh = choice.Compress(vals) }), n)
			marshal.add(fastest(nil, func() { frameBuf = segment.Marshal(fresh) }), 1)
			parse.add(fastest(nil, func() { err = segment.UnmarshalIntoTrusted(&blk, frame) }), 1)
			if err != nil {
				return err
			}
			exceptions += float64(blk.ExceptionCount())
			values64 += n
			dst = slices.Grow(dst[:0], blk.N)[:blk.N]
			decode.add(fastest(nil, func() { dec.Decompress(&blk, dst) }), n)

			// Predicates from the block's own quartiles, so each selects a
			// known share whatever the column's distribution.
			sorted = append(sorted[:0], vals...)
			slices.Sort(sorted)
			at := func(q float64) int64 { return sorted[int(q*float64(len(sorted)-1))] }
			q25, q50, q53, q75 := at(0.25), at(0.50), at(0.53), at(0.75)
			mask.add(fastest(nil, func() { dec.DecompressMask(&blk, q25, q50, &quarter) }), n)
			dec.DecompressMask(&blk, q25, q75, &half)
			restore := func(from *core.SelectionVector) func() {
				return func() {
					work.Reset(blk.N)
					work.Or(from)
				}
			}
			refine.add(fastest(restore(&half), func() { dec.RefineMask(&blk, q25, q50, &work) }), n)
			union.add(fastest(restore(&quarter), func() { dec.UnionMask(&blk, q50, q75, &work) }), n)
			dec.DecompressMask(&blk, q50, q53, &work)
			if sel := work.Count(); sel > 0 {
				gather.add(fastest(nil, func() { dst = dec.DecompressSelected(&blk, &work, dst[:0]) }), float64(sel))
			}

			// The kernels under those calls, over the same code words; a
			// GB is 1e9 bytes of the 32-bit codes the kernel stands for.
			groups := blk.N / 32
			full := float64(groups * 32 * 4)
			codes = slices.Grow(codes[:0], blk.N)[:blk.N]
			packed = slices.Grow(packed[:0], len(blk.Codes))[:len(blk.Codes)]
			words = slices.Grow(words[:0], groups)[:groups]
			span := uint32(1)<<blk.B/4 - 1
			unpack.add(fastest(nil, func() { bitpack.Unpack(codes, blk.Codes, blk.B) }), float64(blk.N*4))
			pack.add(fastest(nil, func() { bitpack.Pack(packed, codes, blk.B) }), float64(blk.N*4))
			selMask.add(fastest(nil, func() { bitpack.SelectMask(words, blk.Codes, blk.B, 0, span) }), full)
			setAll := func() {
				for i := range words {
					words[i] = ^uint32(0)
				}
			}
			refMask.add(fastest(setAll, func() { bitpack.RefineMask(words, blk.Codes, blk.B, 0, span) }), full)
		}
	}

	// ColumnWriter over a run of whole blocks of every column.
	var write cost
	for col := 0; col < numCols; col++ {
		vals := raw[col][:min(len(raw[col]), sheetBlocks*blockValues)]
		var err error
		write.add(fastest(nil, func() {
			var cw *zukowski.ColumnWriter[int64]
			if cw, err = zukowski.NewColumnWriter[int64](io.Discard, nil, blockValues); err != nil {
				return
			}
			if err = cw.Write(vals); err == nil {
				err = cw.Close()
			}
		}), float64(len(vals)*8))
		if err != nil {
			return err
		}
	}

	// BlockLRU called directly, with room for every sampled frame.
	lru := zukowski.NewBlockLRU(int64(2*storedBytes) + 1<<20)
	put.add(fastest(nil, func() {
		for i, f := range frames {
			lru.Put(1, i, f)
		}
	}), float64(len(frames)))
	get.add(fastest(nil, func() {
		for i := range frames {
			if lru.Get(1, i) == nil {
				panic("bench: BlockLRU lost a frame it had room for")
			}
		}
	}), float64(len(frames)))

	values["bitpack.select_mask_gb_s"] = selMask.perSecond(1e9)
	values["bitpack.refine_mask_gb_s"] = refMask.perSecond(1e9)
	values["bitpack.unpack_gb_s"] = unpack.perSecond(1e9)
	values["bitpack.pack_gb_s"] = pack.perSecond(1e9)
	values["segment.parse_ns_block"] = parse.nsPer()
	values["segment.marshal_ns_block"] = marshal.nsPer()
	values["core.mask_ns_row"] = mask.nsPer()
	values["core.refine_ns_row"] = refine.nsPer()
	values["core.union_ns_row"] = union.nsPer()
	values["core.gather_ns_row"] = gather.nsPer()
	values["core.decode_ns_row"] = decode.nsPer()
	values["core.analyze_ns_row"] = analyze.nsPer()
	values["core.compress_ns_row"] = compress.nsPer()
	values["core.exception_rate"] = ratio(exceptions, values64)
	values["zukowski.codec.encode_mb_s"] = encode.perSecond(1e6)
	values["zukowski.codec.ratio"] = ratio(rawBytes, storedBytes)
	values["zukowski.column.write_mb_s"] = write.perSecond(1e6)
	values["zukowski.column.read_ns_row"] = read.nsPer()
	values["zukowski.cache.get_ns"] = get.nsPer()
	values["zukowski.cache.put_ns"] = put.nsPer()
	return nil
}

// memBandwidth is the host's read bandwidth in GB/s over the table's raw
// columns: the calibration every report carries, because the sandbox's
// speed is not a constant.
func memBandwidth(cols [][]int64) float64 {
	var bytes float64
	for _, c := range cols {
		bytes += float64(len(c) * 8)
	}
	d := fastest(nil, func() {
		var s int64
		for _, c := range cols {
			for _, v := range c {
				s += v
			}
		}
		sumSink = s
	})
	return ratio(bytes/1e9, d.Seconds())
}

// sumSink keeps memBandwidth's loop alive.
var sumSink int64
