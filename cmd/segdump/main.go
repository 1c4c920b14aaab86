// Command segdump inspects serialized compressed storage: either a single
// compressed segment (the Figure-3 layout: header fields, section sizes,
// per-group exception statistics) or a whole ZKC2 column container, for
// which it prints the block directory with per-block checksum status and
// min/max zone maps. Useful when debugging storage files.
//
// segdump is also a CI/ops corruption probe: it exits non-zero whenever
// the input fails validation — an unreadable container or segment, or any
// block whose checksum fails — so a cron job or pipeline step can gate on
// its exit code alone. A container in a retired layout is refused
// with a typed error. Pass -verify to skip the per-block table and print
// only the verification summary.
//
// Pass -repair out.zkc to salvage a damaged container: the readable
// frame prefix is recovered (zukowski.RecoverColumn), the directory is
// rebuilt with fresh checksums and zone maps, and the result is written
// atomically to out.zkc. segdump -repair exits zero whenever recovery
// produced a valid container, even an empty one; inspect the printed
// stats to see how much survived.
//
// Pass a zktable directory (or -fsck) to run the table-level
// consistency walk instead: segdump picks the manifest generation startup
// recovery would serve and verifies every block payload of every
// committed segment column against the manifest's hoisted checksums and
// zone maps, exiting non-zero on any mismatch. -verify on a directory
// prints only the one-line summary. The walk is read-only, so it is safe
// against a live or just-crashed table.
//
// With no arguments it generates a demo segment and dumps it; pass a file
// path to dump a segment or column from disk, with -t choosing the
// element type.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/zktable"
	"repro/zukowski"
)

func main() {
	elem := flag.String("t", "int64", "element type: int8|int16|int32|int64|uint8|uint16|uint32|uint64")
	verifyOnly := flag.Bool("verify", false, "verify integrity only: print a one-line summary instead of the block table, still exiting non-zero on any corrupt block")
	repairOut := flag.String("repair", "", "salvage the readable prefix of a damaged column container into this output path")
	fsckDir := flag.Bool("fsck", false, "treat the argument as a zktable directory and run the full offline consistency walk")
	flag.Parse()

	var buf []byte
	if flag.NArg() >= 1 {
		st, err := os.Stat(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		if *fsckDir || st.IsDir() {
			if err := fsck(flag.Arg(0), *verifyOnly); err != nil {
				fmt.Fprintf(os.Stderr, "segdump: fsck: %v\n", err)
				os.Exit(1)
			}
			return
		}
		buf, err = os.ReadFile(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Println("(no file given: dumping a generated demo segment)")
		rng := rand.New(rand.NewSource(1))
		vals := make([]int64, 10_000)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
			if rng.Intn(25) == 0 {
				vals[i] = rng.Int63()
			}
		}
		var err error
		buf, err = zukowski.PFOR[int64]{Base: 0, Width: 10}.Encode(nil, vals)
		if err != nil {
			log.Fatal(err)
		}
		*elem = "int64"
	}

	if *repairOut != "" {
		if err := repair(*elem, *repairOut, buf); err != nil {
			fmt.Fprintf(os.Stderr, "segdump: repair: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*elem, *verifyOnly, buf); err != nil {
		fmt.Fprintf(os.Stderr, "segdump: %v\n", err)
		os.Exit(1)
	}
}

// fsck runs the table-level consistency walk and renders the report. A
// non-nil return (unusable directory or any integrity problem) makes the
// process exit non-zero; orphan files — the normal debris of a crash —
// are reported but do not fail the check.
func fsck(dir string, verifyOnly bool) error {
	rep, err := zktable.Fsck(dir)
	if err != nil {
		return err
	}
	if !verifyOnly {
		fmt.Printf("table:         %s\n", rep.Dir)
		fmt.Printf("generation:    %d\n", rep.Generation)
		fmt.Printf("rows:          %d in %d segments\n", rep.Rows, rep.Segments)
		fmt.Printf("columns:       %v\n", rep.Columns)
		fmt.Printf("blocks:        %d payloads verified\n", rep.BlocksVerified)
		for _, o := range rep.Orphans {
			fmt.Printf("orphan:        %s (informational; swept by the next open)\n", o)
		}
		for _, m := range rep.CorruptManifests {
			fmt.Printf("CORRUPT:       %s\n", m)
		}
		for _, p := range rep.Problems {
			fmt.Printf("PROBLEM:       %s\n", p)
		}
	}
	if !rep.OK() {
		return fmt.Errorf("%d problems in generation %d", len(rep.Problems), rep.Generation)
	}
	fmt.Printf("table verified: generation %d, %d rows, %d segments, %d blocks checked, %d orphans\n",
		rep.Generation, rep.Rows, rep.Segments, rep.BlocksVerified, len(rep.Orphans))
	return nil
}

// repair salvages the container in buf into outPath. The recovered bytes
// are staged in a temp file beside outPath and renamed into place, so a
// crash mid-repair never leaves a half-written output.
func repair(elem, outPath string, buf []byte) error {
	switch elem {
	case "int8":
		return repairAs[int8](outPath, buf)
	case "int16":
		return repairAs[int16](outPath, buf)
	case "int32":
		return repairAs[int32](outPath, buf)
	case "int64":
		return repairAs[int64](outPath, buf)
	case "uint8":
		return repairAs[uint8](outPath, buf)
	case "uint16":
		return repairAs[uint16](outPath, buf)
	case "uint32":
		return repairAs[uint32](outPath, buf)
	case "uint64":
		return repairAs[uint64](outPath, buf)
	}
	return fmt.Errorf("unknown element type %q", elem)
}

func repairAs[T zukowski.Integer](outPath string, buf []byte) error {
	stats, err := zukowski.RecoverColumnFile[T](bytes.NewReader(buf), int64(len(buf)), outPath)
	if err != nil {
		return err
	}
	fmt.Printf("recovered %d blocks, %d rows: %d B in, %d B out, %d B dropped\n",
		stats.Blocks, stats.Rows, stats.BytesIn, stats.BytesOut, stats.DroppedBytes)
	return nil
}

// run dumps one segment or container; a non-nil error (unreadable input
// or any corrupt block) makes the process exit non-zero.
func run(elem string, verifyOnly bool, buf []byte) error {
	switch elem {
	case "int8":
		return dump[int8](buf, verifyOnly)
	case "int16":
		return dump[int16](buf, verifyOnly)
	case "int32":
		return dump[int32](buf, verifyOnly)
	case "int64":
		return dump[int64](buf, verifyOnly)
	case "uint8":
		return dump[uint8](buf, verifyOnly)
	case "uint16":
		return dump[uint16](buf, verifyOnly)
	case "uint32":
		return dump[uint32](buf, verifyOnly)
	case "uint64":
		return dump[uint64](buf, verifyOnly)
	}
	return fmt.Errorf("unknown element type %q", elem)
}

// isColumn sniffs the container magic ("ZKC?") without committing to a
// version — dumpColumn reports unreadable containers properly.
func isColumn(buf []byte) bool {
	return len(buf) >= 4 && buf[0] == 'Z' && buf[1] == 'K' && buf[2] == 'C'
}

func dump[T zukowski.Integer](buf []byte, verifyOnly bool) error {
	if isColumn(buf) {
		return dumpColumn[T](buf, verifyOnly)
	}
	return dumpSegment[T](buf, verifyOnly)
}

// dumpColumn prints a column container: totals and the block directory
// with checksum status and zone maps. Every block is verified; the first
// failure is returned (after the full table has printed, so the damaged
// blocks are all visible).
func dumpColumn[T zukowski.Integer](buf []byte, verifyOnly bool) error {
	cr, err := zukowski.OpenColumn[T](buf)
	if err != nil {
		return fmt.Errorf("not a valid column container: %w", err)
	}
	if !verifyOnly {
		fmt.Printf("format:        ZKC2\n")
		fmt.Printf("values:        %d in %d blocks\n", cr.Len(), cr.NumBlocks())
		fmt.Printf("sizes:         container %d B, raw %d B, ratio %.2fx\n",
			cr.CompressedBytes(), cr.UncompressedBytes(), cr.Ratio())
		fmt.Printf("integrity:     per-block CRC32-C + directory checksum (verified on open)\n")
		fmt.Println()
		fmt.Printf("%-6s %10s %9s %8s %-9s %s\n", "block", "offset", "bytes", "values", "checksum", "zone map")
	}
	var firstErr error
	failed := 0
	for b := 0; b < cr.NumBlocks(); b++ {
		info, err := cr.BlockInfo(b)
		if err != nil {
			return err
		}
		status := "ok"
		if err := cr.VerifyBlock(b); err != nil {
			status = "FAIL"
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
		if verifyOnly {
			continue
		}
		checksum := fmt.Sprintf("%08x", info.CRC32C)
		if status != "ok" {
			checksum += "!"
		}
		fmt.Printf("%-6d %10d %9d %8d %-9s [%v, %v]\n", b, info.Offset, info.Length, info.Count, checksum, info.Min, info.Max)
	}
	if firstErr != nil {
		return fmt.Errorf("%d of %d blocks corrupt: %w", failed, cr.NumBlocks(), firstErr)
	}
	fmt.Printf("all %d blocks verified\n", cr.NumBlocks())
	return nil
}

func dumpSegment[T zukowski.Integer](buf []byte, verifyOnly bool) error {
	st, err := zukowski.Inspect[T](buf)
	if err != nil {
		return fmt.Errorf("not a valid segment: %w", err)
	}
	if verifyOnly {
		fmt.Printf("segment verified: %s, %d values, %d B\n", st.Scheme, st.NumValues, st.EncodedBytes)
		return nil
	}
	fmt.Printf("scheme:        %s\n", st.Scheme)
	fmt.Printf("bit width:     %d\n", st.BitWidth)
	fmt.Printf("values:        %d (%d groups of %d)\n", st.NumValues, st.Groups, zukowski.GroupSize)
	if st.DictEntries > 0 {
		fmt.Printf("dictionary:    %d entries\n", st.DictEntries)
	}
	fmt.Printf("exceptions:    %d (E' = %.4f)\n", st.Exceptions, st.ExceptionRate)
	fmt.Printf("sizes:         segment %d B, raw %d B, ratio %.2fx\n",
		st.EncodedBytes, st.UncompressedBytes, st.Ratio)
	fmt.Printf("groups w/ exc: %d of %d (max %d exceptions in one group)\n",
		st.GroupsWithExceptions, st.Groups, st.MaxGroupExceptions)
	return nil
}
