// Command zkingest drives and checks a zktable directory — the
// workhorse of the crash-recovery CI job.
//
// Ingest mode (default) opens the table at -dir (creating it with -cols
// int64 columns if absent) and appends -segments segments of -rows
// synthetic rows each (-segments 0 appends forever), printing one line
// per committed generation. The CI kill loop runs it in the background
// and SIGKILLs it at a random point; whatever generation last printed
// must survive reopen intact.
//
// -tear N makes every byte stream the table writes fail after N total
// bytes (segment columns and manifests alike, via the same
// faultio.Writer the crash tests use), turning one run into one
// deterministic torn-write experiment: the append must fail, and the
// directory must still verify at the previous generation.
//
// -verify reopens the table read-only, runs the full fsck walk (every
// block of every column checked against the manifest), scans every row
// it serves, and prints a JSON report; the exit status is non-zero if
// anything — fsck problems, quarantined segments, a fallback to an
// older generation, or a scan/manifest row-count mismatch — is off.
//
// Examples:
//
//	zkingest -dir /tmp/t -cols 3 -rows 5000 -segments 4
//	zkingest -dir /tmp/t -rows 5000 -segments 1 -tear 10000
//	zkingest -dir /tmp/t -verify
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/experiments"
	"repro/internal/faultio"
	"repro/zktable"
	"repro/zukowski"
)

func main() {
	var (
		dir      = flag.String("dir", "", "table directory (required)")
		cols     = flag.Int("cols", 3, "columns when creating a new table")
		rows     = flag.Int("rows", 5000, "rows per appended segment")
		segments = flag.Int("segments", 0, "segments to append (0 = until killed)")
		seed     = flag.Int64("seed", 1, "synthetic data seed")
		block    = flag.Int("block", 4096, "values per block when creating a new table")
		codec    = flag.String("codec", "", "codec for appended segments (empty = per-block auto)")
		tear     = flag.Int64("tear", -1, "fail every write stream after this many total bytes (torn-write experiment)")
		verify   = flag.Bool("verify", false, "verify the table instead of ingesting: fsck + full scan, JSON report")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "zkingest: -dir is required")
		os.Exit(2)
	}
	if *verify {
		os.Exit(runVerify(*dir))
	}
	os.Exit(runIngest(*dir, *cols, *rows, *segments, *seed, *block, *codec, *tear))
}

// tornBudget makes every write stream the table opens fail once tear
// bytes have passed through in total, across files — the same global
// budget the zktable crash tests meter, so a budget can land inside any
// file of a commit: an early column, the last column, or the manifest.
type tornBudget struct{ remaining int64 }

type meteredWriter struct {
	tb *tornBudget
	w  io.Writer
}

func (m *meteredWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.tb.remaining -= int64(n)
	return n, err
}

func (tb *tornBudget) wrap(_ string, w io.Writer) io.Writer {
	return &faultio.Writer{W: &meteredWriter{tb: tb, w: w}, FailAfter: max(tb.remaining, 0)}
}

func runIngest(dir string, cols, rows, segments int, seed int64, block int, codec string, tear int64) int {
	opts := zktable.Options{Codec: codec}
	if tear >= 0 {
		tb := &tornBudget{remaining: tear}
		opts.WriteWrapper = tb.wrap
	}

	var tb *zktable.Table[int64]
	if zktable.IsTableDir(dir) {
		t, rep, err := zktable.Open[int64](dir, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zkingest: open: %v\n", err)
			return 1
		}
		tb = t
		fmt.Printf("opened generation=%d rows=%d segments=%d swept=%d\n",
			rep.Generation, rep.Rows, rep.Segments, len(rep.Swept))
		if len(rep.Quarantined) > 0 {
			fmt.Fprintf(os.Stderr, "zkingest: %d segments quarantined (%d rows unavailable)\n",
				len(rep.Quarantined), rep.RowsUnavailable)
			return 1
		}
	} else {
		names := make([]string, cols)
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
		}
		t, err := zktable.Create[int64](dir, names, block, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zkingest: create: %v\n", err)
			return 1
		}
		tb = t
		fmt.Printf("created generation=%d cols=%d block=%d\n", tb.Generation(), cols, block)
	}
	defer tb.Close()

	ncols := len(tb.Columns())
	rng := rand.New(rand.NewSource(seed + int64(tb.Generation())))
	for s := 0; segments == 0 || s < segments; s++ {
		seg := make([][]int64, ncols)
		for c := 0; c < ncols; c++ {
			if c == 0 {
				seg[c] = experiments.SynthSorted(rng, rows, 3)
			} else {
				seg[c] = experiments.SynthPFOR(rng, rows, 10, 0.02)
			}
		}
		gen, err := tb.Append(seg)
		if err != nil {
			if errors.Is(err, faultio.ErrInjected) {
				// The torn-write experiment fired as scheduled: the commit
				// failed mid-write and the previous generation must still
				// verify (-verify checks that next).
				fmt.Printf("torn generation=%d rows=%d\n", tb.Generation(), tb.Rows())
				return 0
			}
			fmt.Fprintf(os.Stderr, "zkingest: append: %v\n", err)
			return 1
		}
		fmt.Printf("committed generation=%d rows=%d segments=%d\n", gen, tb.Rows(), tb.NumSegments())
	}
	if tear >= 0 {
		// The budget outlived the run: every write fit under it, so the
		// experiment degenerated to a clean ingest. Still fine — the
		// verifier decides — but say so.
		fmt.Printf("tear budget never reached\n")
	}
	return 0
}

// verifyReport is the JSON the CI job archives per iteration.
type verifyReport struct {
	Dir              string   `json:"dir"`
	Generation       uint64   `json:"generation"`
	Rows             int64    `json:"rows"`
	Segments         int      `json:"segments"`
	BlocksVerified   int      `json:"blocks_verified"`
	Orphans          int      `json:"orphans"`
	CorruptManifests []string `json:"corrupt_manifests,omitempty"`
	FellBack         bool     `json:"fell_back"`
	Quarantined      int      `json:"quarantined_segments"`
	RowsUnavailable  int64    `json:"rows_unavailable"`
	ScannedRows      int64    `json:"scanned_rows"`
	Problems         []string `json:"problems,omitempty"`
	OK               bool     `json:"ok"`
}

// runVerify is the post-crash acceptance check: the directory must hold
// a fully intact committed generation. Every block of every column is
// re-verified against the manifest (Fsck), the table must reopen without
// falling back or quarantining anything, and a full exact scan must
// serve exactly the manifest's row count.
func runVerify(dir string) int {
	out := verifyReport{Dir: dir}
	fail := func(format string, args ...any) int {
		out.Problems = append(out.Problems, fmt.Sprintf(format, args...))
		json.NewEncoder(os.Stdout).Encode(out)
		return 1
	}

	rep, err := zktable.Fsck(dir)
	if err != nil {
		return fail("fsck: %v", err)
	}
	out.Generation = rep.Generation
	out.Rows = rep.Rows
	out.Segments = rep.Segments
	out.BlocksVerified = rep.BlocksVerified
	out.Orphans = len(rep.Orphans)
	out.CorruptManifests = rep.CorruptManifests
	out.Problems = append(out.Problems, rep.Problems...)

	info, err := zktable.Peek(dir)
	if err != nil {
		return fail("peek: %v", err)
	}
	var scanned int64
	var orep *zktable.OpenReport
	switch info.WidthBytes {
	case 1:
		scanned, orep, err = scanCount[int8](dir)
	case 2:
		scanned, orep, err = scanCount[int16](dir)
	case 4:
		scanned, orep, err = scanCount[int32](dir)
	default:
		scanned, orep, err = scanCount[int64](dir)
	}
	out.ScannedRows = scanned
	if orep != nil {
		out.FellBack = orep.FellBack
		out.Quarantined = len(orep.Quarantined)
		out.RowsUnavailable = orep.RowsUnavailable
	}
	if err != nil {
		return fail("scan: %v", err)
	}
	if orep.FellBack {
		out.Problems = append(out.Problems, "open fell back to an older generation")
	}
	for _, q := range orep.Quarantined {
		out.Problems = append(out.Problems, fmt.Sprintf("segment %d quarantined: %v", q.Seg, q.Err))
	}
	if scanned != rep.Rows {
		out.Problems = append(out.Problems, fmt.Sprintf("scan served %d rows, manifest commits %d", scanned, rep.Rows))
	}
	out.OK = len(out.Problems) == 0
	json.NewEncoder(os.Stdout).Encode(out)
	if !out.OK {
		return 1
	}
	return 0
}

// scanCount reopens the table read-only and counts every row an exact
// full scan serves.
func scanCount[T zukowski.Integer](dir string) (int64, *zktable.OpenReport, error) {
	tb, rep, err := zktable.Open[T](dir, zktable.Options{ReadOnly: true})
	if err != nil {
		return 0, nil, err
	}
	defer tb.Close()
	var n int64
	err = tb.Run(context.Background(), zukowski.Query[T]{}, func(_ int, rows []int64, _ [][]T) bool {
		n += int64(len(rows))
		return true
	})
	return n, rep, err
}
