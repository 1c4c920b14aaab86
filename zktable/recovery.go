package zktable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/zukowski"
)

// Every recovery decision is made here once: which manifest is served
// and which are retained (manifestsOnDisk), which files are debris
// (debris), how a segment column becomes a reader (openColumn), what a
// manifest commits about a container (hoist) and whether a container is
// the one committed (verifyAgainstManifest). Open, Fsck, Peek and the
// commit path all ask these, so what Fsck reports is what Open does.

// manifestsOnDisk decodes every MANIFEST-* file in dir. It returns the
// newest valid manifest (the generation recovery serves), the retained
// ones (the newest keep valid manifests, newest first, so chosen is
// retained[0]), the names of every file that failed validation, and
// whether a damaged manifest outranked the chosen one. err is non-nil
// only when dir is unreadable, holds no manifest at all (ErrNotTable),
// or none validates (ErrNoUsableManifest); corrupt is filled then too.
func manifestsOnDisk(dir string, keep int) (chosen *manifest, retained []*manifest, corrupt []string, fellBack bool, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, false, err
	}
	type manFile struct {
		gen  uint64
		name string
	}
	var manFiles []manFile
	for _, e := range ents {
		if gen, ok := parseManifestName(e.Name()); ok && !e.IsDir() {
			manFiles = append(manFiles, manFile{gen, e.Name()})
		}
	}
	if len(manFiles) == 0 {
		return nil, nil, nil, false, fmt.Errorf("%w: %s", ErrNotTable, dir)
	}
	sort.Slice(manFiles, func(i, j int) bool { return manFiles[i].gen > manFiles[j].gen })
	for _, mf := range manFiles {
		data, rerr := os.ReadFile(filepath.Join(dir, mf.name))
		var m *manifest
		if rerr == nil {
			m, rerr = decodeManifest(data)
		}
		if rerr == nil && m.Generation != mf.gen {
			rerr = fmt.Errorf("%w: file %s holds generation %d", ErrCorruptManifest, mf.name, m.Generation)
		}
		switch {
		case rerr != nil:
			corrupt = append(corrupt, mf.name)
			fellBack = fellBack || len(retained) == 0
		case len(retained) < keep:
			retained = append(retained, m)
		}
	}
	if len(retained) == 0 {
		return nil, nil, corrupt, false,
			fmt.Errorf("%w: %s (%d manifests, all damaged)", ErrNoUsableManifest, dir, len(manFiles))
	}
	return retained[0], retained, corrupt, fellBack, nil
}

// debris lists the names in dir that recovery removes: dot-temps of
// interrupted atomic writes, manifests that are not retained (damaged
// ones included), and seg-* files no retained manifest references. A
// writable Open sweeps them, every commit prunes them once a generation
// ages out, and Fsck reports them.
func debris(dir string, retained []*manifest) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	gens := map[uint64]bool{}
	segs := map[string]bool{}
	for _, m := range retained {
		gens[m.Generation] = true
		for _, s := range m.Segs {
			for _, col := range m.Cols {
				segs[segFileName(s.ID, col)] = true
			}
		}
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		gen, _ := parseManifestName(name)
		if strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") ||
			strings.HasPrefix(name, manifestPrefix) && !gens[gen] ||
			strings.HasPrefix(name, segPrefix) && !segs[name] {
			names = append(names, name)
		}
	}
	return names, nil
}

// openColumn opens the column file name in dir, through opts' source
// wrapper and retry policy, and hoists what a manifest commits about it.
// On failure nothing is left open.
func openColumn[T zukowski.Integer](dir, name string, opts *Options) (*os.File, *zukowski.ColumnReader[T], *segMeta, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	var src io.ReaderAt = f
	if opts.SourceWrapper != nil {
		src = opts.SourceWrapper(src, st.Size())
	}
	var rdOpts []zukowski.ReaderOption
	if opts.Retry.MaxAttempts > 1 {
		rdOpts = append(rdOpts, zukowski.WithRetryPolicy(opts.Retry))
	}
	cr, err := zukowski.OpenColumnReaderAt[T](src, st.Size(), rdOpts...)
	var got *segMeta
	if err == nil {
		got, err = hoist(cr)
	}
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return f, cr, got, nil
}

// hoist is what a manifest commits about one column container, read
// from its directory alone: rows, rows per block, file size, and per
// block the payload CRC32-C and zone map — a one-column segMeta.
func hoist[T zukowski.Integer](cr *zukowski.ColumnReader[T]) (*segMeta, error) {
	nb := cr.NumBlocks()
	got := &segMeta{Rows: int64(cr.Len()), Counts: make([]uint32, nb), Cols: []colSlice{{
		FileSize: int64(cr.CompressedBytes()),
		CRCs:     make([]uint32, nb),
		MinBits:  make([]uint64, nb),
		MaxBits:  make([]uint64, nb),
	}}}
	cs := &got.Cols[0]
	for b := range nb {
		info, err := cr.BlockInfo(b)
		if err != nil {
			return nil, err
		}
		got.Counts[b] = uint32(info.Count)
		cs.CRCs[b] = info.CRC32C
		cs.MinBits[b] = zoneBitsOf(info.Min)
		cs.MaxBits[b] = zoneBitsOf(info.Max)
	}
	return got, nil
}

// verifyAgainstManifest compares what hoist read from an opened container
// with what segment sm commits for column ci. The container's own footer
// CRC already verified on open; this detects a *different* container
// than the one committed — a swapped, regenerated or in-place-salvaged
// file whose self-consistent directory no longer matches the manifest.
func verifyAgainstManifest(got, sm *segMeta, ci int) error {
	cs, gs := &sm.Cols[ci], &got.Cols[0]
	if gs.FileSize != cs.FileSize {
		return fmt.Errorf("%w: file is %d bytes, manifest committed %d",
			zukowski.ErrCorruptColumn, gs.FileSize, cs.FileSize)
	}
	if len(got.Counts) != len(sm.Counts) {
		return fmt.Errorf("%w: container holds %d blocks, manifest committed %d",
			zukowski.ErrCorruptColumn, len(got.Counts), len(sm.Counts))
	}
	if got.Rows != sm.Rows {
		return fmt.Errorf("%w: container holds %d rows, manifest committed %d",
			zukowski.ErrCorruptColumn, got.Rows, sm.Rows)
	}
	for b := range got.Counts {
		if got.Counts[b] != sm.Counts[b] {
			return fmt.Errorf("%w: block %d holds %d rows, manifest committed %d",
				zukowski.ErrCorruptColumn, b, got.Counts[b], sm.Counts[b])
		}
		if gs.CRCs[b] != cs.CRCs[b] {
			return fmt.Errorf("%w: block %d payload CRC %08x, manifest committed %08x",
				zukowski.ErrChecksumMismatch, b, gs.CRCs[b], cs.CRCs[b])
		}
		if gs.MinBits[b] != cs.MinBits[b] || gs.MaxBits[b] != cs.MaxBits[b] {
			return fmt.Errorf("%w: block %d zone map diverges from manifest",
				zukowski.ErrCorruptColumn, b)
		}
	}
	return nil
}

// zoneBitsOf is the storage encoding of a zone-map bound, matching the
// ZKC2 directory and the manifest.
func zoneBitsOf[T zukowski.Integer](v T) uint64 { return uint64(int64(v)) }
