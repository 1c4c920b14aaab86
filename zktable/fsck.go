package zktable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/zukowski"
)

// Info is a table directory's identity, read from the manifest alone —
// cheap enough to call before deciding how (or whether) to open.
type Info struct {
	Generation  uint64
	WidthBytes  int // element width: 1, 2, 4 or 8
	BlockValues int
	Rows        int64
	Segments    int
	Columns     []string
}

// IsTableDir reports whether dir exists and holds at least one
// MANIFEST-* file — possibly a damaged one; Peek or Open judge that.
func IsTableDir(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if _, ok := parseManifestName(e.Name()); ok && !e.IsDir() {
			return true
		}
	}
	return false
}

// manifestsOnDisk decodes every MANIFEST-* file in dir. It returns the
// newest valid manifest (the generation recovery would serve), the names
// of files that failed validation, whether a damaged manifest outranked
// the chosen one, and the set of segment files referenced by any valid
// manifest. err is non-nil only when dir is unreadable, holds no
// manifest at all (ErrNotTable), or none validates (ErrNoUsableManifest).
func manifestsOnDisk(dir string) (chosen *manifest, corrupt []string, fellBack bool, referenced map[string]bool, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, false, nil, err
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
		return nil, nil, false, nil, fmt.Errorf("%w: %s", ErrNotTable, dir)
	}
	sort.Slice(manFiles, func(i, j int) bool { return manFiles[i].gen > manFiles[j].gen })
	referenced = map[string]bool{}
	for _, mf := range manFiles {
		data, rerr := os.ReadFile(filepath.Join(dir, mf.name))
		var m *manifest
		if rerr == nil {
			m, rerr = decodeManifest(data)
		}
		if rerr == nil && m.Generation != mf.gen {
			rerr = fmt.Errorf("%w: file %s holds generation %d", ErrCorruptManifest, mf.name, m.Generation)
		}
		if rerr != nil {
			corrupt = append(corrupt, mf.name)
			if chosen == nil {
				fellBack = true
			}
			continue
		}
		for _, s := range m.Segs {
			for _, col := range m.Cols {
				referenced[segFileName(s.ID, col)] = true
			}
		}
		if chosen == nil {
			chosen = m
		}
	}
	if chosen == nil {
		return nil, corrupt, false, referenced,
			fmt.Errorf("%w: %s (%d manifests, all damaged)", ErrNoUsableManifest, dir, len(manFiles))
	}
	return chosen, corrupt, fellBack, referenced, nil
}

// Peek reads a table directory's identity without opening any segment.
func Peek(dir string) (Info, error) {
	m, _, _, _, err := manifestsOnDisk(dir)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Generation:  m.Generation,
		WidthBytes:  m.Width,
		BlockValues: m.BlockValues,
		Rows:        m.Rows,
		Segments:    len(m.Segs),
		Columns:     append([]string(nil), m.Cols...),
	}, nil
}

// FsckReport is the result of a full offline consistency walk.
type FsckReport struct {
	Dir        string
	Generation uint64 // generation that was checked (the one Open would serve)
	Rows       int64
	Segments   int
	Columns    []string

	// BlocksVerified counts block payloads whose CRC32-C was recomputed
	// and matched, across all columns of all segments.
	BlocksVerified int

	// CorruptManifests lists manifest files that failed validation. Each
	// is also a Problem: manifests are only ever written whole (rename is
	// the commit point), so a damaged one on disk means bit rot, not an
	// interrupted write.
	CorruptManifests []string

	// Orphans lists temp files and unreferenced segment files —
	// informational, the normal debris of a crash, swept by the next
	// writable Open.
	Orphans []string

	// Problems lists every integrity violation found. Empty means the
	// served generation is fully intact: every committed row readable,
	// every block payload matching its committed checksum.
	Problems []string
}

// OK reports whether the walk found the served generation fully intact.
func (r *FsckReport) OK() bool { return len(r.Problems) == 0 }

// Fsck runs a full offline consistency check of a table directory: pick
// the manifest Open would serve, then read every block of every column
// of every committed segment and verify payload CRC32-Cs, block
// geometry and zone maps against the manifest's hoisted statistics. The
// walk is strictly read-only — nothing is swept, salvaged or rewritten —
// so it is safe on a live table and on a just-crashed directory.
// err is non-nil only when no generation is checkable at all; damage in
// a checkable table comes back in the report.
func Fsck(dir string) (*FsckReport, error) {
	man, corrupt, _, referenced, err := manifestsOnDisk(dir)
	if err != nil {
		return nil, err
	}
	rep := &FsckReport{
		Dir:              dir,
		Generation:       man.Generation,
		Rows:             man.Rows,
		Segments:         len(man.Segs),
		Columns:          append([]string(nil), man.Cols...),
		CorruptManifests: corrupt,
	}
	for _, name := range corrupt {
		rep.Problems = append(rep.Problems, fmt.Sprintf("manifest %s failed validation", name))
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-"):
			rep.Orphans = append(rep.Orphans, name)
		case strings.HasPrefix(name, segPrefix) && !referenced[name]:
			rep.Orphans = append(rep.Orphans, name)
		}
	}

	switch man.Width {
	case 1:
		fsckSegments[int8](dir, man, rep)
	case 2:
		fsckSegments[int16](dir, man, rep)
	case 4:
		fsckSegments[int32](dir, man, rep)
	case 8:
		fsckSegments[int64](dir, man, rep)
	default:
		rep.Problems = append(rep.Problems, fmt.Sprintf("manifest element width %d unsupported", man.Width))
	}
	return rep, nil
}

// fsckSegments walks every committed segment of man, verifying each
// column container in full against the manifest.
func fsckSegments[T zukowski.Integer](dir string, man *manifest, rep *FsckReport) {
	for si := range man.Segs {
		sm := &man.Segs[si]
		for ci, col := range man.Cols {
			problem := func(err error) {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("segment %d column %q: %v", sm.ID, col, err))
			}
			path := filepath.Join(dir, segFileName(sm.ID, col))
			f, err := os.Open(path)
			if err != nil {
				problem(err)
				continue
			}
			st, err := f.Stat()
			if err != nil {
				f.Close()
				problem(err)
				continue
			}
			if st.Size() != sm.Cols[ci].FileSize {
				f.Close()
				problem(fmt.Errorf("file is %d bytes, manifest committed %d", st.Size(), sm.Cols[ci].FileSize))
				continue
			}
			cr, err := zukowski.OpenColumnReaderAt[T](f, st.Size())
			if err != nil {
				f.Close()
				problem(err)
				continue
			}
			if err := verifyAgainstManifest(cr, sm, ci); err != nil {
				f.Close()
				problem(err)
				continue
			}
			for b := 0; b < cr.NumBlocks(); b++ {
				if err := cr.VerifyBlock(b); err != nil {
					problem(err) // VerifyBlock names the block
					continue
				}
				rep.BlocksVerified++
			}
			f.Close()
		}
	}
}
