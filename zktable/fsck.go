package zktable

import (
	"fmt"
	"os"
	"slices"

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

// Peek reads a table directory's identity without opening any segment.
func Peek(dir string) (Info, error) {
	m, _, _, _, err := manifestsOnDisk(dir, defaultKeep)
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

	// Orphans lists what the next writable Open with default Options
	// sweeps, damaged manifests apart: temp files, valid manifests beyond
	// the retention window, and segment files no retained manifest
	// references — informational, the normal debris of a crash.
	Orphans []string

	// Problems lists every integrity violation found. Empty means the
	// served generation is fully intact: every committed row readable,
	// every block payload matching its committed checksum.
	Problems []string
}

// OK reports whether the walk found the served generation fully intact.
func (r *FsckReport) OK() bool { return len(r.Problems) == 0 }

// Fsck runs a full offline consistency check of a table directory: pick
// the manifest Open would serve, list what a writable Open would sweep,
// then read every block of every column
// of every committed segment and verify payload CRC32-Cs, block
// geometry and zone maps against the manifest's hoisted statistics. The
// walk is strictly read-only — nothing is swept, salvaged or rewritten —
// so it is safe on a live table and on a just-crashed directory.
// err is non-nil only when no generation is checkable at all; damage in
// a checkable table comes back in the report.
func Fsck(dir string) (*FsckReport, error) {
	man, retained, corrupt, _, err := manifestsOnDisk(dir, defaultKeep)
	if err != nil {
		return nil, err
	}
	names, err := debris(dir, retained)
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
	for _, name := range names {
		if !slices.Contains(corrupt, name) {
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
			f, cr, got, err := openColumn[T](dir, segFileName(sm.ID, col), &Options{})
			if err != nil {
				problem(err)
				continue
			}
			if err := verifyAgainstManifest(got, sm, ci); err != nil {
				problem(err)
			} else {
				for b := range cr.NumBlocks() {
					if err := cr.VerifyBlock(b); err != nil {
						problem(err) // VerifyBlock names the block
						continue
					}
					rep.BlocksVerified++
				}
			}
			f.Close()
		}
	}
}
