package zktable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"repro/zukowski"
)

// The manifest is the table's unit of commitment: a small binary object
// naming every live segment and hoisting the directory statistics a
// query planner and a verifier need, so both work without opening any
// segment file. It is written atomically and trusted only after its
// trailing CRC32-C verifies.
//
// Byte layout (all integers little-endian):
//
//	off  size  field
//	  0     4  magic "ZKM1"
//	  4     4  u32 layout version (1)
//	  8     8  u64 generation
//	 16     1  u8  element width in bytes (1, 2, 4 or 8)
//	 17     3  reserved, zero
//	 20     4  u32 blockValues (writer block size)
//	 24     4  u32 column count C
//	 28     4  u32 segment count S
//	 32     8  u64 total rows
//	 40     —  C × { u16 nameLen, name bytes }   column names, in order
//	  …     —  S × segment {
//	              u64 segment id
//	              u64 rows
//	              u32 block count B
//	              B × u32 rows-in-block          shared by all columns
//	              C × column slice {
//	                  u64 file size in bytes
//	                  B × { u32 payload CRC32-C, u64 minBits, u64 maxBits }
//	              }
//	            }
//	tail     4  u32 CRC32-C (Castagnoli) of every preceding byte
//
// minBits/maxBits are the zone-map bounds in the container's storage
// encoding (uint64(int64(v))), identical to the ZKC2 directory, so Open
// compares them to BlockInfo without re-deriving anything.

const (
	manifestMagic   = "ZKM1"
	manifestVersion = 1
	manifestPrefix  = "MANIFEST-"
	segPrefix       = "seg-"

	// Decode bounds: generous for any real table, tight enough that a
	// corrupt length field cannot drive allocation wild before the CRC
	// check is reached.
	maxManifestCols = 1 << 12
	maxManifestSegs = 1 << 22
	maxNameLen      = 1 << 10
)

// manifestCRC is the Castagnoli table, matching the ZKC2 container CRCs.
var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

// colSlice is one column's slice of one segment.
type colSlice struct {
	FileSize int64
	CRCs     []uint32 // per block: payload CRC32-C
	MinBits  []uint64 // per block: zone-map min, storage encoding
	MaxBits  []uint64 // per block: zone-map max, storage encoding
}

// segMeta is one segment's manifest entry.
type segMeta struct {
	ID     uint64
	Rows   int64
	Counts []uint32   // rows per block, shared across columns
	Cols   []colSlice // indexed like manifest.Cols
}

// manifest is the decoded form of one committed generation.
type manifest struct {
	Generation  uint64
	Width       int
	BlockValues int
	Rows        int64
	Cols        []string
	Segs        []segMeta
}

// manifestName returns the file name of generation gen. The generation is
// zero-padded for lexicographic niceness in directory listings; parsing
// is numeric, so generations beyond the pad width still work.
func manifestName(gen uint64) string {
	return fmt.Sprintf("%s%08d", manifestPrefix, gen)
}

// parseManifestName extracts the generation from a manifest file name.
func parseManifestName(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, manifestPrefix)
	if !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// segFileName returns the file name of column col of segment id.
func segFileName(id uint64, col string) string {
	return fmt.Sprintf("%s%08d-%s.zkc", segPrefix, id, col)
}

// validColName restricts column names to a path-safe charset: they become
// file-name components and manifest fields.
func validColName(name string) error {
	if name == "" {
		return fmt.Errorf("zktable: empty column name")
	}
	if len(name) > maxNameLen {
		return fmt.Errorf("zktable: column name %q too long", name[:32]+"…")
	}
	if name[0] == '.' || name[0] == '-' {
		return fmt.Errorf("zktable: column name %q must not start with %q", name, name[:1])
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return fmt.Errorf("zktable: column name %q holds %q; use letters, digits, '_', '-', '.'", name, r)
		}
	}
	return nil
}

// encode serializes the manifest, CRC included.
func (m *manifest) encode() []byte {
	size := 40
	for _, c := range m.Cols {
		size += 2 + len(c)
	}
	for _, s := range m.Segs {
		size += 8 + 8 + 4 + 4*len(s.Counts)
		size += len(s.Cols) * (8 + 20*len(s.Counts))
	}
	size += 4 // trailing CRC

	buf := make([]byte, 0, size)
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint64(buf, m.Generation)
	buf = append(buf, byte(m.Width), 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.BlockValues))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Cols)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Segs)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Rows))
	for _, c := range m.Cols {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c)))
		buf = append(buf, c...)
	}
	for _, s := range m.Segs {
		buf = binary.LittleEndian.AppendUint64(buf, s.ID)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Rows))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Counts)))
		for _, n := range s.Counts {
			buf = binary.LittleEndian.AppendUint32(buf, n)
		}
		for _, cs := range s.Cols {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(cs.FileSize))
			for b := range cs.CRCs {
				buf = binary.LittleEndian.AppendUint32(buf, cs.CRCs[b])
				buf = binary.LittleEndian.AppendUint64(buf, cs.MinBits[b])
				buf = binary.LittleEndian.AppendUint64(buf, cs.MaxBits[b])
			}
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, manifestCRC))
	return buf
}

// manifestReader walks the encoded bytes with running bounds checks.
type manifestReader struct {
	buf []byte
	off int
	err error
}

func (r *manifestReader) need(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: truncated at byte %d", ErrCorruptManifest, r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *manifestReader) u16() uint16 {
	if b := r.need(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *manifestReader) u32() uint32 {
	if b := r.need(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *manifestReader) u64() uint64 {
	if b := r.need(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// decodeManifest parses and validates manifest bytes: structure, field
// ranges, internal consistency (row totals, block counts) and the
// trailing CRC32-C. Any failure wraps ErrCorruptManifest.
func decodeManifest(data []byte) (*manifest, error) {
	if len(data) < 44 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptManifest, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, manifestCRC), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: CRC32-C %08x, stored %08x", ErrCorruptManifest, got, want)
	}
	if string(data[:4]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptManifest)
	}
	r := &manifestReader{buf: body, off: 4}
	if v := r.u32(); v != manifestVersion {
		return nil, fmt.Errorf("%w: layout version %d", ErrCorruptManifest, v)
	}
	m := &manifest{Generation: r.u64()}
	wb := r.need(4)
	if r.err != nil {
		return nil, r.err
	}
	m.Width = int(wb[0])
	switch m.Width {
	case 1, 2, 4, 8:
	default:
		return nil, fmt.Errorf("%w: element width %d", ErrCorruptManifest, m.Width)
	}
	m.BlockValues = int(r.u32())
	if m.BlockValues <= 0 || m.BlockValues > zukowski.MaxBlockValues {
		return nil, fmt.Errorf("%w: block size %d values", ErrCorruptManifest, m.BlockValues)
	}
	numCols, numSegs := int(r.u32()), int(r.u32())
	if numCols <= 0 || numCols > maxManifestCols {
		return nil, fmt.Errorf("%w: %d columns", ErrCorruptManifest, numCols)
	}
	if numSegs < 0 || numSegs > maxManifestSegs || numSegs*20 > len(body)-r.off {
		return nil, fmt.Errorf("%w: %d segments", ErrCorruptManifest, numSegs)
	}
	m.Rows = int64(r.u64())
	if m.Rows < 0 {
		return nil, fmt.Errorf("%w: negative row total", ErrCorruptManifest)
	}
	m.Cols = make([]string, numCols)
	for i := range m.Cols {
		n := int(r.u16())
		b := r.need(n)
		if r.err != nil {
			return nil, r.err
		}
		m.Cols[i] = string(b)
		if err := validColName(m.Cols[i]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
		}
	}
	var total int64
	m.Segs = make([]segMeta, numSegs)
	for si := range m.Segs {
		s := &m.Segs[si]
		s.ID = r.u64()
		s.Rows = int64(r.u64())
		nb := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		// The whole entry — nb block counts, then per column a file size and
		// nb zone-map triples — has to lie in the bytes left before anything
		// is sized by nb: a count the file cannot back would otherwise
		// allocate numCols × nb entries before the reader runs dry. Past
		// this check no read inside the segment can come up short.
		segBytes := int64(nb)*(4+20*int64(numCols)) + 8*int64(numCols)
		if s.Rows < 0 || nb < 0 || int64(nb)*int64(m.BlockValues) < s.Rows ||
			segBytes > int64(len(body)-r.off) {
			return nil, fmt.Errorf("%w: segment %d: %d rows in %d blocks of %d",
				ErrCorruptManifest, s.ID, s.Rows, nb, m.BlockValues)
		}
		s.Counts = make([]uint32, nb)
		var segRows int64
		for b := range s.Counts {
			s.Counts[b] = r.u32()
			if int(s.Counts[b]) > m.BlockValues || s.Counts[b] == 0 {
				return nil, fmt.Errorf("%w: segment %d block %d holds %d rows",
					ErrCorruptManifest, s.ID, b, s.Counts[b])
			}
			segRows += int64(s.Counts[b])
		}
		if segRows != s.Rows {
			return nil, fmt.Errorf("%w: segment %d: block counts sum to %d, header says %d",
				ErrCorruptManifest, s.ID, segRows, s.Rows)
		}
		s.Cols = make([]colSlice, numCols)
		for ci := range s.Cols {
			cs := &s.Cols[ci]
			cs.FileSize = int64(r.u64())
			if cs.FileSize < 0 {
				return nil, fmt.Errorf("%w: segment %d column %q: negative file size",
					ErrCorruptManifest, s.ID, m.Cols[ci])
			}
			cs.CRCs = make([]uint32, nb)
			cs.MinBits = make([]uint64, nb)
			cs.MaxBits = make([]uint64, nb)
			for b := 0; b < nb; b++ {
				cs.CRCs[b] = r.u32()
				cs.MinBits[b] = r.u64()
				cs.MaxBits[b] = r.u64()
			}
		}
		total += s.Rows
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptManifest, len(body)-r.off)
	}
	if total != m.Rows {
		return nil, fmt.Errorf("%w: segments sum to %d rows, header says %d",
			ErrCorruptManifest, total, m.Rows)
	}
	// Duplicate segment IDs would alias files between entries.
	seen := make(map[uint64]bool, numSegs)
	for i := range m.Segs {
		if seen[m.Segs[i].ID] {
			return nil, fmt.Errorf("%w: duplicate segment id %d", ErrCorruptManifest, m.Segs[i].ID)
		}
		seen[m.Segs[i].ID] = true
	}
	return m, nil
}
