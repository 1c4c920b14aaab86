package baseline

import (
	"bytes"
	"compress/flate"
	"io"
)

// Flate wraps the standard library DEFLATE implementation, standing in for
// zlib in the Figure 2 comparison (zlib is DEFLATE with a two-byte header;
// the speed and ratio are the same).
type Flate struct {
	// Level is the flate compression level; 0 means flate.DefaultCompression.
	Level int
}

// Name returns the codec name used in reports.
func (Flate) Name() string { return "zlib(flate)" }

// Compress appends the DEFLATE stream for src to dst.
func (f Flate) Compress(dst, src []byte) []byte {
	level := f.Level
	if level == 0 {
		level = flate.DefaultCompression
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		panic(err) // only fails on invalid level
	}
	if _, err := w.Write(src); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return append(dst, buf.Bytes()...)
}

// Decompress appends the original bytes to dst.
func (Flate) Decompress(dst, src []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}
