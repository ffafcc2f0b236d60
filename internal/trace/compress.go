package trace

import (
	"compress/flate"
	"fmt"
	"io"
	"os"
)

// Compressed trace container: the serialized trace wrapped in DEFLATE with
// its own magic, so Load can auto-detect either form. Traces are highly
// compressible (bit-vector headers repeat, contents often carry structured
// data), which matters when archiving production recordings — the use case
// behind the paper's arbitrarily-long traces.

const compressedMagic = "VIDZ"

// SaveCompressed writes the trace DEFLATE-compressed.
func (t *Trace) SaveCompressed(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCompressed(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteCompressed writes the compressed container to w.
func (t *Trace) WriteCompressed(w io.Writer) error {
	if _, err := io.WriteString(w, compressedMagic); err != nil {
		return err
	}
	fw, err := flate.NewWriter(w, flate.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(fw); err != nil {
		return err
	}
	return fw.Close()
}

// LoadAuto reads a trace file in either the plain or the compressed
// container, detected by magic.
func LoadAuto(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var mg [4]byte
	if _, err := io.ReadFull(f, mg[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch string(mg[:]) {
	case compressedMagic:
		return ReadFrom(flate.NewReader(f))
	case magic:
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return ReadFrom(f)
	default:
		return nil, fmt.Errorf("trace: unknown container magic %q", mg)
	}
}

// CompressedSize reports the size of the compressed container without
// writing a file.
func (t *Trace) CompressedSize() (int64, error) {
	cw := &countingWriter{w: io.Discard}
	if err := t.WriteCompressed(cw); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
