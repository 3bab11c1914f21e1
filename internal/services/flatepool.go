package services

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// Codec state reuse for the deflate-based streamlets (Transcoder,
// Compressor and their client-side reversals). A fresh flate.Writer
// allocates and zeroes about 1.2 MB of compressor state, and a fresh flate
// reader about 40 KB, while a web-acceleration message carries 2–48 KB; so
// both are pooled here, writers in one pool per compression level.
// Writer.Reset is documented as equivalent to NewWriter, so pooled output
// is byte-identical to a fresh writer's.
//
// Ownership rule: nothing in these pools keeps a reference to a message
// body once the calling Process returns. Compressed and decompressed
// bytes are copied out of the pooled buffers into exactly-sized slices the
// message then owns, and a reader's source is reset to nil before pooling.
// A codec that hit an error is dropped, not pooled.

// maxPooledBuf bounds the scratch a pooled codec keeps between messages; a
// buffer grown past it by one outsized message goes to the GC instead.
const maxPooledBuf = 1 << 20

// appendWriter is an io.Writer appending to a reusable slice.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// deflater is one pooled compressor: the flate.Writer, the buffer it
// writes into, and input scratch for callers that transform before
// compressing.
type deflater struct {
	level   int
	fw      *flate.Writer
	out     appendWriter
	scratch []byte
}

// deflaters holds one pool per valid flate level, HuffmanOnly..BestCompression.
var deflaters [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// getDeflater returns a compressor at level with an empty output buffer.
// An invalid level returns flate's own error.
func getDeflater(level int) (*deflater, error) {
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		_, err := flate.NewWriter(io.Discard, level)
		return nil, err
	}
	if d, _ := deflaters[level-flate.HuffmanOnly].Get().(*deflater); d != nil {
		d.fw.Reset(&d.out)
		return d, nil
	}
	d := &deflater{level: level}
	fw, err := flate.NewWriter(&d.out, level)
	if err != nil {
		return nil, err
	}
	d.fw = fw
	return d, nil
}

// input returns the deflater's scratch resized to n bytes.
func (d *deflater) input(n int) []byte {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	return d.scratch[:n]
}

// finish closes the deflate stream and returns an exactly-sized copy of
// everything in the output buffer; the deflater goes back to its pool.
func (d *deflater) finish() ([]byte, error) {
	if err := d.fw.Close(); err != nil {
		return nil, err
	}
	body := make([]byte, len(d.out.b))
	copy(body, d.out.b)
	d.out.b = trimPooled(d.out.b)
	d.scratch = trimPooled(d.scratch)
	deflaters[d.level-flate.HuffmanOnly].Put(d)
	return body, nil
}

// deflateBody compresses src at level into a new exactly-sized slice.
func deflateBody(level int, src []byte) ([]byte, error) {
	d, err := getDeflater(level)
	if err != nil {
		return nil, err
	}
	if _, err := d.fw.Write(src); err != nil {
		return nil, err
	}
	return d.finish()
}

// inflater is one pooled decompressor with its source reader and output
// buffer.
type inflater struct {
	fr  io.ReadCloser // implements flate.Resetter
	src bytes.Reader
	lim io.LimitedReader
	out bytes.Buffer
}

var inflaters sync.Pool // of *inflater

// inflateBody decompresses the raw deflate stream data into a new
// exactly-sized slice. With limit >= 0 at most limit bytes are produced;
// callers detect overlong streams by asking for one byte more than they
// expect.
func inflateBody(data []byte, limit int64) ([]byte, error) {
	f, _ := inflaters.Get().(*inflater)
	if f == nil {
		f = &inflater{}
		f.src.Reset(data)
		f.fr = flate.NewReader(&f.src)
	} else {
		f.src.Reset(data)
		if err := f.fr.(flate.Resetter).Reset(&f.src, nil); err != nil {
			return nil, err
		}
	}
	var r io.Reader = f.fr
	if limit >= 0 {
		f.lim = io.LimitedReader{R: f.fr, N: limit}
		r = &f.lim
	}
	_, err := f.out.ReadFrom(r)
	f.src.Reset(nil)
	f.lim.R = nil
	if err != nil {
		return nil, err
	}
	plain := make([]byte, f.out.Len())
	copy(plain, f.out.Bytes())
	f.out.Reset()
	if f.out.Cap() > maxPooledBuf {
		f.out = bytes.Buffer{}
	}
	inflaters.Put(f)
	return plain, nil
}

// trimPooled empties b for reuse, dropping it when it grew past
// maxPooledBuf.
func trimPooled(b []byte) []byte {
	if cap(b) > maxPooledBuf {
		return nil
	}
	return b[:0]
}
