package services

import (
	"bytes"
	"compress/flate"
	"fmt"
	"strconv"

	"mobigate/internal/mime"
	"mobigate/internal/streamlet"
)

// DownSampler is the Image Down Sampling streamlet (§4.3): lossy
// compression of an image by reducing the sample rate. Passes = how many
// halvings to apply per message (1 → 4x fewer pixels).
type DownSampler struct {
	Passes int
}

// Process implements streamlet.Processor.
func (d *DownSampler) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	passes := d.Passes
	if passes <= 0 {
		passes = 1
	}
	r, err := DecodeRaster(in.Msg.Body())
	if err != nil {
		return nil, fmt.Errorf("downsample: %w", err)
	}
	for i := 1; i < passes; i++ {
		r = r.Downsample()
	}
	in.Msg.SetBody(r.encodeDownsampled())
	in.Msg.SetContentType(TypeRaster)
	in.Msg.SetHeader("X-Downsampled", strconv.Itoa(passes))
	return []streamlet.Emission{{Msg: in.Msg}}, nil
}

// Gray16Mapper is the Map-to-16-grays streamlet (§4.3), supporting shallow
// grayscale displays (the LOW_GRAYS reaction).
type Gray16Mapper struct{}

// Process implements streamlet.Processor.
func (Gray16Mapper) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	r, err := DecodeRaster(in.Msg.Body())
	if err != nil {
		return nil, fmt.Errorf("gray16: %w", err)
	}
	g := r.Gray16()
	in.Msg.SetBody(g.Encode())
	in.Msg.SetContentType(TypeGray16)
	return []streamlet.Emission{{Msg: in.Msg}}, nil
}

// Transcoder is the Gif2Jpeg streamlet of the §7.5 web-acceleration
// application: a lossy format conversion that trades fidelity for size. The
// raster is quantized (dropping the low bits of every sample) and
// deflate-compressed; Quality (1..8) sets how many bits survive.
type Transcoder struct {
	Quality int // bits kept per sample, default 4
}

// Process implements streamlet.Processor.
func (t *Transcoder) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	q := t.Quality
	if q <= 0 || q > 8 {
		q = 4
	}
	r, err := DecodeRaster(in.Msg.Body())
	if err != nil {
		return nil, fmt.Errorf("transcode: %w", err)
	}
	d, err := getDeflater(flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	d.out.b = appendTranscodedHeader(d.out.b, r.Width, r.Height, q)
	shift := uint(8 - q)
	quantized := d.input(len(r.Pix))
	for i, p := range r.Pix {
		quantized[i] = (p >> shift) << shift
	}
	if _, err := d.fw.Write(quantized); err != nil {
		return nil, err
	}
	body, err := d.finish()
	if err != nil {
		return nil, err
	}
	in.Msg.SetBody(body)
	in.Msg.SetContentType(TypeRasterJPEG)
	return []streamlet.Emission{{Msg: in.Msg}}, nil
}

// appendTranscodedHeader appends the "RJPG w h q\n" line that precedes a
// Transcoder body's deflate stream.
func appendTranscodedHeader(b []byte, w, h, q int) []byte {
	b = append(b, "RJPG "...)
	b = strconv.AppendInt(b, int64(w), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(h), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(q), 10)
	return append(b, '\n')
}

// DecodeTranscoded reverses Transcoder for verification: it returns the
// quantized raster.
func DecodeTranscoded(data []byte) (*Raster, error) {
	var magic string
	var w, h, q int
	buf := bytes.NewBuffer(data)
	if _, err := fmt.Fscanf(buf, "%s %d %d %d\n", &magic, &w, &h, &q); err != nil || magic != "RJPG" {
		return nil, fmt.Errorf("services: not a transcoded raster")
	}
	need := 3 * w * h
	// One byte past need is enough to tell an overlong stream from an
	// exact one without inflating the rest of it.
	pix, err := inflateBody(buf.Bytes(), int64(need)+1)
	if err != nil {
		return nil, err
	}
	if len(pix) != need {
		return nil, fmt.Errorf("services: transcoded pixel count %d != %d", len(pix), need)
	}
	return &Raster{Width: w, Height: h, Pix: pix}, nil
}

var _ streamlet.Processor = (*DownSampler)(nil)
var _ streamlet.Processor = Gray16Mapper{}
var _ streamlet.Processor = (*Transcoder)(nil)

// typeIsImage reports whether a message carries image content.
func typeIsImage(t mime.MediaType) bool { return t.Type == "image" }
