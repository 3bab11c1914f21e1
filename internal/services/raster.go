// Package services implements the concrete service streamlets the thesis
// deploys on MobiGATE: the datatype-specific distillation entities of §4.3
// (switch, image down-sampling, map-to-16-grays, PostScript-to-text, text
// compressor, merge, power saving), the web-acceleration entities of §7.5
// (gif2jpeg-style transcoding, communicator), the redirector probe of §7.2,
// and supporting entities (cache, encryptor/decryptor).
//
// The paper transcoded GIF/JPEG with Java libraries; this package uses a
// self-contained synthetic raster format ("RAST") with real down-sampling,
// grayscale quantization, and lossy recompression, so the same code paths —
// CPU-bound lossy transforms that shrink payloads by datatype-specific
// factors — are exercised without external codecs (see DESIGN.md).
package services

import (
	"encoding/binary"
	"fmt"

	"mobigate/internal/mime"
)

// Raster media types.
var (
	// TypeRaster is the uncompressed synthetic raster format.
	TypeRaster = mime.MustParse("image/x-raster")
	// TypeRasterJPEG marks a lossily recompressed raster (the gif2jpeg
	// analogue output).
	TypeRasterJPEG = mime.MustParse("image/x-raster-jpeg")
)

const rasterMagic = "RAST"

// Raster is a simple interleaved RGB image.
type Raster struct {
	Width  int
	Height int
	// Pix holds RGB triplets, row-major: 3*Width*Height bytes.
	Pix []byte
}

// NewRaster allocates a black image.
func NewRaster(w, h int) *Raster {
	return &Raster{Width: w, Height: h, Pix: make([]byte, 3*w*h)}
}

// At returns the RGB triple at (x, y).
func (r *Raster) At(x, y int) (byte, byte, byte) {
	i := 3 * (y*r.Width + x)
	return r.Pix[i], r.Pix[i+1], r.Pix[i+2]
}

// Set assigns the RGB triple at (x, y).
func (r *Raster) Set(x, y int, red, green, blue byte) {
	i := 3 * (y*r.Width + x)
	r.Pix[i], r.Pix[i+1], r.Pix[i+2] = red, green, blue
}

// Encode serializes the raster: "RAST" magic, uint32 width and height,
// then the pixel data.
func (r *Raster) Encode() []byte {
	out := newEncodedRaster(r.Width, r.Height)
	copy(out[12:], r.Pix)
	return out
}

// newEncodedRaster allocates an encoded w x h raster with its header
// written and the pixel bytes zeroed.
func newEncodedRaster(w, h int) []byte {
	out := make([]byte, 4+8+3*w*h)
	copy(out, rasterMagic)
	binary.BigEndian.PutUint32(out[4:], uint32(w))
	binary.BigEndian.PutUint32(out[8:], uint32(h))
	return out
}

// DecodeRaster parses an encoded raster.
func DecodeRaster(data []byte) (*Raster, error) {
	if len(data) < 12 || string(data[:4]) != rasterMagic {
		return nil, fmt.Errorf("services: not a raster image")
	}
	w := int(binary.BigEndian.Uint32(data[4:]))
	h := int(binary.BigEndian.Uint32(data[8:]))
	if w <= 0 || h <= 0 || w > 1<<15 || h > 1<<15 {
		return nil, fmt.Errorf("services: implausible raster dimensions %dx%d", w, h)
	}
	need := 3 * w * h
	if len(data)-12 < need {
		return nil, fmt.Errorf("services: truncated raster: have %d pixel bytes, need %d", len(data)-12, need)
	}
	return &Raster{Width: w, Height: h, Pix: data[12 : 12+need]}, nil
}

// Downsample halves each dimension by averaging 2x2 blocks — the lossy
// sample-rate reduction of the Image Down Sampling streamlet. Images with a
// dimension of 1 are returned unchanged.
func (r *Raster) Downsample() *Raster {
	if r.Width < 2 || r.Height < 2 {
		return r
	}
	out := NewRaster(r.Width/2, r.Height/2)
	r.downsampleInto(out.Pix)
	return out
}

// encodeDownsampled is Downsample().Encode() without the intermediate
// raster: the halved pixels are written straight into the encoded buffer.
func (r *Raster) encodeDownsampled() []byte {
	if r.Width < 2 || r.Height < 2 {
		return r.Encode()
	}
	out := newEncodedRaster(r.Width/2, r.Height/2)
	r.downsampleInto(out[12:])
	return out
}

// downsampleInto writes the 2x2-block averages of r into dst, which holds
// 3*(Width/2)*(Height/2) bytes.
func (r *Raster) downsampleInto(dst []byte) {
	w, h := r.Width/2, r.Height/2
	stride := 3 * r.Width
	for y := 0; y < h; y++ {
		top := r.Pix[2*y*stride : (2*y+1)*stride]
		bot := r.Pix[(2*y+1)*stride : (2*y+2)*stride]
		row := dst[3*y*w : 3*(y+1)*w]
		for x := 0; x < w; x++ {
			i := 6 * x
			for c := 0; c < 3; c++ {
				sum := int(top[i+c]) + int(top[i+3+c]) + int(bot[i+c]) + int(bot[i+3+c])
				row[3*x+c] = byte(sum / 4)
			}
		}
	}
}

// Gray16 converts to 16 grayscale levels (the Map-to-16-grays streamlet):
// luminance is computed per pixel and quantized to 4 bits; the result is
// packed two pixels per byte, shrinking the payload 6x.
func (r *Raster) Gray16() *Gray16Image {
	n := r.Width * r.Height
	packed := make([]byte, (n+1)/2)
	for i := 0; i < n; i++ {
		red, green, blue := r.Pix[3*i], r.Pix[3*i+1], r.Pix[3*i+2]
		// Integer luminance approximation (ITU-R 601 weights).
		lum := (299*int(red) + 587*int(green) + 114*int(blue)) / 1000
		level := byte(lum >> 4) // 0..15
		if i%2 == 0 {
			packed[i/2] = level << 4
		} else {
			packed[i/2] |= level
		}
	}
	return &Gray16Image{Width: r.Width, Height: r.Height, Packed: packed}
}

// Gray16Image is a 16-level grayscale image, two pixels per byte.
type Gray16Image struct {
	Width  int
	Height int
	Packed []byte
}

// TypeGray16 is the media type of packed 16-gray images.
var TypeGray16 = mime.MustParse("image/x-gray16")

const gray16Magic = "GR16"

// Encode serializes the grayscale image.
func (g *Gray16Image) Encode() []byte {
	out := make([]byte, 4+8+len(g.Packed))
	copy(out, gray16Magic)
	binary.BigEndian.PutUint32(out[4:], uint32(g.Width))
	binary.BigEndian.PutUint32(out[8:], uint32(g.Height))
	copy(out[12:], g.Packed)
	return out
}

// DecodeGray16 parses an encoded 16-gray image.
func DecodeGray16(data []byte) (*Gray16Image, error) {
	if len(data) < 12 || string(data[:4]) != gray16Magic {
		return nil, fmt.Errorf("services: not a gray16 image")
	}
	w := int(binary.BigEndian.Uint32(data[4:]))
	h := int(binary.BigEndian.Uint32(data[8:]))
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("services: implausible gray16 dimensions %dx%d", w, h)
	}
	need := (w*h + 1) / 2
	if len(data)-12 < need {
		return nil, fmt.Errorf("services: truncated gray16 image")
	}
	return &Gray16Image{Width: w, Height: h, Packed: data[12 : 12+need]}, nil
}

// Level returns the 0..15 gray level at (x, y).
func (g *Gray16Image) Level(x, y int) byte {
	i := y*g.Width + x
	b := g.Packed[i/2]
	if i%2 == 0 {
		return b >> 4
	}
	return b & 0x0F
}
