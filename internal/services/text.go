package services

import (
	"compress/flate"
	"fmt"
	"strconv"
	"strings"

	"mobigate/internal/mime"
	"mobigate/internal/streamlet"
)

// Text media types.
var (
	TypePostScript = mime.MustParse("application/postscript")
	TypeRichText   = mime.MustParse("text/richtext")
	TypePlainText  = mime.MustParse("text/plain")
	TypeAnyText    = mime.MustParse("text/*")
)

// PS2Text is the PostScript-to-Text streamlet (§4.3): it discards format
// information and converts documents to rich text supported by most
// devices. The input is PostScript-like source: comment lines start with
// '%', layout commands are bare words, and document text appears inside
// parentheses followed by a `show` operator.
type PS2Text struct{}

// Process implements streamlet.Processor.
func (PS2Text) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	text := ExtractPostScriptText(string(in.Msg.Body()))
	in.Msg.SetBody([]byte(text))
	in.Msg.SetContentType(TypeRichText)
	return []streamlet.Emission{{Msg: in.Msg}}, nil
}

// ExtractPostScriptText pulls the (...) show strings out of a PostScript-
// like document, joining them with newlines.
func ExtractPostScriptText(src string) string {
	var out strings.Builder
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		rest := line
		for {
			open := strings.IndexByte(rest, '(')
			if open < 0 {
				break
			}
			closing := strings.IndexByte(rest[open:], ')')
			if closing < 0 {
				break
			}
			content := rest[open+1 : open+closing]
			rest = rest[open+closing+1:]
			if strings.Contains(rest, "show") || strings.TrimSpace(rest) == "" {
				if out.Len() > 0 {
					out.WriteByte('\n')
				}
				out.WriteString(content)
			}
		}
	}
	return out.String()
}

// Compressor is the generic Text Compressor streamlet (§4.3, §7.5): a
// deflate compressor that can reduce text size by up to 75% or more on
// redundant content. Its transformation is reversed by the Decompressor
// peer at the client (§6.5).
type Compressor struct {
	// Level is the flate compression level (default BestSpeed).
	Level int
}

// CompressorPeerID identifies the client-side reverse streamlet.
const CompressorPeerID = "text/decompress"

// PeerID implements streamlet.Peered.
func (*Compressor) PeerID() string { return CompressorPeerID }

// Process implements streamlet.Processor.
func (c *Compressor) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	level := c.Level
	if level == 0 {
		level = flate.BestSpeed
	}
	body, err := deflateBody(level, in.Msg.Body())
	if err != nil {
		return nil, err
	}
	in.Msg.SetHeader("X-Original-Length", strconv.Itoa(in.Msg.Len()))
	in.Msg.SetBody(body)
	in.Msg.SetHeader("Content-Encoding", "deflate")
	return []streamlet.Emission{{Msg: in.Msg}}, nil
}

// Decompressor is the client-side peer of Compressor.
type Decompressor struct{}

// Process implements streamlet.Processor.
func (Decompressor) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	if in.Msg.Header("Content-Encoding") != "deflate" {
		return []streamlet.Emission{{Msg: in.Msg}}, nil
	}
	plain, err := inflateBody(in.Msg.Body(), -1)
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	in.Msg.SetBody(plain)
	in.Msg.DelHeader("Content-Encoding")
	in.Msg.DelHeader("X-Original-Length")
	return []streamlet.Emission{{Msg: in.Msg}}, nil
}

// Footer is the content-enrichment streamlet of the §4.3 family (the
// classic active-proxy example is advertisement or notice insertion): it
// appends an annotation to every text body. It is the data plane's
// zero-copy appender: the original body is retained untouched as a chain
// segment and only the footer bytes are written, into a pooled segment —
// no copy of the (arbitrarily large) payload. Non-text messages pass
// through unmodified.
type Footer struct {
	// Text is the annotation to append (default "\n-- via MobiGATE --\n").
	Text string
}

// Process implements streamlet.Processor.
func (f *Footer) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	if !in.Msg.ContentType().SubtypeOf(TypeAnyText) {
		return []streamlet.Emission{{Msg: in.Msg}}, nil
	}
	txt := f.Text
	if txt == "" {
		txt = "\n-- via MobiGATE --\n"
	}
	copy(in.Msg.AppendBodyBuf(len(txt)), txt)
	return []streamlet.Emission{{Msg: in.Msg}}, nil
}

// SetParam implements streamlet.Configurable: "text" sets the annotation.
func (f *Footer) SetParam(name, value string) error {
	if name != "text" {
		return fmt.Errorf("footer: unknown parameter %q", name)
	}
	f.Text = value
	return nil
}

var (
	_ streamlet.Processor    = (*Compressor)(nil)
	_ streamlet.Peered       = (*Compressor)(nil)
	_ streamlet.Processor    = Decompressor{}
	_ streamlet.Processor    = PS2Text{}
	_ streamlet.Processor    = (*Footer)(nil)
	_ streamlet.Configurable = (*Footer)(nil)
)
