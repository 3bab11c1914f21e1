package mime

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestMessageHeaders(t *testing.T) {
	m := NewMessage(MustParse("text/plain"), []byte("hello"))
	if m.Header("content-type") != "text/plain" {
		t.Errorf("Content-Type = %q", m.Header("content-type"))
	}
	m.SetHeader("X-Custom", "1")
	m.SetHeader("x-custom", "2") // same canonical key replaces
	if got := m.Header("X-CUSTOM"); got != "2" {
		t.Errorf("X-Custom = %q", got)
	}
	hs := m.Headers()
	if len(hs) != 2 {
		t.Errorf("Headers = %v", hs)
	}
	m.DelHeader("x-custom")
	if m.Header("X-Custom") != "" {
		t.Error("DelHeader did not remove")
	}
	if len(m.Headers()) != 1 {
		t.Errorf("Headers after delete = %v", m.Headers())
	}
	m.DelHeader("never-set") // must not panic
}

func TestMessageIDsUnique(t *testing.T) {
	a := NewMessage(Wildcard, nil)
	b := NewMessage(Wildcard, nil)
	if a.ID == b.ID || a.ID == "" {
		t.Errorf("IDs not unique: %q %q", a.ID, b.ID)
	}
}

func TestContentTypeFallback(t *testing.T) {
	m := NewMessage(MustParse("image/gif"), nil)
	if !m.ContentType().Equal(MustParse("image/gif")) {
		t.Error("ContentType mismatch")
	}
	m.SetHeader(HeaderContentType, "garbage//")
	if !m.ContentType().IsWildcard() {
		t.Error("malformed Content-Type should fall back to */*")
	}
	m.DelHeader(HeaderContentType)
	if !m.ContentType().IsWildcard() {
		t.Error("missing Content-Type should fall back to */*")
	}
}

func TestPeerChain(t *testing.T) {
	m := NewMessage(MustParse("text/plain"), nil)
	if _, ok := m.PopPeer(); ok {
		t.Error("PopPeer on empty chain")
	}
	m.PushPeer("compressor")
	m.PushPeer("encryptor")
	if got := m.Peers(); len(got) != 2 || got[0] != "compressor" || got[1] != "encryptor" {
		t.Errorf("Peers = %v", got)
	}
	// LIFO: last pushed reversed first.
	p, ok := m.PopPeer()
	if !ok || p != "encryptor" {
		t.Errorf("PopPeer = %q, %v", p, ok)
	}
	p, ok = m.PopPeer()
	if !ok || p != "compressor" {
		t.Errorf("PopPeer = %q, %v", p, ok)
	}
	if _, ok = m.PopPeer(); ok {
		t.Error("chain should be drained")
	}
	if m.Header(HeaderContentPeers) != "" {
		t.Error("header should be removed once drained")
	}
}

func TestSession(t *testing.T) {
	m := NewMessage(Wildcard, nil)
	if m.Session() != "" {
		t.Error("fresh message has session")
	}
	m.SetSession("sess-42")
	if m.Session() != "sess-42" {
		t.Errorf("Session = %q", m.Session())
	}
}

func TestClone(t *testing.T) {
	m := NewMessage(MustParse("text/plain"), []byte("body"))
	m.SetSession("s1")
	c := m.Clone()
	if c.ID == m.ID {
		t.Error("clone shares ID")
	}
	if string(c.Body()) != "body" || c.Session() != "s1" {
		t.Error("clone lost content")
	}
	c.Body()[0] = 'X'
	if m.Body()[0] == 'X' {
		t.Error("clone aliases body")
	}
	c.SetHeader("X-New", "v")
	if m.Header("X-New") != "" {
		t.Error("clone aliases headers")
	}
}

func TestWireRoundTrip(t *testing.T) {
	m := NewMessage(MustParse("multipart/mixed"), []byte("the payload\r\nwith line breaks\x00and nulls"))
	m.SetSession("sess-7")
	m.PushPeer("a")
	m.PushPeer("b")

	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo returned %d, wrote %d", n, buf.Len())
	}

	got, err := ReadMessage(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID {
		t.Errorf("ID %q != %q", got.ID, m.ID)
	}
	if !bytes.Equal(got.Body(), m.Body()) {
		t.Error("body corrupted")
	}
	if got.Session() != "sess-7" {
		t.Errorf("session = %q", got.Session())
	}
	if ps := got.Peers(); len(ps) != 2 || ps[1] != "b" {
		t.Errorf("peers = %v", ps)
	}
	if got.Header(HeaderContentLength) != "" {
		t.Error("Content-Length should be stripped after framing")
	}
}

func TestReadMessageStream(t *testing.T) {
	var buf bytes.Buffer
	m1 := NewMessage(MustParse("text/plain"), []byte("one"))
	m2 := NewMessage(MustParse("text/plain"), []byte("two two"))
	if _, err := m1.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	a, err := ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Body()) != "one" || string(b.Body()) != "two two" {
		t.Errorf("framing broke: %q %q", a.Body(), b.Body())
	}
	if _, err := ReadMessage(r); err != io.EOF {
		t.Errorf("want io.EOF at stream end, got %v", err)
	}
}

func TestReadMessageErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no content length", "Content-Type: text/plain\r\n\r\n"},
		{"bad header line", "garbage line\r\nContent-Length: 0\r\n\r\n"},
		{"negative length", "Content-Length: -5\r\n\r\n"},
		{"truncated body", "Content-Length: 10\r\n\r\nabc"},
		{"truncated headers", "Content-Type: text/plain\r\n"},
	}
	for _, c := range cases {
		_, err := ReadMessage(bufio.NewReader(strings.NewReader(c.in)))
		if err == nil || err == io.EOF {
			t.Errorf("%s: want hard error, got %v", c.name, err)
		}
	}
}

func TestReadMessageHeaderCap(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 10000; i++ {
		sb.WriteString("X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n")
	}
	sb.WriteString("Content-Length: 0\r\n\r\n")
	if _, err := ReadMessage(bufio.NewReader(strings.NewReader(sb.String()))); err == nil {
		t.Error("oversized header block accepted")
	}
}

// TestReadMessageRefusesHugeContentLength: a short message claiming a
// 1 TiB body is refused before any body buffer is sized from the claim.
func TestReadMessageRefusesHugeContentLength(t *testing.T) {
	in := "Content-Type: text/plain\r\nContent-Length: 1099511627776\r\n\r\nonly a few bytes follow"
	if _, err := ReadMessage(bufio.NewReader(strings.NewReader(in))); err == nil || err == io.ErrUnexpectedEOF {
		t.Errorf("1 TiB Content-Length: want a limit error, got %v", err)
	}
	past := "Content-Length: " + strconv.Itoa(maxBodyBytes+1) + "\r\n\r\n"
	if _, err := ReadMessage(bufio.NewReader(strings.NewReader(past))); err == nil || err == io.ErrUnexpectedEOF {
		t.Errorf("Content-Length past the limit: want a limit error, got %v", err)
	}
}

func TestReadMessageHeaderLineCap(t *testing.T) {
	var sb strings.Builder
	for i := 0; i <= maxHeaderLines; i++ {
		sb.WriteString("X-A: b\r\n")
	}
	sb.WriteString("Content-Length: 0\r\n\r\n")
	if _, err := ReadMessage(bufio.NewReader(strings.NewReader(sb.String()))); err == nil {
		t.Error("header block past the line cap accepted")
	}
}

func TestEncodeDecode(t *testing.T) {
	m := NewMessage(MustParse("image/gif"), bytes.Repeat([]byte{0xAB}, 1024))
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body(), m.Body()) {
		t.Error("Encode/Decode corrupted body")
	}
}

// Property: any body round-trips exactly through the wire codec.
func TestWireRoundTripQuick(t *testing.T) {
	f := func(body []byte, session string) bool {
		m := NewMessage(MustParse("application/octet-stream"), body)
		if !strings.ContainsAny(session, "\r\n:") && session != "" {
			m.SetSession(session)
		}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		return bytes.Equal(got.Body(), body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	n := len(p)
	if n > w.after {
		n = w.after
	}
	w.after -= n
	if n < len(p) {
		return n, io.ErrClosedPipe
	}
	return n, nil
}

func TestWriteToPropagatesWriterErrors(t *testing.T) {
	m := NewMessage(MustParse("text/plain"), bytes.Repeat([]byte("x"), 256))
	// Fail during the header block.
	if _, err := m.WriteTo(&failingWriter{after: 4}); err == nil {
		t.Error("header write error swallowed")
	}
	// Fail during the body.
	if _, err := m.WriteTo(&failingWriter{after: 150}); err == nil {
		t.Error("body write error swallowed")
	}
}

func TestReadMessageZeroLengthBody(t *testing.T) {
	m := NewMessage(MustParse("text/plain"), nil)
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("len = %d", got.Len())
	}
}

func TestNewIDFixedWidth(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 20 || id[:4] != "msg-" {
			t.Fatalf("id %q not fixed-width", id)
		}
		for _, c := range id[4:] {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("id %q has non-hex digit %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestRecycleOwnership(t *testing.T) {
	// Caller-owned bodies (SetBody / NewMessage) must never enter the pool.
	owned := make([]byte, 4096)
	m := NewMessage(MustParse("text/plain"), owned)
	m.Recycle()
	if m.Body() != nil {
		t.Error("Recycle did not detach body")
	}

	// Clone bodies are pool-allocated and may be recycled; a subsequent
	// clone of sufficient size reuses the returned buffer.
	big := NewMessage(MustParse("text/plain"), make([]byte, 8192))
	c1 := big.Clone()
	buf := c1.Body()
	c1.Recycle()
	c2 := big.Clone()
	if &c2.Body()[0] != &buf[0] {
		t.Log("clone did not reuse recycled buffer (pool may have been scavenged); not fatal")
	}
	if !bytes.Equal(c2.Body(), big.Body()) {
		t.Error("clone body corrupted after recycle round trip")
	}

	// Sub-threshold bodies skip the pool entirely.
	small := NewMessage(MustParse("text/plain"), []byte("tiny"))
	sc := small.Clone()
	sc.Recycle() // must not panic or pool a 4-byte buffer
}
