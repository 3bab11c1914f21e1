package mime

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadMessage feeds arbitrary bytes to the wire reader. Whatever it
// accepts must survive an Encode/ReadMessage round trip unchanged, and no
// input may make it allocate past the ingress limits. The seed corpus is in
// testdata/fuzz/FuzzReadMessage; `make fuzz-smoke` runs a short session.
func FuzzReadMessage(f *testing.F) {
	f.Add([]byte("Content-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if m.Len() > len(data) {
			t.Fatalf("body of %d bytes from a %d-byte input", m.Len(), len(data))
		}
		back, err := ReadMessage(bufio.NewReader(bytes.NewReader(m.Encode())))
		if err != nil {
			t.Fatalf("re-reading an encoded message: %v", err)
		}
		if back.ID != m.ID || !bytes.Equal(back.Body(), m.Body()) {
			t.Fatalf("round trip changed id or body: %q/%q vs %q/%q", m.ID, m.Body(), back.ID, back.Body())
		}
		keys, got := m.Headers(), back.Headers()
		if len(keys) != len(got) {
			t.Fatalf("round trip changed headers: %q vs %q", keys, got)
		}
		for i, k := range keys {
			if got[i] != k || back.Header(k) != m.Header(k) {
				t.Fatalf("header %q: %q became %q: %q", k, m.Header(k), got[i], back.Header(got[i]))
			}
		}
	})
}
