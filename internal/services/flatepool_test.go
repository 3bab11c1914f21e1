package services

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"mobigate/internal/mime"
	"mobigate/internal/streamlet"
)

// codecSizes interleaves large and small inputs so every reused codec
// follows both a larger and a smaller message.
var codecSizes = []int{0, 64 << 10, 1, 4096, 17, 32 << 10, 100, 8192, 64 << 10, 0, 2048, 48 << 10, 3}

// codecInput is size bytes of either redundant text or incompressible
// noise, chosen by seed.
func codecInput(size int, seed int64) []byte {
	if seed%2 == 0 {
		return GenText(size, seed)[:size]
	}
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// freshDeflate is the reference: a new flate.Writer per input.
func freshDeflate(t *testing.T, level int, prefix, src []byte) []byte {
	t.Helper()
	buf := bytes.NewBuffer(append([]byte(nil), prefix...))
	fw, err := flate.NewWriter(buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPooledCompressorMatchesFreshWriter: a Compressor reusing pooled
// writers emits the bytes a fresh flate.NewWriter would, at every level.
func TestPooledCompressorMatchesFreshWriter(t *testing.T) {
	for _, level := range []int{flate.DefaultCompression, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		c := &Compressor{Level: level}
		for i, size := range codecSizes {
			src := codecInput(size, int64(i))
			out := runProc(t, c, "pi", mime.NewMessage(TypePlainText, append([]byte(nil), src...)))
			want := freshDeflate(t, level, nil, src)
			if got := out[0].Msg.Body(); !bytes.Equal(got, want) {
				t.Fatalf("level %d, %d B input: pooled output (%d B) differs from fresh writer (%d B)",
					level, size, len(got), len(want))
			}
			if got := out[0].Msg.Header("X-Original-Length"); got != fmt.Sprint(size) {
				t.Fatalf("X-Original-Length = %q, want %d", got, size)
			}
		}
	}
}

// TestPooledTranscoderMatchesFreshWriter: the Transcoder's pooled writer
// and appended header give the bytes of the fmt/NewWriter formulation.
func TestPooledTranscoderMatchesFreshWriter(t *testing.T) {
	for i, side := range []int{127, 1, 64, 3, 96, 2, 127} {
		for _, q := range []int{1, 4, 8} {
			m := GenImageMessage(side, side, int64(i))
			r, _ := DecodeRaster(m.Body())
			quantized := make([]byte, len(r.Pix))
			for j, p := range r.Pix {
				quantized[j] = (p >> uint(8-q)) << uint(8-q)
			}
			want := freshDeflate(t, flate.BestSpeed, []byte(fmt.Sprintf("RJPG %d %d %d\n", side, side, q)), quantized)
			out := runProc(t, &Transcoder{Quality: q}, "pi", m)
			if got := out[0].Msg.Body(); !bytes.Equal(got, want) {
				t.Fatalf("%dx%d q=%d: pooled output (%d B) differs from fresh writer (%d B)", side, side, q, len(got), len(want))
			}
		}
	}
}

// TestEncodeDownsampledMatchesRaster: the DownSampler's direct write into
// the encoded buffer equals Downsample().Encode(), odd sizes included.
func TestEncodeDownsampledMatchesRaster(t *testing.T) {
	for _, wh := range [][2]int{{1, 1}, {1, 9}, {2, 2}, {3, 5}, {65, 33}, {127, 127}} {
		r := GenRaster(wh[0], wh[1], int64(wh[0]))
		if got, want := r.encodeDownsampled(), r.Downsample().Encode(); !bytes.Equal(got, want) {
			t.Fatalf("%dx%d: direct downsample differs", wh[0], wh[1])
		}
		m := GenImageMessage(wh[0], wh[1], int64(wh[0]))
		out := runProc(t, &DownSampler{}, "pi", m)
		if !bytes.Equal(out[0].Msg.Body(), r.Downsample().Encode()) || out[0].Msg.Header("X-Downsampled") != "1" {
			t.Fatalf("%dx%d: DownSampler output differs", wh[0], wh[1])
		}
	}
}

// TestCodecsConcurrentRoundTrip: eight goroutines share the codec pools;
// every output must reverse to its input.
func TestCodecsConcurrentRoundTrip(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				seed := int64(g*1000 + i)
				size := codecSizes[(g+i)%len(codecSizes)]
				src := codecInput(size, seed)
				m := mime.NewMessage(TypePlainText, append([]byte(nil), src...))
				out, err := (&Compressor{}).Process(streamlet.Input{Port: "pi", Msg: m})
				if err == nil {
					out, err = Decompressor{}.Process(streamlet.Input{Port: "pi", Msg: out[0].Msg})
				}
				if err != nil || !bytes.Equal(out[0].Msg.Body(), src) {
					errs <- fmt.Errorf("goroutine %d: text round trip of %d B failed: %v", g, size, err)
					return
				}
				side := 2 + int(seed%90)
				img := GenImageMessage(side, side, seed)
				orig, _ := DecodeRaster(img.Body())
				want := make([]byte, len(orig.Pix))
				for j, p := range orig.Pix {
					want[j] = p &^ 0x0F
				}
				out, err = (&Transcoder{Quality: 4}).Process(streamlet.Input{Port: "pi", Msg: img})
				if err != nil {
					errs <- err
					return
				}
				back, err := DecodeTranscoded(out[0].Msg.Body())
				if err != nil || back.Width != side || !bytes.Equal(back.Pix, want) {
					errs <- fmt.Errorf("goroutine %d: image round trip of %dx%d failed: %v", g, side, side, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCompressorHeapPerCall: with the writer pooled, compressing an 8 KiB
// text allocates only the output body and header strings, not a fresh
// ~1.2 MB compressor.
func TestCompressorHeapPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector sync.Pool drops pooled writers at random")
	}
	text := GenText(8<<10, 5)
	msgs := make([]*mime.Message, 101)
	for i := range msgs {
		msgs[i] = mime.NewMessage(TypePlainText, append([]byte(nil), text...))
	}
	c := &Compressor{}
	runProc(t, c, "pi", msgs[100]) // warm the pool
	// No collection may empty the pool mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range msgs[:100] {
		if _, err := c.Process(streamlet.Input{Port: "pi", Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per >= 64<<10 {
		t.Fatalf("Compressor.Process allocates %d B per call on 8 KiB text, want < 64 KiB", per)
	}
}

// TestInvalidLevelStillErrors: a Level outside flate's range is rejected
// with flate's error, and the failure leaves the pools usable.
func TestInvalidLevelStillErrors(t *testing.T) {
	for _, level := range []int{10, -3} {
		m := GenTextMessage(100, 1)
		if _, err := (&Compressor{Level: level}).Process(streamlet.Input{Port: "pi", Msg: m}); err == nil {
			t.Errorf("level %d accepted", level)
		}
	}
	src := GenText(1000, 2)
	out := runProc(t, &Compressor{}, "pi", mime.NewMessage(TypePlainText, append([]byte(nil), src...)))
	if back := runProc(t, Decompressor{}, "pi", out[0].Msg); !bytes.Equal(back[0].Msg.Body(), src) {
		t.Error("round trip after invalid level failed")
	}
}

// TestCorruptStreamDoesNotPoisonPool: a decompression error drops the
// reader; the next message still decodes.
func TestCorruptStreamDoesNotPoisonPool(t *testing.T) {
	bad := mime.NewMessage(TypePlainText, []byte{0xff, 0xfe, 0xfd})
	bad.SetHeader("Content-Encoding", "deflate")
	if _, err := (Decompressor{}).Process(streamlet.Input{Port: "pi", Msg: bad}); err == nil {
		t.Fatal("corrupt stream decoded")
	}
	src := GenText(4096, 3)
	out := runProc(t, &Compressor{}, "pi", mime.NewMessage(TypePlainText, append([]byte(nil), src...)))
	if back := runProc(t, Decompressor{}, "pi", out[0].Msg); !bytes.Equal(back[0].Msg.Body(), src) {
		t.Error("round trip after corrupt stream failed")
	}
	// A transcoded body whose stream holds more pixels than its header
	// declares is refused.
	long := append(appendTranscodedHeader(nil, 2, 2, 4), freshDeflate(t, flate.BestSpeed, nil, make([]byte, 13))...)
	if _, err := DecodeTranscoded(long); err == nil {
		t.Error("overlong transcoded stream accepted")
	}
}
