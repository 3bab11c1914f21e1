package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"mobigate/internal/mime"
	"mobigate/internal/services"
	"mobigate/internal/streamlet"
)

// relay6Script is four header-parsing redirectors, a footer and an HMAC
// signer. All six are STATELESS, so the chain fuses by default and is
// session-safe; the client reverses it with the integrity/verify peer.
const relay6Script = `
streamlet redirect {
	port { in pi : text/*; out po : text/*; }
	attribute { type = STATELESS; library = "bench/redirector"; }
}
streamlet footer {
	port { in pi : text/*; out po : text/*; }
	attribute { type = STATELESS; library = "text/footer"; }
}
streamlet sign {
	port { in pi : text/*; out po : text/*; }
	attribute { type = STATELESS; library = "integrity/sign"; }
}
main stream relay6 {
	streamlet r1 = new-streamlet (redirect);
	streamlet r2 = new-streamlet (redirect);
	streamlet r3 = new-streamlet (redirect);
	streamlet r4 = new-streamlet (redirect);
	streamlet ft = new-streamlet (footer);
	streamlet sg = new-streamlet (sign);
	connect (r1.po, r2.pi);
	connect (r2.po, r3.pi);
	connect (r3.po, r4.pi);
	connect (r4.po, ft.pi);
	connect (ft.po, sg.pi);
}
`

// webaccelScript is the §7.5 web-acceleration stream wired statically in
// its LOW_BANDWIDTH topology: images go switch → downsample → gif2jpeg →
// merge, text goes switch → compress → merge. The STATEFUL merge makes it
// unsafe for shared sessions, so it deploys per connection.
const webaccelScript = `
streamlet switch {
	port { in pi : */*; out po1 : image/*; out po2 : text/*; }
	attribute { type = STATELESS; library = "general/switch"; }
}
streamlet img_down_sample {
	port { in pi : image/*; out po : image/*; }
	attribute { type = STATELESS; library = "image/downsample"; }
}
streamlet gif2jpeg {
	port { in pi : image/*; out po : image/*; }
	attribute { type = STATELESS; library = "image/gif2jpeg"; param-quality = 4; }
}
streamlet text_compress {
	port { in pi : text; out po : text; }
	attribute { type = STATELESS; library = "text/compress"; }
}
streamlet merge {
	port { in pi1 : image/*; in pi2 : text; out po : multipart/mixed; }
	attribute { type = STATEFUL; library = "general/merge"; }
}
main stream webaccel {
	streamlet sw = new-streamlet (switch);
	streamlet ds = new-streamlet (img_down_sample);
	streamlet tj = new-streamlet (gif2jpeg);
	streamlet tc = new-streamlet (text_compress);
	streamlet mg = new-streamlet (merge);
	connect (sw.po1, ds.pi);
	connect (ds.po, tj.pi);
	connect (tj.po, mg.pi1);
	connect (sw.po2, tc.pi);
	connect (tc.po, mg.pi2);
}
`

// traffic is how a workload's origin offers messages.
type traffic int

const (
	// closedLoop: each session keeps a fixed window of undelivered
	// messages; a message is due when a delivery frees its slot.
	closedLoop traffic = iota
	// openLoop: each session's messages are due at a fixed mean rate,
	// with exponential gaps.
	openLoop
	// sessionChurn: short sessions are due at a fixed rate; each
	// session's messages are all due when the session is.
	sessionChurn
)

// workload is one traffic mix the benchmark drives through the gateway.
type workload struct {
	name    string
	script  string
	stream  string
	shared  bool // shared-session front-end mode
	traffic traffic
	// conns bounds the client connections open at once.
	conns int
	// window is the closed-loop window of undelivered messages per session.
	window int
	// rate is messages/s per session (openLoop) or sessions/s (sessionChurn).
	rate float64
	// capBytes bounds the gateway's queued bytes at each open-loop
	// hand-off (see admit); 0 is unbounded.
	capBytes int
	// perSession is the message count of one churn session.
	perSession int
	// corpus builds the seeded inputs and their reference outputs.
	corpus func(seed int64) corpus
	// libs are the service libraries on the path, with the mean number of
	// times a message visits each; they size the ledger's services row.
	libs []libVisit
}

type libVisit struct {
	lib    string
	visits func(c corpus) float64
}

func always(n float64) func(corpus) float64 { return func(corpus) float64 { return n } }

var workloads = map[string]*workload{
	"bulk": {
		name: "bulk", script: relay6Script, stream: "relay6", shared: true,
		traffic: closedLoop, conns: 2, window: 64,
		corpus: textCorpus,
		libs: []libVisit{
			{services.LibRedirector, always(4)},
			{services.LibFooter, always(1)},
			{services.LibSign, always(1)},
		},
	},
	"webaccel": {
		name: "webaccel", script: webaccelScript, stream: "webaccel",
		traffic: openLoop, conns: 2, rate: 300, capBytes: 96 << 10,
		corpus: mixedCorpus,
		libs: []libVisit{
			{services.LibSwitch, always(1)},
			{services.LibDownSample, func(c corpus) float64 { return c.imageShare() }},
			{services.LibGif2Jpeg, func(c corpus) float64 { return c.imageShare() }},
			{services.LibTextCompress, func(c corpus) float64 { return 1 - c.imageShare() }},
			{services.LibMerge, always(1)},
		},
	},
	"churn": {
		name: "churn", script: relay6Script, stream: "relay6",
		traffic: sessionChurn, conns: 2, rate: 80, perSession: 8,
		corpus: textCorpus,
		libs: []libVisit{
			{services.LibRedirector, always(4)},
			{services.LibFooter, always(1)},
			{services.LibSign, always(1)},
		},
	},
}

// Benchmark headers carried end to end on every origin message.
const (
	hdrSession = "X-Bench-Session"
	hdrSeq     = "X-Bench-Seq"
)

// corpusSize is how many distinct origin messages a workload cycles
// through; message i of a session is input i mod corpusSize.
const corpusSize = 1024

// corpus holds a workload's seeded origin inputs and, for each, the
// application-ready message the client must end up with.
type corpus struct {
	typ      []mime.MediaType
	body     [][]byte
	want     [][]byte
	wantType []string // X-Original-Type after merge; "" when unmerged
	branch   []int    // FIFO class: messages keep order within a branch
	hops     string   // X-Redirector-Hops the chain must stamp; "" if none
}

func (c corpus) imageShare() float64 {
	n := 0
	for _, t := range c.typ {
		if t.Type == "image" {
			n++
		}
	}
	return float64(n) / float64(len(c.typ))
}

// build makes origin message i. The gateway takes ownership, so the body
// is a fresh copy.
func (c corpus) build(i int) *mime.Message {
	k := i % len(c.body)
	m := mime.NewMessage(c.typ[k], append([]byte(nil), c.body[k]...))
	m.SetHeader(hdrSeq, strconv.Itoa(i))
	return m
}

// check verifies a delivered, reverse-processed message against the
// reference for its origin index and returns its FIFO branch.
func (c corpus) check(m *mime.Message) (seq, branch int, err error) {
	seq, err = strconv.Atoi(m.Header(hdrSeq))
	if err != nil || seq < 0 {
		return 0, 0, fmt.Errorf("bad %s %q", hdrSeq, m.Header(hdrSeq))
	}
	k := seq % len(c.body)
	if !bytes.Equal(m.Body(), c.want[k]) {
		return seq, 0, fmt.Errorf("message %d: body differs from reference (%d vs %d bytes)", seq, m.Len(), len(c.want[k]))
	}
	if c.wantType[k] != "" && m.Header("X-Original-Type") != c.wantType[k] {
		return seq, 0, fmt.Errorf("message %d: original type %q, want %q", seq, m.Header("X-Original-Type"), c.wantType[k])
	}
	if c.hops != "" && m.Header("X-Redirector-Hops") != c.hops {
		return seq, 0, fmt.Errorf("message %d: %q redirector hops, want %s", seq, m.Header("X-Redirector-Hops"), c.hops)
	}
	if m.Header(services.IntegrityHeader) != "" {
		return seq, 0, fmt.Errorf("message %d: integrity tag not verified", seq)
	}
	return seq, c.branch[k], nil
}

// footerText is the Footer streamlet's default annotation.
const footerText = "\n-- via MobiGATE --\n"

// textCorpus is 512-byte text bodies; relay6 must deliver each with the
// footer appended, signed, and stamped by four redirector hops.
func textCorpus(seed int64) corpus {
	rng := rand.New(rand.NewSource(seed))
	c := corpus{hops: "4"}
	for i := 0; i < corpusSize; i++ {
		b := services.GenText(512, rng.Int63())
		c.typ = append(c.typ, services.TypePlainText)
		c.body = append(c.body, b)
		c.want = append(c.want, append(append([]byte(nil), b...), footerText...))
		c.wantType = append(c.wantType, "")
		c.branch = append(c.branch, 0)
	}
	return c
}

// mixedCorpus is the §7.5 mix, half images. The reference image is
// downsample then gif2jpeg applied directly; text must come back equal to
// the origin after the client's decompressor.
func mixedCorpus(seed int64) corpus {
	var c corpus
	for _, m := range services.MixedWorkload(corpusSize, 0.5, seed) {
		c.typ = append(c.typ, m.ContentType())
		c.body = append(c.body, m.Body())
		if m.ContentType().Type != "image" {
			c.want = append(c.want, m.Body())
			c.wantType = append(c.wantType, m.Header(mime.HeaderContentType))
			c.branch = append(c.branch, 1)
			continue
		}
		ref := mime.NewMessage(m.ContentType(), append([]byte(nil), m.Body()...))
		for _, p := range []streamlet.Processor{&services.DownSampler{}, &services.Transcoder{Quality: 4}} {
			out, err := p.Process(streamlet.Input{Port: "pi", Msg: ref})
			if err != nil || len(out) != 1 {
				panic(fmt.Sprintf("reference transcode: %v", err))
			}
			ref = out[0].Msg
		}
		c.want = append(c.want, ref.Body())
		c.wantType = append(c.wantType, ref.Header(mime.HeaderContentType))
		c.branch = append(c.branch, 0)
	}
	return c
}
