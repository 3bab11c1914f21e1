package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path"
	"strconv"
	"time"

	"mobigate"
	"mobigate/internal/mime"
	"mobigate/internal/msgpool"
	"mobigate/internal/queue"
	"mobigate/internal/server"
	"mobigate/internal/services"
	"mobigate/internal/streamlet"
)

// layerCost is what timing one layer's public calls in isolation gave.
type layerCost struct {
	compileMs, deployMs, undeployMs float64
	connectUs, sendReleaseUs        float64 // shared mode only
	transitUs                       float64 // Inlet.Send → Outlet.Receive, mean
	svc                             map[string]cost
	postFetchNs, putGetNs           float64
	encodeUs, decodeUs, headerBytes float64
	reverseUs, buildUs, checkUs     float64
}

// cost is the mean cost of one call.
type cost struct {
	us     float64 // process CPU time: every goroutine the call wakes counts
	allocs float64 // heap objects
	kib    float64 // heap KiB
}

// timeEach runs f n times and returns the mean cost per call.
func timeEach(n int, f func(i int)) cost {
	u0 := readUsage()
	for i := 0; i < n; i++ {
		f(i)
	}
	u1 := readUsage()
	return cost{
		us:     float64(u1.cpu-u0.cpu) / 1e3 / float64(n),
		allocs: float64(u1.allocObjs-u0.allocObjs) / float64(n),
		kib:    float64(u1.allocBytes-u0.allocBytes) / 1024 / float64(n),
	}
}

const transitN, transitBurst = 1024, 64

// burst sends n messages in bursts of size k, receiving each burst's
// deliveries before the next; a failed send is not waited for.
func burst(n, k int, send func(i int) error, recv func()) {
	for i := 0; i < n; i += k {
		sent := 0
		for j := i; j < i+k && j < n; j++ {
			if send(j) == nil {
				sent++
			}
		}
		for ; sent > 0; sent-- {
			recv()
		}
	}
}

// measureLayers times each layer's public functions on the workload's own
// messages, against a fresh gateway with no traffic.
func measureLayers(b *bench) (*layerCost, error) {
	w, cp := b.w, &b.cp
	lc := &layerCost{svc: map[string]cost{}}

	var compiles []float64
	for i := 0; i < 5; i++ {
		gw := mobigate.NewGateway(mobigate.GatewayOptions{})
		t0 := time.Now()
		err := gw.LoadScript(w.script)
		compiles = append(compiles, float64(time.Since(t0).Microseconds())/1e3)
		gw.Close()
		if err != nil {
			return nil, err
		}
	}
	lc.compileMs = median(compiles)

	gw := mobigate.NewGateway(mobigate.GatewayOptions{ErrorHandler: b.gatewayError})
	defer gw.Close()
	if err := gw.LoadScript(w.script); err != nil {
		return nil, err
	}
	var deploys, undeploys []float64
	for i := 0; i < 20; i++ {
		alias := fmt.Sprintf("%s#ledger%d", w.stream, i)
		t0 := time.Now()
		if _, err := gw.DeployInstance(w.stream, alias); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := gw.Undeploy(alias); err != nil {
			return nil, err
		}
		deploys = append(deploys, float64(t1.Sub(t0).Microseconds())/1e3)
		undeploys = append(undeploys, float64(time.Since(t1).Microseconds())/1e3)
	}
	lc.deployMs, lc.undeployMs = median(deploys), median(undeploys)

	// One message at a time through an idle deployed instance, no TCP.
	entry, exit, err := server.EntryExit(gw.Config().Stream(w.stream))
	if err != nil {
		return nil, err
	}
	st, err := gw.DeployInstance(w.stream, w.stream+"#transit")
	if err != nil {
		return nil, err
	}
	in, err := st.OpenInlet(entry, 0)
	if err != nil {
		return nil, err
	}
	out, err := st.OpenOutlet(exit)
	if err != nil {
		return nil, err
	}
	// Messages go in bursts of transitBurst, like a closed-loop window, so
	// idle polling is amortized as it is under load.
	egress := make([]*mime.Message, 0, transitN)
	var sendErr error
	recv := func() {
		m, err := out.Receive(5 * time.Second)
		if err != nil {
			sendErr = err
		} else if len(egress) < transitN {
			egress = append(egress, m)
		}
	}
	burst(transitBurst, transitBurst, func(i int) error { return in.Send(cp.build(i)) }, recv)
	egress = egress[:0]
	lc.transitUs = timeEach(1, func(int) {
		burst(transitN, transitBurst, func(i int) error { return in.Send(cp.build(i)) }, recv)
	}).us / transitN
	_ = gw.Undeploy(w.stream + "#transit")
	if sendErr != nil {
		return nil, sendErr
	}

	for _, lv := range w.libs {
		c, err := timeService(gw.Directory(), lv.lib, cp)
		if err != nil {
			return nil, err
		}
		lc.svc[lv.lib] = c
	}

	if w.shared {
		sg, err := gw.OpenSessionGateway(w.stream, server.SessionGatewayConfig{})
		if err != nil {
			return nil, err
		}
		lc.connectUs = timeEach(1000, func(i int) {
			id := "ledger-" + strconv.Itoa(i)
			if _, _, err := sg.Connect(id); err == nil {
				sg.Disconnect(id)
			}
		}).us
		sess, ch, err := sg.Connect("ledger-send")
		if err != nil {
			sg.Close()
			return nil, err
		}
		lc.sendReleaseUs = timeEach(1, func(int) {
			burst(transitN, transitBurst, func(i int) error { return sg.Send(sess, cp.build(i)) }, func() { <-ch })
		}).us / transitN
		sg.Disconnect("ledger-send")
		sg.Close()
	}

	q := queue.New("ledger", queue.Options{})
	lc.postFetchNs = timeEach(200000, func(int) {
		_ = q.Post("m", 512, nil)
		if _, ok := q.TryFetch(); ok {
			q.Ack()
		}
	}).us * 1e3
	pool := msgpool.New(msgpool.ByReference)
	pm := cp.build(0)
	lc.putGetNs = timeEach(200000, func(int) {
		id := pool.Put(pm)
		_, _ = pool.Get(id)
		pool.Remove(id)
	}).us * 1e3

	// Egress encode, client decode and reverse processing, and the
	// benchmark's own check, on the messages the chain produced.
	wires := make([][]byte, len(egress))
	var buf bytes.Buffer
	lc.encodeUs = timeEach(len(egress), func(i int) {
		egress[i].SetHeader(server.HeaderSeq, strconv.Itoa(i))
		buf.Reset()
		_, _ = egress[i].WriteToV(&buf)
		wires[i] = append([]byte(nil), buf.Bytes()...)
	}).us
	for i, m := range egress {
		lc.headerBytes += float64(len(wires[i]) - m.Len())
	}
	lc.headerBytes /= float64(len(egress))
	decoded := make([]*mime.Message, len(wires))
	var decErr error
	br := bufio.NewReader(bytes.NewReader(bytes.Join(wires, nil)))
	lc.decodeUs = timeEach(len(wires), func(i int) {
		decoded[i], err = mime.ReadMessage(br)
		if err != nil && decErr == nil {
			decErr = err
		}
	}).us
	if decErr != nil {
		return nil, decErr
	}
	cl := mobigate.NewClient(mobigate.ClientOptions{}, nil)
	reversed := make([]*mime.Message, len(decoded))
	var revErr error
	lc.reverseUs = timeEach(len(decoded), func(i int) {
		reversed[i], err = cl.Process(decoded[i])
		if err != nil && revErr == nil {
			revErr = err
		}
	}).us
	if revErr != nil {
		return nil, revErr
	}
	var checkErr error
	lc.checkUs = timeEach(len(reversed), func(i int) {
		if _, _, err := cp.check(reversed[i]); err != nil && checkErr == nil {
			checkErr = err
		}
	}).us
	if checkErr != nil {
		return nil, fmt.Errorf("ledger reference check: %w", checkErr)
	}
	lc.buildUs = timeEach(20000, func(i int) { _ = cp.build(i) }).us
	return lc, nil
}

// timeService times one library's Process on the messages of the corpus
// that reach it, each in the form it has at that hop.
func timeService(dir *streamlet.Directory, lib string, cp *corpus) (cost, error) {
	factory, err := dir.Lookup(lib)
	if err != nil {
		return cost{}, err
	}
	proc := factory()
	if lib == services.LibGif2Jpeg {
		if err := proc.(streamlet.Configurable).SetParam("quality", "4"); err != nil {
			return cost{}, err
		}
	}
	var inputs []streamlet.Input
	for k := range cp.body {
		m := cp.build(k)
		image := cp.typ[k].Type == "image"
		switch lib {
		case services.LibDownSample, services.LibGif2Jpeg:
			if !image {
				continue
			}
			if lib == services.LibGif2Jpeg {
				out, err := (&services.DownSampler{}).Process(streamlet.Input{Port: "pi", Msg: m})
				if err != nil {
					return cost{}, err
				}
				m = out[0].Msg
			}
		case services.LibTextCompress:
			if image {
				continue
			}
		}
		port := "pi"
		if lib == services.LibMerge {
			port = "pi2"
			if image {
				port = "pi1"
			}
		}
		inputs = append(inputs, streamlet.Input{Port: port, Msg: m})
	}
	// Each call gets its own clone: processors transform in place.
	const rounds = 4
	batch := make([]streamlet.Input, 0, rounds*len(inputs))
	for r := 0; r < rounds; r++ {
		for _, in := range inputs {
			batch = append(batch, streamlet.Input{Port: in.Port, Msg: in.Msg.Clone()})
		}
	}
	var perr error
	c := timeEach(len(batch), func(i int) {
		if _, err := proc.Process(batch[i]); err != nil && perr == nil {
			perr = err
		}
	})
	return c, perr
}

// libName is the short metric name of a service library.
func libName(lib string) string { return path.Base(lib) }

// allLibs are the libraries any workload uses; each workload reports all
// of them, with 0 for the ones off its path.
var allLibs = []string{
	services.LibRedirector, services.LibFooter, services.LibSign,
	services.LibSwitch, services.LibDownSample, services.LibGif2Jpeg,
	services.LibTextCompress, services.LibMerge,
}
