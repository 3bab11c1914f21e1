package main

import (
	"fmt"
)

// ledger reports the per-layer metrics and the cost ledger: per delivered
// message, the CPU the untraced pass spent is split into rows, each the
// isolated cost of one layer's calls times how often a message makes
// them; what no row explains is ledger.unattributed_us. Rows are means,
// so they add up.
func ledger(rep *report, b *bench, lc *layerCost, plain, spanned *passResult) {
	w, cp := b.w, &b.cp
	cpu := plain.cpuPerMsg()
	tracedCPU := spanned.cpuPerMsg()

	services := 0.0
	for _, lv := range w.libs {
		services += lv.visits(*cp) * lc.svc[lv.lib].us
	}
	sessionUs := 0.0
	if w.shared {
		sessionUs = lc.sendReleaseUs - lc.transitUs
	}
	// Per-connection sessions deploy and undeploy the chain once each.
	deployUs := 0.0
	if !w.shared && plain.intact > 0 {
		deployUs = (lc.deployMs + lc.undeployMs) * 1e3 * float64(plain.sessions) / float64(plain.intact)
	}
	rows := []struct {
		name string
		us   float64
	}{
		{"services (Σ Processor.Process)", services},
		{"stream.overhead (transit − services)", lc.transitUs - services},
		{"session.overhead (send+release − transit)", sessionUs},
		{"server.deploy+undeploy per message", deployUs},
		{"mime.encode (egress WriteToV)", lc.encodeUs},
		{"mime.decode (client ReadMessage)", lc.decodeUs},
		{"client.reverse (client.Process)", lc.reverseUs},
		{"gen.build (origin message)", lc.buildUs},
		{"oracle.check (reference compare)", lc.checkUs},
	}
	sum := 0.0
	rep.lines = append(rep.lines, "ledger, µs per delivered message (rows + unattributed = cpu_us_per_msg):")
	for _, r := range rows {
		sum += r.us
		rep.lines = append(rep.lines, fmt.Sprintf("  %-44s %10.3f", r.name, r.us))
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("  %-44s %10.3f", "unattributed", cpu-sum),
		fmt.Sprintf("  %-44s %10.3f", "= cpu_us_per_msg (untraced pass)", cpu),
		"per-layer metrics:")

	lag := quantile(spanned.lag, 0.99)
	rep.addPct("gen.lag_p99_ms", lag, "ms")
	rep.addPct("server.feed_wait_us", quantile(spanned.feed, 0.99), "us")
	rep.addPct("server.transit_us", quantile(spanned.transit, 0.50), "us")
	rep.add("mcl.compile_ms", lc.compileMs, "ms")
	rep.add("server.deploy_ms", lc.deployMs, "ms")
	rep.add("server.undeploy_ms", lc.undeployMs, "ms")
	rep.add("session.connect_us", lc.connectUs, "us")
	rep.add("session.send_release_us", lc.sendReleaseUs, "us")
	rep.add("stream.transit_us", lc.transitUs, "us")
	rep.add("stream.overhead_us", lc.transitUs-services, "us")
	for _, lib := range allLibs {
		c, name := lc.svc[lib], "services."+libName(lib)
		rep.add(name+"_us", c.us, "us")
		rep.add(name+"_allocs", c.allocs, "count")
		rep.add(name+"_kib", c.kib, "KiB")
	}
	rep.add("queue.post_fetch_ns", lc.postFetchNs, "ns")
	rep.add("msgpool.put_get_ns", lc.putGetNs, "ns")
	rep.add("mime.encode_us", lc.encodeUs, "us")
	rep.add("mime.decode_us", lc.decodeUs, "us")
	rep.add("mime.header_bytes", lc.headerBytes, "B")
	rep.add("client.reverse_us", lc.reverseUs, "us")
	rep.add("gen.build_us", lc.buildUs, "us")
	rep.add("oracle.check_us", lc.checkUs, "us")
	both := func(f func(*passResult) float64) float64 { return f(plain) + f(spanned) }
	rep.add("queue.drops", both(func(p *passResult) float64 { return p.obsSum("mobigate_queue_drop_total") }), "count")
	rep.add("session.sheds", both(func(p *passResult) float64 {
		return p.obsSum("mobigate_session_load_shed_total", "mobigate_session_quota_shed_total", "mobigate_session_admission_shed_total")
	}), "count")
	rep.add("stream.dropped", both(func(p *passResult) float64 { return p.obsSum("mobigate_stream_dropped_total") }), "count")
	rep.add("server.lost", both(func(p *passResult) float64 { return float64(p.lost) }), "count")
	rep.add("ledger.cpu_us_per_msg", cpu, "us")
	rep.add("ledger.unattributed_us", cpu-sum, "us")
	rep.add("trace.overhead_us", tracedCPU-cpu, "us")
	rep.addPct("latency_p99_ms", plain.latencyPct(0.99), "ms")
	rep.add("sessions_per_s", sessionsPerS(plain), "1/s")
	rep.addPct("ttfm_p50_ms", quantile(plain.ttfm, 0.50), "ms")
	rep.addPct("ttfm_p99_ms", quantile(plain.ttfm, 0.99), "ms")
	rep.add("failed_ratio", plain.failedRatio(), "ratio")
}
