package main

import "sort"

// endToEnd computes the end-to-end metrics from the untraced window and
// the write/read probes that follow its slices, over the quiet slices
// (see quietSlices). A failed request counts as its whole slice long, so
// it misses any latency limit. Goodput and the latency quantiles are
// computed per slice and reported as their medians over the slices, so
// that a few seconds in which other tenants of a shared host took the
// CPU do not decide them. So is CPU per request: every workload keeps
// the server busy for most of each slice, so the 10 ms ticks in which
// /proc counts CPU time are about 1% of a slice's.
func (b *bench) endToEnd() []metric {
	quiet := quietSlices(b.slices)
	var good, p50, p90, cpu []float64
	for _, s := range quiet {
		good = append(good, goodput(s.results, s.seconds()))
		lat := latencies(s.results, 1000*s.seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		cpu = append(cpu, ms(s.to.cpu-s.from.cpu)/float64(max(1, len(s.results))))
	}
	return []metric{
		{"goodput_rps", median(good), "1/s"},
		{"latency_p50_ms", median(p50), "ms"},
		{"latency_p90_ms", median(p90), "ms"},
		{"server_cpu_ms_per_req", median(cpu), "ms"},
		{"server_peak_rss_mb", b.rssMB, "MiB"},
		{"setup_s", median(b.setupS), "s"},
		{"write_p50_ms", quantile(b.corpusLatencies(quiet, (*req).write), 0.5), "ms"},
		{"read_p50_ms", quantile(b.corpusLatencies(quiet, (*req).read), 0.5), "ms"},
	}
}

// quietSteal is the host steal share above which a slice counts as
// disturbed.
const quietSteal = 0.05

// quietSlices returns the slices whose host steal share, from the start
// of the slice to the end of its probes, is at most quietSteal; if fewer
// than half are, the half (rounded up) with the least steal. The host is
// a shared VM, and this keeps seconds of heavy steal out of the figures;
// steal that lasts a whole run still shows, and the run's steal share is
// in the host line.
func quietSlices(ss []slice) []slice {
	steal := func(s slice) float64 { return stealShare(s.from, s.done) }
	sorted := append([]slice(nil), ss...)
	sort.SliceStable(sorted, func(i, j int) bool { return steal(sorted[i]) < steal(sorted[j]) })
	keep := (len(sorted) + 1) / 2
	for keep < len(sorted) && steal(sorted[keep]) <= quietSteal {
		keep++
	}
	return sorted[:keep]
}

// stealShare is the share of host CPU time the hypervisor stole between
// two ticks.
func stealShare(from, to tick) float64 {
	return float64(to.steal-from.steal) / float64(max(1, to.total-from.total))
}

// windowSteal is the share of host CPU time the hypervisor stole during
// the measured window's slices.
func (b *bench) windowSteal() float64 {
	var steal, total int64
	for _, s := range b.slices {
		steal += s.to.steal - s.from.steal
		total += s.to.total - s.from.total
	}
	return float64(steal) / float64(max(1, total))
}

// goodput is the rate, per second over d seconds, of the requests
// answered correctly.
func goodput(rs []*result, d float64) float64 {
	good := 0
	for _, res := range rs {
		if res.ok() {
			good++
		}
	}
	return float64(good) / max(d, 1e-9)
}

// latencies returns the client latencies (ms) of the requests, a failed
// one counted as at least capMS.
func latencies(rs []*result, capMS float64) []float64 {
	var out []float64
	for _, res := range rs {
		l := ms(res.latency())
		if !res.ok() && l < capMS {
			l = capMS
		}
		out = append(out, l)
	}
	return out
}

// overshoots returns, for every deadline probe answered 504, the
// client-observed time past its deadline (ms).
func (b *bench) overshoots() []float64 {
	var out []float64
	for _, res := range b.advProb {
		if res.err == nil && res.status == 504 {
			out = append(out, ms(res.done.Sub(res.sent))-float64(res.r.deadlineMS))
		}
	}
	return out
}

// corpusLatencies returns the latencies (ms) of the correctly answered
// corpus requests of the given slices matching keep: from the window on
// corpus-rw, from the probe rounds elsewhere.
func (b *bench) corpusLatencies(ss []slice, keep func(*req) bool) []float64 {
	var src []*result
	for _, s := range ss {
		if b.wl == "corpus-rw" {
			src = append(src, s.results...)
		} else {
			src = append(src, s.probes...)
		}
	}
	var out []float64
	for _, res := range src {
		if keep(res.r) && res.ok() {
			out = append(out, ms(res.latency()))
		}
	}
	return out
}

// perLayer computes the per-layer metrics that come from the client's
// view, /metrics deltas and the fetched server traces; measureLayers adds
// the in-process ones.
func (b *bench) perLayer() []metric {
	win := b.results(phWindow)
	traced := b.results(phTraced)
	count := func(rs []*result, keep func(*req) bool) int {
		n := 0
		for _, res := range rs {
			if keep(res.r) {
				n++
			}
		}
		return n
	}
	failed := 0
	for _, res := range win {
		if !res.ok() {
			failed++
		}
	}
	containment := count(win, (*req).containment)
	dtdReqs := count(win, func(r *req) bool { return r.kind == kDTD })
	inferReqs := count(win, func(r *req) bool { return r.kind == kInfer })
	reads := count(win, func(r *req) bool { return r.kind == kReadTriples || r.kind == kReadLog })
	per := func(v float64, n int) float64 { return v / float64(max(1, n)) }
	d := func(name string) float64 { return delta(nil, b.mWin, name) }
	hits, misses := d("rwdserve_cache_hits_total"), d("rwdserve_cache_misses_total")

	var winSeconds float64
	for _, s := range b.slices {
		winSeconds += s.seconds()
	}
	tracedGoodput := goodput(traced, b.tracedEnd.Sub(b.tracedStart).Seconds())
	untracedGoodput := goodput(win, winSeconds)
	tr := b.reconcile(traced)
	overshoots := b.overshoots()

	return []metric{
		{"failed_share", share(failed, len(win)), "ratio"},
		{"client.ttfb_p50_ms", quantile(tr.ttfb, 0.5), "ms"},
		{"client.body_read_p50_ms", quantile(tr.body, 0.5), "ms"},
		{"client.latency_p99_ms", quantile(latencies(win, ms(sliceLen)), 0.99), "ms"},
		{"client.conn_new", float64(tr.connNew), "count"},
		{"transport.p50_ms", quantile(tr.transport, 0.5), "ms"},
		{"gen.repeat_key_share", b.repeatKeyShare(win), "ratio"},
		{"gen.requests", float64(len(win)), "count"},
		{"service.root_p50_ms", quantile(tr.root, 0.5), "ms"},
		{"service.root_p99_ms", quantile(tr.root, 0.99), "ms"},
		{"service.self_p50_ms", quantile(tr.self, 0.5), "ms"},
		{"service.rejected_429", familyDelta(nil, b.mWin, "rwdserve_rejected_total", nil), "count"},
		{"service.timeouts_504", familyDelta(nil, b.mWin, "rwdserve_timeouts_total", nil), "count"},
		{"service.client_closed_408", familyDelta(nil, b.mWin, "rwdserve_client_closed_total", nil), "count"},
		{"service.inflight_mean", mean(b.gauges.inflight), "count"},
		{"service.overshoot_p50_ms", quantile(overshoots, 0.5), "ms"},
		{"service.overshoot_p99_ms", quantile(overshoots, 0.99), "ms"},
		{"cache.hit_ratio", hits / max(1, hits+misses), "ratio"},
		{"cache.evictions", d("rwdserve_cache_evictions_total"), "count"},
		{"automata.states_expanded_per_req", per(spanCost(nil, b.mWin, "states_expanded", "automata.contains"), containment), "count"},
		{"automata.product_states_per_req", per(spanCost(nil, b.mWin, "product_states", "automata.contains"), containment), "count"},
		{"automata.antichain_pruned_per_req", per(spanCost(nil, b.mWin, "antichain_pruned", "automata.contains"), containment), "count"},
		{"dtd.labels_checked_per_req", per(spanCost(nil, b.mWin, "labels_checked", "dtd.contains"), dtdReqs), "count"},
		{"inference.rule_rounds_per_req", per(spanCost(nil, b.mWin, "rule_rounds", "inference.rwr"), inferReqs), "count"},
		{"store.flush_p50_ms", flushQuantile(nil, b.mWin, 0.5), "ms"},
		{"store.segments_end", b.mEnd["rwd_store_segments"], "count"},
		{"store.segments_scanned_per_read", per(spanCost(nil, b.mWin, "segments_scanned", "http.analyze", "store.scan"), reads), "count"},
		{"store.keys_compared_per_read", per(spanCost(nil, b.mWin, "keys_compared", "http.analyze", "store.scan"), reads), "count"},
		{"obs.trace_bytes_per_req", mean(tr.traceBytes), "bytes"},
		{"trace.goodput_overhead_share", 1 - tracedGoodput/max(untracedGoodput, 1e-9), "ratio"},
		{"trace.unreconciled", float64(tr.unreconciled), "count"},
		{"trace.requests", float64(len(traced)), "count"},
	}
}

// repeatKeyShare is the share of the window's containment requests whose
// canonical cache key (the server's: engine plus the parsed inputs
// rendered back) was already sent earlier in the run.
func (b *bench) repeatKeyShare(win []*result) float64 {
	seen := map[string]bool{}
	key := canonicalKey
	var earlier []*result
	earlier = append(earlier, b.warm...)
	earlier = append(earlier, b.results(phWarm)...)
	for _, res := range earlier {
		if res.r.containment() {
			seen[key(res.r)] = true
		}
	}
	repeats, total := 0, 0
	sorted := append([]*result(nil), win...)
	sortByStart(sorted)
	for _, res := range sorted {
		if !res.r.containment() {
			continue
		}
		k := key(res.r)
		total++
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	return share(repeats, total)
}
