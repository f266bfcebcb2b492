package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/automata"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/inference"
	"repro/internal/kore"
	"repro/internal/obs/profile"
	"repro/internal/obs/recorder"
	"repro/internal/rdf"
	"repro/internal/regex"
	"repro/internal/service"
	"repro/internal/store"
)

// Bounds on the in-process measurements, so a traced run stays short.
const (
	maxReplay     = 2000            // requests replayed through the service handler,
	maxReplayTime = 5 * time.Second // for at most this long
	maxDistinct   = 300             // distinct inputs per engine
	maxScan       = 20000           // traced requests scanned for them
	maxRecord     = 5000            // fetched traces fed to the recorder and profile
	cacheBatch    = 64              // cache operations timed together
	graphRepeats  = 3               // store.Graph + rdf.ComputeStats repeats per corpus
)

// canonicalKey is the server's verdict-cache key of a containment
// request: the engine and both inputs parsed and rendered back.
func canonicalKey(r *req) string {
	var l, rt string
	if r.kind == kDTD {
		d1, err1 := dtd.ParseText(r.left, "")
		d2, err2 := dtd.ParseText(r.right, "")
		if err1 != nil || err2 != nil {
			return ""
		}
		l, rt = d1.String(), d2.String()
	} else {
		e1, err1 := regex.Parse(r.left)
		e2, err2 := regex.Parse(r.right)
		if err1 != nil || err2 != nil {
			return ""
		}
		l, rt = e1.String(), e2.String()
	}
	return r.kind + "\x1f" + l + "\x1f" + rt
}

// timer times calls into one layer and records each as a span under the
// client span of the request whose input it used.
type timer struct {
	spans *spanLog
	name  string
	us    []float64
}

func (t *timer) call(origin *result, f func()) {
	start := time.Now()
	f()
	d := time.Since(start)
	t.us = append(t.us, float64(d)/float64(time.Microsecond))
	t.spans.add(origin.traceID, origin.spanID, t.name, start, d)
}

// allocs runs f and returns the heap allocations and bytes it made.
func allocs(f func()) (n, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// measureLayers times each layer's exported functions in-process on the
// traced window's own inputs, then stops the server and reopens its
// store. It writes the run's spans and returns the in-process metrics.
func (b *bench) measureLayers() ([]metric, error) {
	traced := b.results(phTraced)
	sortByStart(traced)
	spans := &spanLog{spans: make([]span, 0, 8*len(traced)+4*maxReplay+8*maxDistinct+maxRecord)}
	spans.addRequests(traced)
	var live []*result // answered and traced
	for _, res := range traced {
		if res.spanID != 0 {
			live = append(live, res)
		}
	}

	handlerUS, handlerAllocs, handlerBytes, err := b.replayHandler(spans, live)
	if err != nil {
		return nil, err
	}
	out := []metric{
		{"service.handler_p50_us", quantile(handlerUS, 0.5), "us"},
		{"service.handler_allocs_per_req", handlerAllocs, "count"},
		{"service.handler_bytes_per_req", handlerBytes, "bytes"},
		{"cache.get_p50_ns", cacheGets(spans, live), "ns"},
	}
	out = append(out, engineLayers(spans, live)...)
	out = append(out, b.coreLayer(spans, live)...)
	out = append(out, metric{"obs.record_p50_us", recordTraces(spans, live), "us"})

	b.srv.stop()
	storeMetrics, err := b.storeLayer(spans, live)
	if err != nil {
		return nil, err
	}
	out = append(out, storeMetrics...)
	path := filepath.Join(b.workdir, "spans-"+b.wl+"-"+strconv.FormatInt(b.seed, 10)+".jsonl.gz")
	if err := spans.write(path); err != nil {
		return nil, err
	}
	return append(out, metric{"trace.spans", float64(len(spans.spans)), "count"}), nil
}

// replayHandler replays the run's set-up requests (untimed) and then up
// to maxReplay traced requests through service.New(...).Handler() in
// process, with a store in a scratch directory, and returns per-request
// handler times and the mean heap allocations and bytes per request.
func (b *bench) replayHandler(spans *spanLog, live []*result) ([]float64, float64, float64, error) {
	dir := filepath.Join(b.workdir, "replay-store")
	_ = os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	defer st.Close()
	srv := service.New(service.Config{Logger: log.New(io.Discard, "", 0)})
	srv.AttachStore(st)
	h := srv.Handler()
	type call struct {
		hr  *http.Request
		rec *httptest.ResponseRecorder
	}
	prepare := func(r *req) call {
		hr := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		hr.Header.Set("Content-Type", r.ctype)
		return call{hr, httptest.NewRecorder()}
	}
	for _, res := range b.warm {
		c := prepare(res.r)
		h.ServeHTTP(c.rec, c.hr)
	}
	for _, hs := range b.hist[:len(b.streams)] {
		for _, res := range hs {
			if res.phase == phSetup {
				c := prepare(res.r)
				h.ServeHTTP(c.rec, c.hr)
			}
		}
	}
	replay := live
	if len(replay) > maxReplay {
		replay = replay[:maxReplay]
	}
	calls := make([]call, len(replay))
	for i, res := range replay {
		calls[i] = prepare(res.r)
	}
	t := &timer{spans: spans, name: "inprocess.service.handler"}
	deadline := time.Now().Add(maxReplayTime)
	n, heap := allocs(func() {
		for i, res := range replay {
			if time.Now().After(deadline) {
				break
			}
			t.call(res, func() { h.ServeHTTP(calls[i].rec, calls[i].hr) })
		}
	})
	k := float64(max(1, len(t.us)))
	return t.us, float64(n) / k, float64(heap) / k, nil
}

// cacheGets replays the run's containment keys through a verdict cache of
// the server's default capacity — Get, and Put after a miss, as the
// server does — and returns the median time per operation (ns) over
// batches of cacheBatch.
func cacheGets(spans *spanLog, live []*result) float64 {
	var keys []string
	var origins []*result
	for _, res := range live {
		if res.r.containment() {
			keys = append(keys, canonicalKey(res.r))
			origins = append(origins, res)
		}
	}
	c := cache.New(1024)
	t := &timer{spans: spans, name: "inprocess.cache.get"}
	for i := 0; i+cacheBatch <= len(keys); i += cacheBatch {
		batch := keys[i : i+cacheBatch]
		t.call(origins[i], func() {
			for _, k := range batch {
				if _, ok := c.Get(k); !ok {
					c.Put(k, true)
				}
			}
		})
	}
	return quantile(t.us, 0.5) * 1000 / cacheBatch
}

// engineLayers times regex parsing and each decision engine on the
// traced window's distinct inputs.
func engineLayers(spans *spanLog, live []*result) []metric {
	ctx := context.Background()
	parse := &timer{spans: spans, name: "inprocess.regex.parse"}
	engines := map[string]*timer{
		kRegex: {spans: spans, name: "inprocess.automata.contains"},
		kKore:  {spans: spans, name: "inprocess.kore.containment"},
		kDTD:   {spans: spans, name: "inprocess.dtd.contains"},
		kInfer: {spans: spans, name: "inprocess.inference.infer"},
	}
	seen := map[string]bool{}
	var parseAllocs uint64
	if len(live) > maxScan {
		live = live[:maxScan]
	}
	for _, res := range live {
		r := res.r
		if r.kind == kRegex || r.kind == kKore {
			for _, s := range []string{r.left, r.right} {
				if len(parse.us) >= maxDistinct || seen[s] {
					continue
				}
				seen[s] = true
				n, _ := allocs(func() {
					parse.call(res, func() {
						if e, err := regex.Parse(s); err == nil {
							_ = e.String()
						}
					})
				})
				parseAllocs += n
			}
		}
		t := engines[r.kind]
		if t == nil || len(t.us) >= maxDistinct {
			continue
		}
		switch r.kind {
		case kRegex, kKore:
			key := canonicalKey(r)
			if seen[key] {
				continue
			}
			seen[key] = true
			e1, e2 := regex.MustParse(r.left), regex.MustParse(r.right)
			if r.kind == kRegex {
				t.call(res, func() { _, _ = automata.ContainsCtx(ctx, e1, e2) })
			} else {
				t.call(res, func() { _, _ = kore.ContainmentCtx(ctx, e1, e2) })
			}
		case kDTD:
			key := canonicalKey(r)
			if seen[key] {
				continue
			}
			seen[key] = true
			d1, _ := dtd.ParseText(r.left, "")
			d2, _ := dtd.ParseText(r.right, "")
			t.call(res, func() { _, _ = dtd.ContainsCtx(ctx, d1, d2) })
		case kInfer:
			t.call(res, func() {
				if r.alg == "chare" {
					inference.InferCHARECtx(ctx, r.words)
				} else {
					inference.InferSORECtx(ctx, r.words)
				}
			})
		}
	}
	return []metric{
		{"regex.parse_p50_us", quantile(parse.us, 0.5), "us"},
		{"regex.parse_allocs", float64(parseAllocs) / float64(max(1, len(parse.us))), "count"},
		{"automata.contains_p50_us", quantile(engines[kRegex].us, 0.5), "us"},
		{"kore.containment_p50_us", quantile(engines[kKore].us, 0.5), "us"},
		{"dtd.contains_p50_us", quantile(engines[kDTD].us, 0.5), "us"},
		{"inference.infer_p50_us", quantile(engines[kInfer].us, 0.5), "us"},
	}
}

// coreLayer runs core.AnalyzeQueriesCtx on the run's logs: the queries of
// the traced inline analyses and of the stored log reads (each stream's
// log corpus as it stood at the end of the run).
func (b *bench) coreLayer(spans *spanLog, live []*result) []metric {
	t := &timer{spans: spans, name: "inprocess.core.analyze"}
	var queries int
	analyze := func(origin *result, name string, qs []string) {
		t.call(origin, func() { core.AnalyzeQueriesCtx(context.Background(), name, qs, runtime.GOMAXPROCS(0)) })
		queries += len(qs)
	}
	logs := map[string][]string{} // log corpus → its lines at the end of the run
	for _, hs := range b.hist {
		for _, res := range hs {
			if res.r.kind == kWriteLog {
				logs[res.r.corpus] = append(logs[res.r.corpus], res.r.lines...)
			}
		}
	}
	done := map[string]bool{}
	for _, res := range live {
		switch {
		case res.r.kind == kAnalyze && len(t.us) < maxDistinct:
			analyze(res, "inline", res.r.lines)
		case res.r.kind == kReadLog && !done[res.r.corpus]:
			done[res.r.corpus] = true
			analyze(res, res.r.corpus, logs[res.r.corpus])
		}
	}
	var totalUS float64
	for _, us := range t.us {
		totalUS += us
	}
	qps := 0.0
	if totalUS > 0 {
		qps = float64(queries) / (totalUS / 1e6)
	}
	return []metric{
		{"core.analyze_p50_ms", quantile(t.us, 0.5) / 1000, "ms"},
		{"core.queries_per_s", qps, "1/s"},
	}
}

// recordTraces feeds the fetched server traces through a flight-recorder
// ring and a workload-profile engine, as the server does for every
// request, and returns the median cost per trace (µs).
func recordTraces(spans *spanLog, live []*result) float64 {
	ring := recorder.New(recorder.Config{})
	eng := profile.New(profile.Config{})
	t := &timer{spans: spans, name: "inprocess.obs.record"}
	for _, res := range live {
		if res.srv == nil || len(t.us) >= maxRecord {
			continue
		}
		tr := res.srv
		t.call(res, func() {
			ring.Record(tr)
			eng.Observe(tr)
		})
	}
	return quantile(t.us, 0.5)
}

// storeLayer reopens the stopped server's store and times store.Graph
// plus rdf.ComputeStats on each triples corpus, then measures the
// encoded size of the run's triples in a fresh store with one flush.
func (b *bench) storeLayer(spans *spanLog, live []*result) ([]metric, error) {
	origin := &result{} // the spans hang under the first traced request, if any
	if len(live) > 0 {
		origin = live[0]
	}
	var corpora []string
	var triples []rdf.Triple
	seen := map[string]bool{}
	for _, hs := range b.hist {
		for _, res := range hs {
			if res.r.kind != kWriteTriples {
				continue
			}
			if !seen[res.r.corpus] {
				seen[res.r.corpus] = true
				corpora = append(corpora, res.r.corpus)
			}
			for _, t := range res.r.triples {
				triples = append(triples, rdf.Triple{S: t[0], P: t[1], O: t[2]})
			}
		}
	}
	ctx := context.Background()
	st, err := store.Open(b.srv.storeDir)
	if err != nil {
		return nil, err
	}
	t := &timer{spans: spans, name: "inprocess.store.graph_stats"}
	for _, c := range corpora {
		for i := 0; i < graphRepeats; i++ {
			t.call(origin, func() {
				if g, err := st.Graph(ctx, c); err == nil {
					rdf.ComputeStats(g)
				}
			})
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	dir := filepath.Join(b.workdir, "density-store")
	_ = os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	fresh, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer fresh.Close()
	perTriple := 0.0
	if len(triples) > 0 {
		if _, err := fresh.IngestTriples(ctx, "all", triples); err != nil {
			return nil, err
		}
		if err := fresh.Flush(ctx); err != nil {
			return nil, err
		}
		stats, err := fresh.StoreStats()
		if err != nil {
			return nil, err
		}
		perTriple = float64(stats.SegmentBytes) / float64(max(1, stats.Triples))
	}
	return []metric{
		{"store.bytes_per_triple", perTriple, "bytes"},
		{"store.graph_stats_p50_ms", quantile(t.us, 0.5) / 1000, "ms"},
	}, nil
}
