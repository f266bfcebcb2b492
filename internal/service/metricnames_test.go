package service

import (
	"bufio"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// driveEveryKind serves one request of every kind against a server with
// a store attached, a one-entry verdict cache and a 4 KiB body cap, so
// that every request-derived series gets a child: a cache miss, hit and
// eviction, each /v1 endpoint, a store ingest (which flushes), a 413, a
// 504, a 408, and the diagnostic reads. It returns the server's URL.
func driveEveryKind(t *testing.T) string {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, ts := newTestServer(t, Config{CacheSize: 1, MaxBodyBytes: 4 << 10})
	s.AttachStore(st)

	regex := `{"engine":"regex","left":"a b","right":"a (b|c)"}`
	for _, c := range []struct {
		path, body string
		code       int
	}{
		{"/v1/containment", regex, 200},
		{"/v1/containment", regex, 200},                                         // cache hit
		{"/v1/containment", `{"engine":"kore","left":"a a","right":"a*"}`, 200}, // evicts
		{"/v1/membership", `{"expr":"(a|b)* a","word":["b","a"]}`, 200},
		{"/v1/validate", `{"kind":"dtd","schema":"<!ELEMENT r (a*)> <!ELEMENT a EMPTY>","docs":["r(a, a)"]}`, 200},
		{"/v1/infer", `{"algorithm":"sore","words":[["a","b"],["b"]]}`, 200},
		{"/v1/analyze", `{"queries":["SELECT ?x WHERE { ?x ?p ?y }"]}`, 200},
		{"/v1/batch", `{"items":[{"op":"membership","request":{"expr":"a","word":["a"]}}]}`, 200},
		{"/v1/corpora", `{"name":"g","triples":[["a","p","b"]]}`, 200},
		{"/v1/analyze", `{"corpus":"g"}`, 200},
		{"/v1/containment", `{"left":"` + strings.Repeat("a ", 4<<10) + `"}`, 413},
		{"/v1/containment", adversarialContainment(50), 504},
	} {
		if code := post(t, ts.URL, c.path, c.body, nil); code != c.code {
			t.Fatalf("POST %s: code %d, want %d", c.path, code, c.code)
		}
	}
	for _, path := range []string{"/v1/corpora", "/v1/traces?limit=1", "/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: code %d", path, resp.StatusCode)
		}
	}

	// A client that goes away mid-decision: 408.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/containment", strings.NewReader(adversarialContainment(60000)))
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(50*time.Millisecond, cancel)
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected the canceled request to fail client-side")
	}
	waitFor(t, "client_closed counter", func() bool {
		return scrapeMetrics(t, ts.URL)[`rwdserve_client_closed_total{endpoint="containment"}`] == 1
	})
	return ts.URL
}

// TestMetricNamesPinned pins the series that the benchmark, the load
// generator and CI read from /metrics: after one request of every kind,
// each is present, and the request-derived ones count each request once.
func TestMetricNamesPinned(t *testing.T) {
	m := scrapeMetrics(t, driveEveryKind(t))
	for _, want := range []string{
		"rwdserve_inflight",
		"rwdserve_cache_hits_total",
		"rwdserve_cache_misses_total",
		"rwdserve_cache_evictions_total",
		`rwdserve_requests_total{endpoint="containment",code="200"}`,
		`rwdserve_rejected_total{reason="too_large"}`,
		`rwdserve_timeouts_total{endpoint="containment"}`,
		`rwdserve_client_closed_total{endpoint="containment"}`,
		`rwd_op_duration_seconds_count{op="containment",status="200"}`,
		`rwd_op_duration_seconds_count{op="traces",status="200"}`,
		"rwd_traces_recorded_total",
		"rwd_traces_retained",
		"rwd_traces_evicted_total",
		"rwd_traces_dropped_total",
		"rwd_trace_bytes",
		`rwd_span_cost_total{span="automata.contains",counter="states_expanded"}`,
		`rwd_span_seconds_count{span="automata.contains"}`,
		"rwd_store_segments",
		"rwd_store_flush_seconds_count",
	} {
		if _, ok := m[want]; !ok {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	for series, want := range map[string]float64{
		`rwdserve_requests_total{endpoint="containment",code="200"}`:   3,
		`rwdserve_requests_total{endpoint="containment",code="504"}`:   1,
		`rwdserve_requests_total{endpoint="stats",code="200"}`:         1,
		`rwd_op_duration_seconds_count{op="containment",status="200"}`: 3,
		`rwdserve_rejected_total{reason="too_large"}`:                  1,
		`rwdserve_timeouts_total{endpoint="containment"}`:              1,
		"rwdserve_cache_hits_total":                                    1,
		"rwdserve_cache_evictions_total":                               1,
	} {
		if m[series] != want {
			t.Errorf("%s = %v, want %v", series, m[series], want)
		}
	}
	if n := m["rwd_store_flush_seconds_count"]; n < 1 {
		t.Errorf("rwd_store_flush_seconds_count = %v after an ingest, want >= 1", n)
	}
	// Latency per span is for the spans below a request's root; the
	// request itself is timed by rwd_op_duration_seconds.
	for series := range m {
		if strings.HasPrefix(series, `rwd_span_seconds_count{span="http.`) {
			t.Errorf("root span in rwd_span_seconds: %s", series)
		}
	}
}

// TestTotalFamiliesAreCounters checks the exposition types: after a
// mixed set of requests, every family whose name ends in _total is
// declared TYPE counter.
func TestTotalFamiliesAreCounters(t *testing.T) {
	base := driveEveryKind(t)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	totals := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" || !strings.HasSuffix(f[2], "_total") {
			continue
		}
		totals++
		if f[3] != "counter" {
			t.Errorf("%s has TYPE %s, want counter", f[2], f[3])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if totals < 10 {
		t.Fatalf("only %d _total families on /metrics", totals)
	}
}
