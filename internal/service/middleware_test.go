package service

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// waitFor polls cond for up to 5s. The slot-release and metrics paths
// run on goroutines the test can't join directly.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClientClosedCounts408 is the regression test for the timeout-vs-
// disconnect split: a client that abandons an in-flight request must
// increment rwdserve_client_closed_total, not rwdserve_timeouts_total —
// before the fix both paths landed on 504 and the timeout counter.
func TestClientClosedCounts408(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/containment", strings.NewReader(adversarialContainment(60000)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(50 * time.Millisecond) // let the engine start
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected the canceled request to fail client-side")
	}

	waitFor(t, "client_closed counter", func() bool {
		m := scrapeMetrics(t, ts.URL)
		return m[`rwdserve_client_closed_total{endpoint="containment"}`] == 1
	})
	if v := scrapeMetrics(t, ts.URL)[`rwdserve_timeouts_total{endpoint="containment"}`]; v != 0 {
		t.Fatalf("disconnect was counted as a server timeout (%v)", v)
	}
	waitFor(t, "admission slot release", func() bool {
		return scrapeMetrics(t, ts.URL)["rwdserve_inflight"] == 0
	})
}

// TestDeadlineStillCounts504 pins the other half of the split: a real
// deadline expiry stays 504 + timeouts counter, with client_closed
// untouched.
func TestDeadlineStillCounts504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var e map[string]string
	if code := post(t, ts.URL, "/v1/containment", adversarialContainment(80), &e); code != 504 {
		t.Fatalf("code=%d, want 504", code)
	}
	m := scrapeMetrics(t, ts.URL)
	if m[`rwdserve_timeouts_total{endpoint="containment"}`] != 1 {
		t.Fatalf("timeouts counter = %v, want 1", m[`rwdserve_timeouts_total{endpoint="containment"}`])
	}
	if m[`rwdserve_client_closed_total{endpoint="containment"}`] != 0 {
		t.Fatalf("client_closed = %v, want 0", m[`rwdserve_client_closed_total{endpoint="containment"}`])
	}
}

// TestSlotHeldUntilEngineExits is the regression test for the admission
// leak: before the fix, endpoint() released the semaphore slot when the
// handler returned, even though a timed-out engine goroutine was still
// computing — sustained timeout traffic could stack unbounded background
// engines. Now the last of {handler, engines} to finish releases the
// slot, and detached engines are visible on a gauge.
func TestSlotHeldUntilEngineExits(t *testing.T) {
	s := New(Config{MaxInFlight: 1, Logger: discardLogger()})

	// acquire the slot exactly as endpoint() does
	s.sem <- struct{}{}
	slot := &slotGuard{sem: s.sem, detached: &s.detached}
	req := &request{slot: slot}

	ctx, cancel := context.WithCancel(context.Background())
	block := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel() // the request times out while the engine is stuck
	}()
	_, aerr := runEngine(ctx, req, func(context.Context) (any, *apiError) {
		<-block // an engine with no cancellation checkpoint
		return "late verdict", nil
	})
	if aerr == nil || aerr.status != http.StatusRequestTimeout {
		t.Fatalf("runEngine returned %+v, want 408", aerr)
	}

	// handler returns; the engine is still running, so the slot must
	// stay held and the engine counts as detached.
	slot.handlerReturned()
	if len(s.sem) != 1 {
		t.Fatal("slot released while an engine goroutine was still running")
	}
	if got := s.detached.Load(); got != 1 {
		t.Fatalf("detached gauge = %d, want 1", got)
	}

	// a second acquisition attempt must shed, as endpoint() would
	select {
	case s.sem <- struct{}{}:
		t.Fatal("admission gate admitted a request past the cap")
	default:
	}

	close(block) // the engine finally exits
	waitFor(t, "slot release after engine exit", func() bool {
		return len(s.sem) == 0 && s.detached.Load() == 0
	})
}

// TestSlotReleasedOnCleanFinish: the common case — engine finishes
// before the handler returns — releases exactly once with no detached
// accounting.
func TestSlotReleasedOnCleanFinish(t *testing.T) {
	s := New(Config{MaxInFlight: 1, Logger: discardLogger()})
	s.sem <- struct{}{}
	slot := &slotGuard{sem: s.sem, detached: &s.detached}
	req := &request{slot: slot}

	out, aerr := runEngine(context.Background(), req, func(context.Context) (any, *apiError) {
		return 42, nil
	})
	if aerr != nil || out.(int) != 42 {
		t.Fatalf("runEngine = %v, %v", out, aerr)
	}
	waitFor(t, "engine bookkeeping", func() bool {
		slot.mu.Lock()
		defer slot.mu.Unlock()
		return slot.engines == 0
	})
	if len(s.sem) != 1 {
		t.Fatal("slot released before the handler returned")
	}
	slot.handlerReturned()
	if len(s.sem) != 0 || s.detached.Load() != 0 {
		t.Fatalf("sem=%d detached=%d after clean finish", len(s.sem), s.detached.Load())
	}
	slot.handlerReturned() // idempotent: never double-releases
	if len(s.sem) != 0 {
		t.Fatal("double release")
	}
}

// TestParseEnvelopeOnce covers the three envelope sources: inline JSON,
// query string in stream mode, and the zero envelope for malformed JSON.
func TestParseEnvelope(t *testing.T) {
	jsonReq := &request{body: []byte(`{"explain":true,"deadline_ms":250,"left":"a"}`)}
	if env := parseEnvelope(jsonReq); !env.Explain || env.DeadlineMS != 250 {
		t.Fatalf("json envelope = %+v", env)
	}

	q, _ := url.ParseQuery("deadline_ms=90&explain=true&name=log")
	streamReq := &request{body: []byte("not json at all\n"), ndjson: true, query: q}
	if env := parseEnvelope(streamReq); !env.Explain || env.DeadlineMS != 90 {
		t.Fatalf("stream envelope = %+v", env)
	}

	// stream mode must NOT read the body even if it looks like JSON
	streamReq2 := &request{body: []byte(`{"deadline_ms":1}`), ndjson: true, query: url.Values{}}
	if env := parseEnvelope(streamReq2); env.DeadlineMS != 0 {
		t.Fatalf("stream envelope read the body: %+v", env)
	}

	if env := parseEnvelope(&request{body: []byte("garbage")}); env != (envelope{}) {
		t.Fatalf("malformed body envelope = %+v, want zero", env)
	}
}

func TestStreamingBodyContentTypes(t *testing.T) {
	cases := map[string]bool{
		"application/x-ndjson":            true,
		"application/ndjson":              true,
		"text/plain":                      true,
		"text/plain; charset=utf-8":       true,
		"Application/X-NDJSON":            true,
		"application/json":                false,
		"":                                false,
		"application/json; charset=utf-8": false,
	}
	for ct, want := range cases {
		r, _ := http.NewRequest(http.MethodPost, "/v1/analyze", nil)
		if ct != "" {
			r.Header.Set("Content-Type", ct)
		}
		if got := streamingBody(r); got != want {
			t.Errorf("streamingBody(%q) = %v, want %v", ct, got, want)
		}
	}
}

// TestWithTraceSplicesTree checks the one-pass explain encoding: the
// tree lands under "trace" after the response's own fields, an empty
// object gets no stray comma, and a non-object response is returned
// untouched.
func TestWithTraceSplicesTree(t *testing.T) {
	tree := &obs.Node{Name: "http.x", DurationMS: 1.5}
	for _, c := range []struct {
		out  any
		want string
	}{
		{map[string]int{"a": 1}, `{"a":1,"trace":{"name":"http.x","duration_ms":1.5}}`},
		{struct{}{}, `{"trace":{"name":"http.x","duration_ms":1.5}}`},
	} {
		raw, err := json.Marshal(withTrace(c.out, tree))
		if err != nil || string(raw) != c.want {
			t.Errorf("withTrace(%v) = %s, %v; want %s", c.out, raw, err, c.want)
		}
	}
	if out := withTrace([]int{1}, tree); !reflect.DeepEqual(out, []int{1}) {
		t.Errorf("non-object response changed: %v", out)
	}
}
