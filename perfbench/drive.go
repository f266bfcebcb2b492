package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	"repro/internal/obs/recorder"
)

// Phases of a run. phWindow and phProbe feed the end-to-end metrics;
// phTraced feeds the per-layer ones.
const (
	phSetup = iota
	phWarm
	phWindow
	phTraced
	phProbe
)

// result is one request as the client saw it.
type result struct {
	r     *req
	phase int

	sent      time.Time
	gotConn   time.Time // traced only, like the fields below
	wrote     time.Time
	firstByte time.Time
	done      time.Time
	reused    bool

	status  int
	err     error
	body    []byte
	traceID string

	srv    *recorder.Trace // the server's span tree (traced only)
	spanID int             // the client span of this request (traced only)
	bad    error           // the checker's verdict
}

// latency is the client latency, from the send to the last byte read.
func (res *result) latency() time.Duration { return res.done.Sub(res.sent) }

func (res *result) ok() bool { return res.err == nil && res.status == http.StatusOK && res.bad == nil }

// do sends one request; traced requests record the httptrace phases.
func do(client *http.Client, base string, r *req, traced bool) *result {
	res := &result{r: r}
	ctx := context.Background()
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(i httptrace.GotConnInfo) {
				res.gotConn = time.Now()
				res.reused = i.Reused
			},
			WroteRequest:         func(httptrace.WroteRequestInfo) { res.wrote = time.Now() },
			GotFirstResponseByte: func() { res.firstByte = time.Now() },
		})
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		res.err = err
		return res
	}
	hr.Header.Set("Content-Type", r.ctype)
	res.sent = time.Now()
	resp, err := client.Do(hr)
	if err != nil {
		res.err = err
		res.done = time.Now()
		return res
	}
	res.body, res.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	res.done = time.Now()
	res.status = resp.StatusCode
	res.traceID = resp.Header.Get("X-Trace-Id")
	return res
}

// fetchTrace reads the server's recorded span tree of a traced request.
func (b *bench) fetchTrace(res *result) {
	if res.traceID == "" {
		return
	}
	resp, err := b.ctl.Get(b.srv.base + "/v1/traces/" + res.traceID)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return
	}
	var t recorder.Trace
	if json.NewDecoder(resp.Body).Decode(&t) == nil {
		res.srv = &t
	}
}

// closedLoop runs every stream as one client that sends its next request
// as soon as the previous one is answered, for d, and returns the
// requests it sent.
func (b *bench) closedLoop(phase int, d time.Duration) []*result {
	traced := phase == phTraced
	end := time.Now().Add(d)
	sent := make([][]*result, len(b.streams))
	var wg sync.WaitGroup
	for w, st := range b.streams {
		wg.Add(1)
		go func(w int, st *stream) {
			defer wg.Done()
			for time.Now().Before(end) {
				res := do(b.load, b.srv.base, st.next(), traced)
				res.phase = phase
				if traced {
					b.fetchTrace(res)
				}
				sent[w] = append(sent[w], res)
			}
		}(w, st)
	}
	wg.Wait()
	var out []*result
	for w, rs := range sent {
		b.hist[w] = append(b.hist[w], rs...)
		out = append(out, rs...)
	}
	return out
}

// tick is one reading of the server's CPU time and the host's CPU
// accounting.
type tick struct {
	cpu          time.Duration
	steal, total int64
}

// tick reads the server's CPU time and the host's CPU accounting.
func (b *bench) tick() tick {
	cpu, _ := b.srv.procCPU()
	steal, total := hostCPU()
	return tick{cpu, steal, total}
}

// sequential sends requests one after another on one connection.
func (b *bench) sequential(phase int, w int, reqs []*req) []*result {
	var out []*result
	for _, r := range reqs {
		res := do(b.load, b.srv.base, r, false)
		res.phase = phase
		out = append(out, res)
	}
	if w >= 0 {
		b.hist[w] = append(b.hist[w], out...)
	}
	return out
}

// gaugeSampler polls the in-flight gauge of /metrics every interval
// until stopped.
type gaugeSampler struct {
	stop     chan struct{}
	done     chan struct{}
	inflight []float64
}

func (b *bench) sampleGauges(interval time.Duration) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				if m, err := b.srv.scrape(b.ctl); err == nil {
					g.inflight = append(g.inflight, m["rwdserve_inflight"])
				}
			}
		}
	}()
	return g
}

func (g *gaugeSampler) finish() {
	close(g.stop)
	<-g.done
}
