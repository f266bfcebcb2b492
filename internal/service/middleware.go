package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/recorder"
)

// apiError is an error with an HTTP status. Handlers return it instead of
// writing to the response directly so the middleware stays the single
// place that renders errors, counts them, and logs them.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// ctxError maps a context error to its HTTP status. A deadline expiry is
// the server refusing to work past the requested budget (504); a
// cancellation means the client went away before the verdict (408,
// counted separately so timeout metrics stay honest under load tests
// that abandon connections).
func ctxError(err error) *apiError {
	if errors.Is(err, context.Canceled) {
		return &apiError{http.StatusRequestTimeout, "client closed request"}
	}
	return &apiError{http.StatusGatewayTimeout, "deadline exceeded"}
}

// engineError maps an error returned by an engine: if the request context
// has ended, the context outcome wins (the engine was likely interrupted
// mid-decision); anything else is an internal error.
func engineError(ctx context.Context, err error) *apiError {
	if ctx.Err() != nil {
		return ctxError(ctx.Err())
	}
	return &apiError{http.StatusInternalServerError, err.Error()}
}

// envelope is the shared request envelope: the fields that ride beside
// every endpoint's specific body. JSON bodies carry them inline; NDJSON
// streaming bodies are raw query logs, so the envelope moves to the URL
// query string. The middleware parses it exactly once per request.
type envelope struct {
	Explain    bool `json:"explain"`
	DeadlineMS int  `json:"deadline_ms"`
}

// request is what the middleware hands every handler: the size-capped
// body, the envelope (parsed once), whether the body is a line stream
// rather than a JSON document, the query parameters (the envelope and
// option carrier in stream mode), and the admission-slot guard.
type request struct {
	env    envelope
	body   []byte
	ndjson bool
	query  url.Values
	slot   *slotGuard
}

// handlerFunc is an endpoint body: it gets the deadline-bearing context
// and the parsed request, and returns either a JSON-marshalable response
// or an apiError.
type handlerFunc func(ctx context.Context, req *request) (any, *apiError)

// slotGuard owns one admission-semaphore slot. The HTTP goroutine holds
// it for the life of the request; if the request ends (deadline, client
// gone) while an engine goroutine is still computing — engines without
// cancellation checkpoints run to completion — the slot stays held until
// that goroutine exits. Sustained timeout traffic therefore can never
// exceed the configured in-flight cap: a server full of detached engines
// sheds new load with 429 instead of stacking unbounded background work.
type slotGuard struct {
	sem      chan struct{}
	detached *atomic.Int64 // server-wide gauge of engines outliving their request

	mu          sync.Mutex
	handlerDone bool
	engines     int // engine goroutines currently running
	released    bool
}

// engineStarted registers an engine goroutine about to run. It is called
// on the request goroutine, before the goroutine spawns, so the count
// can never be observed low.
func (g *slotGuard) engineStarted() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.engines++
	g.mu.Unlock()
}

// engineExited releases the slot if this was the last engine of a
// request whose handler already returned.
func (g *slotGuard) engineExited() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.engines--
	if g.handlerDone {
		g.detached.Add(-1)
	}
	g.maybeReleaseLocked()
	g.mu.Unlock()
}

// handlerReturned marks the HTTP goroutine done with the request; any
// engines still running are now detached and inherit the slot.
func (g *slotGuard) handlerReturned() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.handlerDone = true
	if g.engines > 0 {
		g.detached.Add(int64(g.engines))
	}
	g.maybeReleaseLocked()
	g.mu.Unlock()
}

func (g *slotGuard) maybeReleaseLocked() {
	if !g.released && g.handlerDone && g.engines == 0 {
		g.released = true
		<-g.sem
	}
}

// rootSpan is a request's root span, shared by both wrappers (endpoint
// and traceEndpoint) so every request has one span lifecycle: start,
// X-Trace-Id header, status attribute, finish.
type rootSpan struct {
	*obs.Span
	s     *Server
	r     *http.Request
	trace string
}

// startRoot starts the root span of a request, named "http.<endpoint>",
// and names its trace in the X-Trace-Id response header, so any client
// error report can be joined to the recorded trace.
func (s *Server) startRoot(w http.ResponseWriter, r *http.Request, spanName string) (context.Context, rootSpan) {
	ctx, span := s.tracer.StartRoot(r.Context(), spanName)
	trace := span.TraceID()
	w.Header().Set("X-Trace-Id", trace)
	return ctx, rootSpan{span, s, r, trace}
}

// finish sets the status attribute and finishes the root span, which
// derives the request's series (Server.spanFinished), then writes the
// access-log line with the span's duration.
func (rs rootSpan) finish(code int) {
	rs.SetAttr(recorder.StatusAttr, strconv.Itoa(code))
	rs.Finish()
	// path and remote are attacker-controlled: %q-quote them so a
	// crafted URL cannot inject fake key=value pairs or newlines into
	// the log stream.
	rs.s.log.Printf("level=info method=%s path=%q endpoint=%s code=%d dur_ms=%.2f remote=%q trace=%s",
		rs.r.Method, rs.r.URL.Path, strings.TrimPrefix(rs.Name(), "http."), code,
		float64(rs.Duration().Microseconds())/1000, rs.r.RemoteAddr, rs.trace)
}

// fail finishes the root span with code and writes the error body.
func (rs rootSpan) fail(w http.ResponseWriter, code int, msg string) {
	rs.finish(code)
	writeJSON(w, code, map[string]string{"error": msg})
}

// endpoint wraps h in the shared middleware stack: root span (see
// rootSpan), admission control, request-size cap, one envelope parse,
// per-request deadline, and response rendering (with the span tree
// added for "explain": true). Every request, including the ones that
// admission control or the body cap rejects, finishes its root span
// exactly once, before the response is written.
func (s *Server) endpoint(name string, h handlerFunc) http.Handler {
	spanName := "http." + name
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rctx, root := s.startRoot(w, r, spanName)

		// Admission control: shed load before reading the body so an
		// overloaded server spends no work on requests it will not serve.
		select {
		case s.sem <- struct{}{}:
		default:
			s.rejected.With("overload").Inc()
			root.fail(w, http.StatusTooManyRequests, "server overloaded, retry later")
			return
		}
		slot := &slotGuard{sem: s.sem, detached: &s.detached}
		defer slot.handlerReturned()

		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				s.rejected.With("too_large").Inc()
				root.fail(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
				return
			}
			root.fail(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}

		req := &request{body: body, slot: slot}
		req.ndjson = streamingBody(r)
		req.query = r.URL.Query()
		req.env = parseEnvelope(req)

		ctx, cancel := context.WithTimeout(rctx, s.deadline(req.env))
		defer cancel()

		out, aerr := h(ctx, req)
		if aerr != nil {
			root.fail(w, aerr.status, aerr.msg)
			return
		}
		root.finish(http.StatusOK)
		if req.env.Explain {
			out = withTrace(out, root.Tree())
		}
		writeJSON(w, http.StatusOK, out)
	})
}

// streamingBody reports whether the request body is an NDJSON / plain
// line stream (a raw query log) rather than a JSON document.
func streamingBody(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.TrimSpace(strings.ToLower(ct)) {
	case "application/x-ndjson", "application/ndjson", "text/plain":
		return true
	}
	return false
}

// parseEnvelope extracts the shared envelope exactly once per request —
// the handlers receive it instead of re-unmarshaling the body for each
// shared field, which batch-sized bodies make measurably expensive. A
// body that fails to parse gets the zero envelope; the handler reports
// the parse error itself. Stream-mode requests carry the envelope in the
// query string (?deadline_ms=…&explain=true).
func parseEnvelope(req *request) envelope {
	var env envelope
	if req.ndjson {
		if v, err := strconv.Atoi(req.query.Get("deadline_ms")); err == nil {
			env.DeadlineMS = v
		}
		env.Explain = req.query.Get("explain") == "true"
		return env
	}
	_ = json.Unmarshal(req.body, &env)
	return env
}

// withTrace adds the span tree to the response object under a "trace"
// key. It marshals the response and the tree once each and splices the
// tree in before the object's closing brace. A response that does not
// marshal to a JSON object is returned untouched rather than lost.
func withTrace(out any, tree *obs.Node) any {
	raw, err := json.Marshal(out)
	t, terr := json.Marshal(tree)
	if err != nil || terr != nil || len(raw) < 2 || raw[0] != '{' {
		return out
	}
	key := `,"trace":`
	if len(raw) == 2 {
		key = key[1:] // empty object: no separator
	}
	return json.RawMessage(slices.Concat(raw[:len(raw)-1], []byte(key), t, []byte("}")))
}

// deadline applies the default to the envelope's deadline and clamps to
// the configured maximum.
func (s *Server) deadline(env envelope) time.Duration {
	d := s.cfg.DefaultDeadline
	if env.DeadlineMS > 0 {
		d = time.Duration(env.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// runEngine runs f on its own goroutine and waits for either its result
// or ctx expiry. The decision engines with cancellation checkpoints
// (regex / k-ORE / DTD containment, the sharded analyzer) return promptly
// on their own; for engines without checkpoints this still guarantees the
// HTTP deadline. An engine goroutine that outlives its request keeps the
// admission slot (via req.slot) until it exits, so detached engines count
// against the in-flight cap instead of silently exceeding it.
func runEngine(ctx context.Context, req *request, f func(ctx context.Context) (any, *apiError)) (any, *apiError) {
	type result struct {
		v    any
		aerr *apiError
	}
	done := make(chan result, 1)
	req.slot.engineStarted()
	go func() {
		defer req.slot.engineExited()
		v, aerr := f(ctx)
		done <- result{v, aerr}
	}()
	select {
	case <-ctx.Done():
		return nil, ctxError(ctx.Err())
	case res := <-done:
		if res.aerr != nil {
			return nil, res.aerr
		}
		return res.v, nil
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}
