// Command perfbench is the rwdserve benchmark. It starts rwdserve as a
// child process with its default flags (plus a listen address and a
// store directory), drives one named workload against it from seeded
// client streams, checks every answer against in-process reference
// computations, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run measures the same window untraced,
// then a second window traced (client httptrace phases plus the
// server's recorded span tree of every request, fetched by its
// X-Trace-Id), times each layer's exported functions in-process on the
// run's own inputs, and reports the per-layer metrics. The benchmark's
// spans are written to <workdir>/spans-<workload>-<seed>.jsonl.gz.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload decide-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads names the benchmark's workloads; BENCHMARK.json records why
// each was chosen.
var workloads = []string{"decide-hot", "decide-cold", "corpus-rw"}

const (
	setupMin      = 3                      // set-ups per run at least; setup_s is their median,
	setupMax      = 15                     // and at most,
	setupBudget   = time.Second            // with more set-ups while their total is under this
	warmup        = 500 * time.Millisecond // unmeasured load before the window
	sliceLen      = time.Second            // the measured window is cut into slices this long
	probeRounds   = 2                      // write/read probe rounds after each slice, where the workload has no corpus traffic
	probeTriples  = 500                    // triples seeded for the write/read probe's reads,
	probeBatch    = 5                      // in batches of this size (100 segments)
	probeReingest = 40                     // stored triples re-sent by one probe ingest
	probeAdv      = 120                    // deadline probes of a traced run
	probePause    = 5 * time.Millisecond   // between deadline probes
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wl := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", 1, "seed of every generated input")
	seconds := fl.Int("seconds", 10, "length of the measured window in seconds")
	trace := fl.Int("trace", 0, "1 adds a traced window and reports the per-layer metrics")
	bin := fl.String("server", "", "path to the rwdserve binary")
	workdir := fl.String("workdir", "", "directory for the store, the span log and scratch files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *wl
	}
	if !known || *bin == "" || *workdir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -server, -workdir, -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloads, ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := newBench(*wl, *seed, *seconds, *trace == 1, *bin, *workdir, stderr)

	// An interrupted run still stops the server it started.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			b.srv.stop()
			os.Exit(1)
		case <-done:
		}
	}()
	defer func() { b.srv.stop() }()

	out, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.print(stdout, out)
	return 0
}

// bench is one run of one workload.
type bench struct {
	wl      string
	seed    int64
	seconds int
	trace   bool
	bin     string
	workdir string
	log     io.Writer

	load *http.Client // the generator's connections
	ctl  *http.Client // /metrics, /healthz and trace reads, on their own connections
	srv  *server
	chk  *checker

	streams []*stream
	hist    [][]*result // per stream, in send order; the probe stream comes last
	warm    []*result   // the set-up warm-up of decide-hot
	advProb []*result   // deadline probes
	setupS  []float64

	slices                 []slice            // of the measured window
	probe                  *corpusProbe       // nil on corpus-rw
	mWin                   map[string]float64 // /metrics deltas summed over the slices
	mEnd                   map[string]float64 // /metrics after the last slice
	tracedStart, tracedEnd time.Time
	rssMB                  float64
	gauges                 *gaugeSampler
	failures               int
}

// slice is one sliceLen of the measured window: its span, the server
// CPU and host CPU readings at either end and after its probes, the
// requests sent in it and its write/read probes.
type slice struct {
	start, end time.Time
	from, to   tick
	done       tick
	results    []*result
	probes     []*result
}

func (s *slice) seconds() float64 { return s.end.Sub(s.start).Seconds() }

// corpusProbe is the stream of the write/read probes and the triples
// its corpus holds.
type corpusProbe struct {
	st     *stream
	w      int // the stream's index in b.hist
	stored [][3]string
}

func newBench(wl string, seed int64, seconds int, trace bool, bin, workdir string, log io.Writer) *bench {
	n := runtime.NumCPU()
	transport := func() *http.Client {
		return &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true},
		}
	}
	return &bench{wl: wl, seed: seed, seconds: seconds, trace: trace, bin: bin, workdir: workdir, log: log,
		load: transport(), ctl: transport()}
}

// newStreams returns one stream per client: nproc clients, as the
// workloads specify.
func (b *bench) newStreams() {
	n := runtime.NumCPU()
	b.streams = make([]*stream, n)
	b.hist = make([][]*result, n)
	for w := range b.streams {
		b.streams[w] = newStream(b.wl, b.seed, w)
	}
}

// warmRequests are the pool instances verbatim, sent once at set-up so
// that the verdict cache holds every key of decide-hot.
func warmRequests() []*req {
	var out []*req
	for _, kind := range []string{kRegex, kKore, kDTD} {
		for i, p := range templates(kind, false) {
			out = append(out, &req{kind: kind, path: "/v1/containment", ctype: "application/json",
				tmpl: i, left: p.left, right: p.right,
				body: mustJSON(map[string]any{"engine": kind, "left": p.left, "right": p.right})})
		}
	}
	return out
}

// setup starts the server several times, each time from an empty store:
// start the process, wait for /healthz, then warm the verdict cache
// (decide-hot) or seed the corpora (corpus-rw). Set-ups of a few
// milliseconds are repeated more often, so that their median is as
// steady as that of the longer ones. The last server is kept for the
// measurement.
func (b *bench) setup() error {
	var spent time.Duration
	for rep := 0; rep < setupMax && (rep < setupMin || spent < setupBudget); rep++ {
		b.srv.stop()
		b.newStreams()
		start := time.Now()
		srv, err := startServer(b.bin, filepath.Join(b.workdir, "store"))
		if err != nil {
			return err
		}
		b.srv = srv
		if err := srv.waitHealthy(b.ctl, 60*time.Second); err != nil {
			return err
		}
		var seeded []*result
		switch {
		case b.wl == "decide-hot":
			seeded = b.sequential(phSetup, -1, warmRequests())
			b.warm = seeded
		case b.wl == "corpus-rw":
			for w, st := range b.streams {
				seeded = append(seeded, b.sequential(phSetup, w, st.seedRequests(seedTriples, seedLogLines, seedBatch))...)
			}
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		spent += time.Since(start)
		for _, res := range seeded {
			if err := okStatus(res); err != nil {
				return fmt.Errorf("set-up request %s: %v", res.r.kind, err)
			}
		}
	}
	return nil
}

// setupCorpusProbe prepares the write/read probes that follow every
// slice of the measured window where the workload has no corpus traffic
// of its own (all but corpus-rw): alternating triple ingests and reads
// of a stored triples corpus, which it seeds here. The probe's ingests
// re-send stored triples, so the store, and with it the cost of every
// probe request, stays the same through the run. Spread over the
// slices, the probes sample the whole run, as the load does, rather
// than its last seconds.
func (b *bench) setupCorpusProbe() {
	if b.wl == "corpus-rw" {
		return
	}
	p := &corpusProbe{w: len(b.streams)}
	p.st = newStream("probe-corpus", b.seed, p.w)
	b.hist = append(b.hist, nil)
	seed := p.st.seedRequests(probeTriples, 0, probeBatch)
	b.sequential(phSetup, p.w, seed)
	for _, r := range seed {
		p.stored = append(p.stored, r.triples...)
	}
	b.probe = p
}

// corpusProbes sends the write/read probes of one slice.
func (b *bench) corpusProbes() []*result {
	p := b.probe
	if p == nil {
		return nil
	}
	var reqs []*req
	for i := 0; i < probeRounds; i++ {
		read := p.st.readReq(triplesCorpus(p.w), kReadTriples)
		reqs = append(reqs, p.st.reingestReq(triplesCorpus(p.w), p.stored, probeReingest), read, read)
	}
	return b.sequential(phProbe, p.w, reqs)
}

// deadlineProbes sends sequential antichain-hard containments under
// 10–49 ms deadlines, for the per-layer overshoot metrics. A pause after
// each lets its detached engine reach a cancellation checkpoint before
// the next request starts.
func (b *bench) deadlineProbes() {
	st := newStream("probe-deadline", b.seed, 0)
	for i := 0; i < probeAdv; i++ {
		b.advProb = append(b.advProb, b.sequential(phProbe, -1, []*req{st.adversarialReq()})...)
		time.Sleep(probePause)
	}
}

// measure drives the measured window as b.seconds slices of sliceLen,
// each followed by its write/read probes. Each slice has its own CPU
// readings and /metrics scrapes, so the probes stay out of the window's
// figures.
func (b *bench) measure() error {
	b.mWin = map[string]float64{}
	for i := 0; i < b.seconds; i++ {
		m0, err := b.srv.scrape(b.ctl)
		if err != nil {
			return err
		}
		s := slice{from: b.tick(), start: time.Now()}
		s.results = b.closedLoop(phWindow, sliceLen)
		s.end = time.Now()
		s.to = b.tick()
		if b.mEnd, err = b.srv.scrape(b.ctl); err != nil {
			return err
		}
		for k, v := range b.mEnd {
			b.mWin[k] += v - m0[k]
		}
		s.probes = b.corpusProbes()
		s.done = b.tick()
		b.slices = append(b.slices, s)
	}
	return nil
}

func (b *bench) run() (*outcome, error) {
	chk, err := newChecker(b.wl == "decide-cold")
	if err != nil {
		return nil, fmt.Errorf("reference verdicts: %v", err)
	}
	b.chk = chk
	if err := b.setup(); err != nil {
		return nil, err
	}
	b.setupCorpusProbe()
	b.closedLoop(phWarm, warmup)
	if err := b.measure(); err != nil {
		return nil, err
	}
	if b.trace {
		b.gauges = b.sampleGauges(100 * time.Millisecond)
		b.tracedStart = time.Now()
		b.closedLoop(phTraced, time.Duration(b.seconds)*sliceLen)
		b.tracedEnd = time.Now()
		b.gauges.finish()
		b.deadlineProbes()
	}
	if b.rssMB, err = b.srv.peakRSSMB(); err != nil {
		return nil, err
	}
	b.verify()

	out := &outcome{host: b.hostStamp()}
	out.e2e = b.endToEnd()
	if b.trace {
		layers, err := b.measureLayers() // stops the server to reopen its store
		if err != nil {
			return nil, err
		}
		out.layers = append(b.perLayer(), layers...)
	}
	b.srv.stop()
	out.attempted, out.failed = b.counts()
	out.correct = b.failures == 0
	return out, nil
}

// verify checks every answer of the run and marks the wrong ones.
func (b *bench) verify() {
	fail := func(res *result, err error) {
		res.bad = err
		b.failures++
		if b.failures <= 5 {
			fmt.Fprintf(b.log, "perfbench: wrong answer (%s): %v\n", res.r.kind, err)
		}
	}
	all := append(append([]*result(nil), b.warm...), b.advProb...)
	for _, h := range b.hist {
		all = append(all, h...)
	}
	for _, res := range all {
		if res.r.write() || res.r.kind == kReadTriples || res.r.kind == kReadLog {
			continue
		}
		if err := b.chk.check(res); err != nil {
			// A refused or failed request is a failure, not a wrong
			// answer; only a 200 with the wrong content fails the run.
			if res.err == nil && res.status == http.StatusOK {
				fail(res, err)
			} else {
				res.bad = err
			}
		}
	}
	for _, h := range b.hist {
		checkCorpus(h, func(res *result, err error) {
			if res.err == nil && res.status == http.StatusOK {
				fail(res, err)
			} else {
				res.bad = err
			}
		})
	}
}

// results returns the results of one phase across the client streams
// (not the probe stream).
func (b *bench) results(phase int) []*result {
	var out []*result
	for _, h := range b.hist[:len(b.streams)] {
		for _, res := range h {
			if res.phase == phase {
				out = append(out, res)
			}
		}
	}
	return out
}

// counts returns the requests attempted in the measured window(s) and
// how many of them failed: refused, errored, timed out, or answered
// wrongly.
func (b *bench) counts() (attempted, failed int) {
	for _, phase := range []int{phWindow, phTraced} {
		for _, res := range b.results(phase) {
			attempted++
			if !res.ok() {
				failed++
			}
		}
	}
	return attempted, failed
}

// outcome is what a run prints.
type outcome struct {
	host      map[string]any
	e2e       []metric
	layers    []metric
	attempted int
	failed    int
	correct   bool
}

type metric struct {
	name  string
	value float64
	unit  string
}

// print writes the host stamp and one line per metric, then the result
// object as the last line.
func (b *bench) print(w io.Writer, out *outcome) {
	stamp, _ := json.Marshal(out.host)
	fmt.Fprintf(w, "host %s\n", stamp)
	for _, m := range out.e2e {
		fmt.Fprintf(w, "e2e   %-34s %14.6f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range out.layers {
		fmt.Fprintf(w, "layer %-34s %14.6f %s\n", m.name, m.value, m.unit)
	}
	reported := out.e2e
	if b.trace {
		reported = out.layers
	}
	ms := map[string]any{}
	for _, m := range reported {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   out.correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   ms,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// hostStamp records where and how the run happened.
func (b *bench) hostStamp() map[string]any {
	h := b.srv.healthz(b.ctl)
	serverProcs := runtime.NumCPU()
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		fmt.Sscan(v, &serverProcs)
	}
	commit, _ := h["revision"].(string)
	if commit == "" {
		commit = "unknown (not built from a git checkout)"
	}
	return map[string]any{
		"workload":             b.wl,
		"seed":                 b.seed,
		"seconds":              b.seconds,
		"trace":                b.trace,
		"nproc":                runtime.NumCPU(),
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"gomaxprocs_server":    serverProcs,
		"go_version":           runtime.Version(),
		"server_go_version":    h["go_version"],
		"cpu_model":            cpuModel(),
		"commit":               commit,
		"source_sha256":        sourceHash(),
		"server_flags":         b.srv.flags,
		"clients":              len(b.streams),
		"steal_share_window":   b.windowSteal(),
		"slices_quiet":         len(quietSlices(b.slices)),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash identifies the measured source tree: a SHA-256 over the
// paths and contents of every .go file and go.mod under the working
// directory, skipping hidden and build directories.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}
