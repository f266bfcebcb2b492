package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/automata"
	"repro/internal/loggen"
)

// Request kinds. The containment kinds name the engine of
// /v1/containment; the rest name what the request does.
const (
	kRegex        = "regex"
	kKore         = "kore"
	kDTD          = "dtd"
	kInfer        = "infer"
	kAdversarial  = "adversarial"
	kWriteTriples = "write_triples"
	kWriteLog     = "write_log"
	kReadTriples  = "read_triples"
	kReadLog      = "read_log"
	kAnalyze      = "analyze"
)

// req is one generated request together with what the checker needs to
// know about it.
type req struct {
	kind  string
	path  string
	ctype string
	body  []byte

	deadlineMS int // adversarial only

	// containment: the engine's two inputs and the template they came
	// from (expected verdicts are computed once per template).
	left, right string
	tmpl        int

	alg   string     // infer
	words [][]string // infer

	worker  int         // corpus requests: the issuing stream
	corpus  string      // corpus written or read
	triples [][3]string // write_triples
	lines   []string    // write_log lines, or the queries of an inline analyze
}

func (r *req) adversarial() bool { return r.kind == kAdversarial }

func (r *req) containment() bool {
	return r.kind == kRegex || r.kind == kKore || r.kind == kDTD
}

func (r *req) write() bool { return r.kind == kWriteTriples || r.kind == kWriteLog }

func (r *req) read() bool {
	return r.kind == kReadTriples || r.kind == kReadLog || r.kind == kAnalyze
}

// pair is a containment template: left ⊆ right? For the unique
// templates of decide-cold, tok marks where the per-request token goes.
type pair struct{ left, right string }

const tok = "TOK"

// hotRegex, hotKore and hotDTD are the small instance pool of
// decide-hot. Both verdicts occur in each engine.
var (
	hotRegex = []pair{
		{"(a|b)* (a|b) x", "(a|b)* x"},
		{"(a|b)* x", "(a|b)* (a|b) x"},
		{"a (b|c)* d", "a (b|c|d)* d"},
		{"a (b|c|d)* d", "a (b|c)* d"},
		{"(a b)* a?", "(a|b)*"},
		{"(a|b)*", "(a b)* a?"},
		{automata.AntichainHardExpr(2), automata.AntichainHardExpr(2)},
		{"a b c d? e*", "(a|b|c|d|e)*"},
	}
	hotKore = []pair{
		{"a a y", "a* a* y"},
		{"a* a* y", "a a y"},
		{"(a|b) c* d", "(a|b|c) c* d?"},
		{"b* c", "b b* c"},
	}
	hotDTD = []pair{
		{"<!ELEMENT r (a*)> <!ELEMENT a EMPTY>",
			"<!ELEMENT r ((a|b)*)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>"},
		{"<!ELEMENT r ((a|b)*)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>",
			"<!ELEMENT r (a*)> <!ELEMENT a EMPTY>"},
		{"<!ELEMENT r (a, b?)> <!ELEMENT a (c*)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>",
			"<!ELEMENT r (a, b*)> <!ELEMENT a (c*)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>"},
		{"<!ELEMENT r (a, b*)> <!ELEMENT a (c*)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>",
			"<!ELEMENT r (a, b?)> <!ELEMENT a (c*)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>"},
	}
)

// coldRegex, coldKore and coldDTD are the templates of decide-cold. Each
// request substitutes a fresh symbol for TOK on both sides. Appending
// (or adding) one fresh symbol to both sides preserves the verdict —
// L1·t ⊆ L2·t iff L1 ⊆ L2, and renaming a fresh element label is an
// isomorphism of the two DTDs — so the verdict is checked once per
// template, while every request still has its own cache key.
var (
	coldRegex = func() []pair {
		var out []pair
		for k := 1; k <= 3; k++ {
			hard := automata.AntichainHardExpr(k)
			win := "(a|b)* a " + strings.Repeat("(a|b) ", k) + "a"
			out = append(out,
				pair{"(" + hard + ") " + tok, "(" + hard + ") " + tok},
				pair{win + " " + tok, "(" + hard + ") " + tok},
				pair{"(" + hard + ") " + tok, win + " " + tok})
		}
		return out
	}()
	coldKore = []pair{
		{"a a " + tok, "a* a* " + tok},
		{"a* a* " + tok, "a a " + tok},
		{"(a|b) (c|d)* " + tok, "(a|b|c) (c|d)* " + tok},
		{"(a|b|c) d* " + tok, "(a|b) d* " + tok},
	}
	coldDTD = []pair{
		{"<!ELEMENT r (a*, TOK?)> <!ELEMENT a EMPTY> <!ELEMENT TOK EMPTY>",
			"<!ELEMENT r ((a|b)*, TOK?)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT TOK EMPTY>"},
		{"<!ELEMENT r ((a|b)*, TOK?)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT TOK EMPTY>",
			"<!ELEMENT r (a*, TOK?)> <!ELEMENT a EMPTY> <!ELEMENT TOK EMPTY>"},
	}
)

// templates returns the template table of a containment kind.
func templates(kind string, cold bool) []pair {
	switch {
	case kind == kRegex && cold:
		return coldRegex
	case kind == kRegex:
		return hotRegex
	case kind == kKore && cold:
		return coldKore
	case kind == kKore:
		return hotKore
	case kind == kDTD && cold:
		return coldDTD
	default:
		return hotDTD
	}
}

// Corpus sizes of corpus-rw: what set-up seeds per stream and what one
// write or inline read carries.
const (
	seedTriples    = 1500
	seedLogLines   = 200
	seedBatch      = 25
	writeTriples   = 10
	writeLogLines  = 25
	analyzeQueries = 25
	tripleSubjects = 400
)

// stream deterministically generates one client's requests. Identical
// (seed, workload, client) triples yield identical streams.
type stream struct {
	wl     string
	worker int
	r      *rand.Rand
	n      int // requests generated so far (the per-request token)
	// logGens are the query-log sources every log line is drawn from,
	// one at random per line, so that each client's logs cost alike.
	logGens []*loggen.Gen
	// deadlines deals the adversarial deadlines (offsets from 10 ms)
	// from seeded permutations of 0..39, so every 40 consecutive
	// adversarial requests use each deadline once.
	deadlines []int
}

// logSources are the loggen sources of the generated query logs:
// DBpedia15, BioP14 and WikiOrganic/OK.
var logSources = []int{3, 9, 14}

func newStream(wl string, seed int64, worker int) *stream {
	salt := int64(len(wl)) * 104729
	for _, c := range wl {
		salt = salt*31 + int64(c)
	}
	s := seed*1_000_003 + int64(worker)*7919 + salt
	st := &stream{wl: wl, worker: worker, r: rand.New(rand.NewSource(s))}
	for i, src := range logSources {
		st.logGens = append(st.logGens, loggen.NewGen(loggen.Sources()[src], s+1+int64(i)))
	}
	return st
}

// next returns the stream's next request.
func (s *stream) next() *req {
	s.n++
	switch s.wl {
	case "decide-hot":
		return s.hot()
	case "decide-cold":
		return s.cold()
	default: // corpus-rw
		return s.corpusRW()
	}
}

func (s *stream) hot() *req {
	var kind string
	switch p := s.r.Intn(100); {
	case p < 45:
		kind = kRegex
	case p < 70:
		kind = kKore
	default:
		kind = kDTD
	}
	pool := templates(kind, false)
	i := s.r.Intn(len(pool))
	return s.containmentReq(kind, i, pool[i].left, pool[i].right)
}

func (s *stream) cold() *req {
	p := s.r.Intn(100)
	if p >= 75 {
		return s.inferReq()
	}
	kind := kRegex
	switch {
	case p >= 60:
		kind = kDTD
	case p >= 35:
		kind = kKore
	}
	pool := templates(kind, true)
	i := s.r.Intn(len(pool))
	t := fmt.Sprintf("t%dn%d", s.worker, s.n)
	return s.containmentReq(kind, i, strings.ReplaceAll(pool[i].left, tok, t),
		strings.ReplaceAll(pool[i].right, tok, t))
}

// containmentReq renders one containment request, with random
// whitespace (and, for DTDs, declaration order) so that the server's
// canonicalisation does real work.
func (s *stream) containmentReq(kind string, tmpl int, left, right string) *req {
	vary := s.regexVariant
	if kind == kDTD {
		vary = s.dtdVariant
	}
	r := &req{kind: kind, path: "/v1/containment", ctype: "application/json",
		tmpl: tmpl, left: vary(left), right: vary(right)}
	r.body = mustJSON(map[string]any{"engine": kind, "left": r.left, "right": r.right})
	return r
}

// regexVariant pads operators and parentheses with 0–2 spaces and widens
// existing spaces, which never changes the parsed expression (the
// templates use no postfix '+', whose meaning depends on spacing).
func (s *stream) regexVariant(e string) string {
	var b strings.Builder
	for _, c := range e {
		switch c {
		case '(', ')', '|', '*', '?':
			b.WriteString(s.spaces(0, 2))
			b.WriteRune(c)
			b.WriteString(s.spaces(0, 2))
		case ' ':
			b.WriteString(s.spaces(1, 3))
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// dtdVariant shuffles the declarations after the first (the first
// declared element is the start label) and widens the whitespace
// between words.
func (s *stream) dtdVariant(d string) string {
	decls := strings.SplitAfter(d, ">")
	var parts []string
	for _, x := range decls {
		if x = strings.TrimSpace(x); x != "" {
			parts = append(parts, x)
		}
	}
	rest := parts[1:]
	s.r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteString(s.spaces(1, 3))
		}
		for j, w := range strings.Split(p, " ") {
			if j > 0 {
				b.WriteString(s.spaces(1, 3))
			}
			b.WriteString(w)
		}
	}
	return b.String()
}

func (s *stream) spaces(lo, hi int) string {
	return strings.Repeat(" ", lo+s.r.Intn(hi-lo+1))
}

// inferReq asks for SORE or CHARE inference from a random sample over
// {a, b, c}, one word of which carries the request's fresh symbol.
func (s *stream) inferReq() *req {
	alg := []string{"sore", "chare"}[s.r.Intn(2)]
	words := make([][]string, 3+s.r.Intn(4))
	for i := range words {
		w := make([]string, 1+s.r.Intn(5))
		for j := range w {
			w[j] = string(rune('a' + s.r.Intn(3)))
		}
		words[i] = w
	}
	w := s.r.Intn(len(words))
	at := s.r.Intn(len(words[w]) + 1)
	t := fmt.Sprintf("t%dn%d", s.worker, s.n)
	words[w] = append(words[w][:at], append([]string{t}, words[w][at:]...)...)
	return &req{kind: kInfer, path: "/v1/infer", ctype: "application/json", alg: alg, words: words,
		body: mustJSON(map[string]any{"algorithm": alg, "words": words})}
}

// adversarialReq is self-containment of the antichain-hard family at
// k=16 (tens of seconds of work) under a 10–49 ms deadline: the server
// must answer 504 close to the deadline.
func (s *stream) adversarialReq() *req {
	hard := automata.AntichainHardExpr(16)
	if len(s.deadlines) == 0 {
		s.deadlines = s.r.Perm(40)
	}
	d := 10 + s.deadlines[0]
	s.deadlines = s.deadlines[1:]
	return &req{kind: kAdversarial, path: "/v1/containment", ctype: "application/json",
		left: hard, right: hard, deadlineMS: d,
		body: mustJSON(map[string]any{"engine": "regex", "left": hard, "right": hard, "deadline_ms": d})}
}

// Corpus names of one stream. Set-up seeds the stream's triples and log
// corpus, which its reads analyze; its writes go to two more corpora of
// its own. Every flush adds a segment to the whole store, so the reads
// pay for the writes without their answers changing, and every state
// a request sees is known exactly.
func triplesCorpus(worker int) string      { return fmt.Sprintf("t%d", worker) }
func logCorpus(worker int) string          { return fmt.Sprintf("l%d", worker) }
func writeTriplesCorpus(worker int) string { return fmt.Sprintf("wt%d", worker) }
func writeLogCorpus(worker int) string     { return fmt.Sprintf("wl%d", worker) }

// seedRequests returns the set-up ingests of a corpus stream: its read
// corpora, in batches of the given size, each flushed to its own
// segment. Seeding many segments gives the store the history of a
// long-running server, so the segments a measured window adds change
// its cost by a fraction rather than a multiple.
func (s *stream) seedRequests(triples, lines, batch int) []*req {
	var out []*req
	for done := 0; done < triples; done += batch {
		out = append(out, s.writeTriplesReq(triplesCorpus(s.worker), min(batch, triples-done)))
	}
	for done := 0; done < lines; done += batch {
		out = append(out, s.writeLogReq(logCorpus(s.worker), min(batch, lines-done)))
	}
	return out
}

func (s *stream) corpusRW() *req {
	// The shares keep each end-to-end quantile inside one kind's spread
	// rather than on the step between two kinds' costs: the slowest
	// kind, triple ingest, is 5% of requests, so latency_p90_ms falls in
	// the reads' tail, and triple ingests are most of the writes.
	switch p := s.r.Intn(100); {
	case p < 5:
		return s.writeTriplesReq(writeTriplesCorpus(s.worker), writeTriples)
	case p < 7:
		return s.writeLogReq(writeLogCorpus(s.worker), writeLogLines)
	case p < 52:
		return s.readReq(triplesCorpus(s.worker), kReadTriples)
	case p < 87:
		return s.readReq(logCorpus(s.worker), kReadLog)
	default:
		q := s.queries(analyzeQueries)
		return &req{kind: kAnalyze, path: "/v1/analyze", ctype: "application/json", lines: q,
			body: mustJSON(map[string]any{"name": "inline", "queries": q})}
	}
}

// writeTriplesReq draws n triples over a bounded subject set, so some
// collide with stored ones and the server's dedup does real work.
func (s *stream) writeTriplesReq(c string, n int) *req {
	preds := []string{"rdf:type", "foaf:knows", "foaf:name", "dbo:country", "dbo:genre", "dct:subject", "rdfs:label", "dbo:population"}
	ts := make([][3]string, n)
	for i := range ts {
		subj := fmt.Sprintf("w%d:s%d", s.worker, s.r.Intn(tripleSubjects))
		p := preds[s.r.Intn(len(preds))]
		var o string
		if s.r.Intn(2) == 0 {
			o = fmt.Sprintf("w%d:s%d", s.worker, s.r.Intn(tripleSubjects))
		} else {
			o = fmt.Sprintf("\"value %d\"", s.r.Intn(5000))
		}
		ts[i] = [3]string{subj, p, o}
	}
	return &req{kind: kWriteTriples, path: "/v1/corpora", ctype: "application/json",
		worker: s.worker, corpus: c, triples: ts,
		body: mustJSON(map[string]any{"name": c, "triples": ts})}
}

// reingestReq re-sends n triples drawn from ones the corpus already
// holds: the server looks every one up across the store's segments,
// adds none, and its flush writes no segment, so the store stays as it
// was.
func (s *stream) reingestReq(c string, stored [][3]string, n int) *req {
	ts := make([][3]string, n)
	for i := range ts {
		ts[i] = stored[s.r.Intn(len(stored))]
	}
	return &req{kind: kWriteTriples, path: "/v1/corpora", ctype: "application/json",
		worker: s.worker, corpus: c, triples: ts,
		body: mustJSON(map[string]any{"name": c, "triples": ts})}
}

func (s *stream) writeLogReq(c string, n int) *req {
	lines := s.queries(n)
	return &req{kind: kWriteLog, path: "/v1/corpora", ctype: "application/json",
		worker: s.worker, corpus: c, lines: lines,
		body: mustJSON(map[string]any{"name": c, "kind": "log", "queries": lines})}
}

func (s *stream) readReq(corpus, kind string) *req {
	return &req{kind: kind, path: "/v1/analyze", ctype: "application/json",
		worker: s.worker, corpus: corpus, body: mustJSON(map[string]any{"corpus": corpus})}
}

// queries draws n generated SPARQL log lines (some invalid, some
// repeated, as in the paper's logs). Lines are single-line, as a log
// corpus stores them.
func (s *stream) queries(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strings.ReplaceAll(s.logGens[s.r.Intn(len(s.logGens))].Next(), "\n", " ")
	}
	return out
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic("perfbench: unmarshalable request: " + err.Error())
	}
	return raw
}
