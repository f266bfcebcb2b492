package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/inference"
	"repro/internal/rdf"
	"repro/internal/regex"
)

// checker verifies every answer against in-process reference
// computations: containment verdicts against automata.ContainsClassic
// (regex, kore) and dtd.Contains, inference against the inference
// package, analysis reports against core.AnalyzeQueries, store reads
// against rdf.ComputeStats over an in-memory graph, and ingest counts
// against the generated batches.
type checker struct {
	verdicts map[string]bool // "kind/template" → contained
}

func newChecker(cold bool) (*checker, error) {
	c := &checker{verdicts: map[string]bool{}}
	for _, kind := range []string{kRegex, kKore, kDTD} {
		for i, p := range templates(kind, cold) {
			v, err := referenceVerdict(kind, p)
			if err != nil {
				return nil, err
			}
			c.verdicts[fmt.Sprintf("%s/%d", kind, i)] = v
		}
	}
	return c, nil
}

// referenceVerdict decides one template with the reference engines,
// substituting a fixed fresh symbol for the request token.
func referenceVerdict(kind string, p pair) (bool, error) {
	l := strings.ReplaceAll(p.left, tok, "fresh")
	r := strings.ReplaceAll(p.right, tok, "fresh")
	if kind == kDTD {
		d1, err := dtd.ParseText(l, "")
		if err != nil {
			return false, err
		}
		d2, err := dtd.ParseText(r, "")
		if err != nil {
			return false, err
		}
		return dtd.Contains(d1, d2), nil
	}
	e1, err := regex.Parse(l)
	if err != nil {
		return false, err
	}
	e2, err := regex.Parse(r)
	if err != nil {
		return false, err
	}
	return automata.ContainsClassic(e1, e2), nil
}

// check verifies one result that needs no corpus state; corpus
// requests are verified by checkCorpus.
func (c *checker) check(res *result) error {
	if res.err != nil {
		return fmt.Errorf("transport: %v", res.err)
	}
	r := res.r
	if r.adversarial() {
		if res.status == http.StatusGatewayTimeout {
			return nil
		}
		var out struct{ Contained bool }
		if res.status == http.StatusOK && json.Unmarshal(res.body, &out) == nil && out.Contained {
			return nil
		}
		return fmt.Errorf("adversarial containment: status %d", res.status)
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", res.status, bytes.TrimSpace(res.body))
	}
	switch {
	case r.containment():
		var out struct{ Contained bool }
		if err := json.Unmarshal(res.body, &out); err != nil {
			return err
		}
		if want := c.verdicts[fmt.Sprintf("%s/%d", r.kind, r.tmpl)]; out.Contained != want {
			return fmt.Errorf("%s containment %q ⊆ %q: got %v, want %v", r.kind, r.left, r.right, out.Contained, want)
		}
	case r.kind == kInfer:
		var out struct {
			Expr          string
			Deterministic bool
		}
		if err := json.Unmarshal(res.body, &out); err != nil {
			return err
		}
		e := inference.InferSORE(r.words)
		if r.alg == "chare" {
			e = inference.InferCHARE(r.words)
		}
		det := automata.Glushkov(e).IsDeterministic()
		if out.Expr != e.String() || out.Deterministic != det {
			return fmt.Errorf("infer %s: got %q/%v, want %q/%v", r.alg, out.Expr, out.Deterministic, e.String(), det)
		}
	case r.kind == kAnalyze:
		var out struct {
			Queries int
			Report  json.RawMessage
		}
		if err := json.Unmarshal(res.body, &out); err != nil {
			return err
		}
		want, err := json.Marshal(core.AnalyzeQueries("inline", r.lines, 1))
		if err != nil {
			return err
		}
		if out.Queries != len(r.lines) || !bytes.Equal(out.Report, want) {
			return fmt.Errorf("inline analyze of %d queries: report differs from core.AnalyzeQueries", len(r.lines))
		}
	}
	return nil
}

// corpusState is the in-memory reference of one stored corpus.
type corpusState struct {
	g      *rdf.Graph     // triples corpus
	a      *core.Analyzer // log corpus: core.AnalyzeQueries(name, lines, 1), fed line by line
	answer []byte         // the reference read answer, cached until the next write
}

// checkCorpus replays one stream's corpus requests in order against
// in-memory references — a graph per triples corpus, a log analyzer per
// log corpus — which hold exactly what the stream's own corpora hold at
// each of its requests, and verifies every write and read.
func checkCorpus(hist []*result, fail func(*result, error)) {
	corpora := map[string]*corpusState{}
	for _, res := range hist {
		r := res.r
		if !r.write() && r.kind != kReadTriples && r.kind != kReadLog {
			continue
		}
		c := corpora[r.corpus]
		if c == nil {
			c = &corpusState{g: rdf.NewGraph(), a: core.NewAnalyzer(r.corpus)}
			corpora[r.corpus] = c
		}
		var err error
		switch r.kind {
		case kWriteTriples:
			added := 0
			for _, t := range r.triples {
				if c.g.Add(t[0], t[1], t[2]) {
					added++
				}
			}
			c.answer = nil
			err = checkIngest(res, added, len(r.triples)-added)
		case kWriteLog:
			for _, l := range r.lines {
				c.a.Ingest(l)
			}
			c.answer = nil
			err = checkIngest(res, len(r.lines), 0)
		case kReadTriples:
			if c.answer == nil {
				c.answer, _ = json.Marshal(rdf.ComputeStats(c.g))
			}
			err = checkRead(res, "rdf_stats", c.answer, -1)
		case kReadLog:
			if c.answer == nil {
				c.answer, _ = json.Marshal(c.a.Report)
			}
			err = checkRead(res, "report", c.answer, c.a.Report.Total)
		}
		if err != nil {
			fail(res, err)
		}
	}
}

func checkIngest(res *result, added, skipped int) error {
	if err := okStatus(res); err != nil {
		return err
	}
	var out struct{ Added, Skipped int }
	if err := json.Unmarshal(res.body, &out); err != nil {
		return err
	}
	if out.Added != added || out.Skipped != skipped {
		return fmt.Errorf("ingest into %s: added/skipped %d/%d, want %d/%d",
			res.r.corpus, out.Added, out.Skipped, added, skipped)
	}
	return nil
}

func checkRead(res *result, key string, want []byte, queries int) error {
	if err := okStatus(res); err != nil {
		return err
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(res.body, &out); err != nil {
		return err
	}
	if !bytes.Equal(out[key], want) {
		return fmt.Errorf("analyze of corpus %s: %s differs from the in-process reference", res.r.corpus, key)
	}
	if queries >= 0 && string(out["queries"]) != fmt.Sprint(queries) {
		return fmt.Errorf("analyze of corpus %s: queries %s, want %d", res.r.corpus, out["queries"], queries)
	}
	return nil
}

func okStatus(res *result) error {
	if res.err != nil {
		return fmt.Errorf("transport: %v", res.err)
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", res.status, bytes.TrimSpace(res.body))
	}
	return nil
}
