package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/regex"
)

func bodies(wl string, seed int64, worker, n int) []string {
	st := newStream(wl, seed, worker)
	out := make([]string, n)
	for i := range out {
		out[i] = string(st.next().body)
	}
	return out
}

func TestSeedYieldsIdenticalStreams(t *testing.T) {
	for _, wl := range workloads {
		for w := 0; w < 2; w++ {
			a, b := bodies(wl, 7, w, 400), bodies(wl, 7, w, 400)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s worker %d: request %d differs between two streams of seed 7", wl, w, i)
				}
			}
			if c := bodies(wl, 8, w, 400); strings.Join(a, "\n") == strings.Join(c, "\n") {
				t.Errorf("%s worker %d: seeds 7 and 8 yield the same stream", wl, w)
			}
		}
	}
}

func TestDecideColdNeverRepeatsACanonicalKey(t *testing.T) {
	seen := map[string]bool{}
	kinds := map[string]int{}
	for w := 0; w < 2; w++ {
		st := newStream("decide-cold", 3, w)
		for i := 0; i < 3000; i++ {
			r := st.next()
			kinds[r.kind]++
			key := string(r.body)
			if r.containment() {
				if key = canonicalKey(r); key == "" {
					t.Fatalf("request %d of worker %d does not parse: %s", i, w, r.body)
				}
			}
			if seen[key] {
				t.Fatalf("request %d of worker %d repeats key %q", i, w, key)
			}
			seen[key] = true
		}
	}
	for _, k := range []string{kRegex, kKore, kDTD, kInfer} {
		if kinds[k] == 0 {
			t.Errorf("decide-cold generated no %s request", k)
		}
	}
}

func TestHotVariantsShareTheTemplateKey(t *testing.T) {
	st := newStream("decide-hot", 1, 0)
	for i := 0; i < 500; i++ {
		r := st.next()
		p := templates(r.kind, false)[r.tmpl]
		want := canonicalKey(&req{kind: r.kind, left: p.left, right: p.right})
		if got := canonicalKey(r); got == "" || got != want {
			t.Fatalf("variant %q ⊆ %q has key %q, want the template's %q", r.left, r.right, got, want)
		}
	}
}

// TestFreshTokensKeepVerdicts checks the argument behind deciding each
// decide-cold template once: the tokenised instances the stream sends
// have the template's verdict under the reference engines.
func TestFreshTokensKeepVerdicts(t *testing.T) {
	c, err := newChecker(true)
	if err != nil {
		t.Fatal(err)
	}
	st := newStream("decide-cold", 11, 1)
	checked := map[string]int{}
	for i := 0; i < 2000; i++ {
		r := st.next()
		if !r.containment() || checked[r.kind] >= 25 {
			continue
		}
		checked[r.kind]++
		var got bool
		if r.kind == kDTD {
			d1, err1 := dtd.ParseText(r.left, "")
			d2, err2 := dtd.ParseText(r.right, "")
			if err1 != nil || err2 != nil {
				t.Fatalf("unparsable DTD pair %q / %q", r.left, r.right)
			}
			got = dtd.Contains(d1, d2)
		} else {
			got = automata.ContainsClassic(regex.MustParse(r.left), regex.MustParse(r.right))
		}
		if want := c.verdicts[r.kind+"/"+strconv.Itoa(r.tmpl)]; got != want {
			t.Errorf("%s %q ⊆ %q: reference engine says %v, template verdict %v", r.kind, r.left, r.right, got, want)
		}
	}
}

func TestEveryEngineHasBothVerdicts(t *testing.T) {
	for _, cold := range []bool{false, true} {
		c, err := newChecker(cold)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{kRegex, kKore, kDTD} {
			var yes, no int
			for i := range templates(kind, cold) {
				if c.verdicts[kind+"/"+strconv.Itoa(i)] {
					yes++
				} else {
					no++
				}
			}
			if yes == 0 || no == 0 {
				t.Errorf("%s templates (cold=%v): %d contained, %d not", kind, cold, yes, no)
			}
		}
	}
}

func TestHelpers(t *testing.T) {
	// Steal shares of the four slices: 0.5, 0, 0.25, 0.
	slices := func(ticks ...tick) []slice {
		var out []slice
		for i := 1; i < len(ticks); i++ {
			out = append(out, slice{from: ticks[i-1], done: ticks[i], results: make([]*result, i)})
		}
		return out
	}
	quiet := func(ss []slice) (ids []int) {
		for _, s := range quietSlices(ss) {
			ids = append(ids, len(s.results)-1)
		}
		return ids
	}
	ss := slices(tick{0, 0, 0}, tick{0, 50, 100}, tick{0, 50, 200}, tick{0, 75, 300}, tick{0, 75, 400})
	if got := quiet(ss); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("quietSlices = %v, want [1 3]", got)
	}
	// Steal shares 0.01, 0, 0.04, 0.3: all but the last are quiet.
	ss = slices(tick{0, 0, 0}, tick{0, 1, 100}, tick{0, 1, 200}, tick{0, 5, 300}, tick{0, 35, 400})
	if got := quiet(ss); len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Errorf("quietSlices = %v, want [1 0 2]", got)
	}
	// 10 observations: 4 at or below 1 ms, 10 at or below 2 ms.
	le := map[float64]float64{0.001: 4, 0.002: 10}
	if got := histQuantile(le, 10, 0.7); got < 0.0014999 || got > 0.0015001 {
		t.Errorf("histQuantile = %v, want 0.0015", got)
	}
}

// TestSmokeEveryWorkload runs every workload for one second against a
// freshly built rwdserve, untraced and traced, and checks that the
// result line carries every metric BENCHMARK.json names, with every
// answer correct.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rwdserve and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rwdserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/rwdserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rwdserve: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.Name, "-seed", "2", "-seconds", "1", "-trace", strconv.Itoa(trace),
				"-server", bin, "-workdir", filepath.Join(dir, "run")}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s missing or not in %s", w.Name, trace, m.Name, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
				if !strings.Contains(stdout.String(), " "+m.Name+" ") {
					t.Errorf("%s trace %d: no line prints %s", w.Name, trace, m.Name)
				}
			}
		}
	}
}
