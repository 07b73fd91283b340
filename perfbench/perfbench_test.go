package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/spec"
)

// result is the last line of a run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runShort(t *testing.T, o options) (*report, result, string) {
	t.Helper()
	o.short, o.seconds = true, 1
	if o.spans == "" {
		o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	rep, err := workloads[o.workload].run(o)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	return rep, res, out.String()
}

// expected is the metric list a run must print: every end-to-end metric
// untraced, every per-layer metric traced.
func expected(traced bool) []layerMetric {
	if traced {
		return perLayer
	}
	var l []layerMetric
	for _, m := range endToEnd(nil, &pass{rr: regionResult{heap: []heapSample{{}}}}) {
		l = append(l, layerMetric{m.name, m.unit})
	}
	return l
}

// TestShortModePrintsEveryMetric runs every workload on tiny inputs,
// untraced and traced, and asserts that every named metric prints with
// its unit, in the text and in the JSON line.
func TestShortModePrintsEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				rep, res, text := runShort(t, options{workload: name, seed: 7, trace: traced, spans: spans})
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.failures)
				}
				want := expected(traced)
				if len(res.Metrics) != len(want) {
					t.Errorf("JSON has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if !strings.Contains(text, "metric "+m.name+" ") {
						t.Errorf("metric %s missing from the text report", m.name)
					}
				}
				if traced {
					checkSpanLog(t, spans)
				}
			})
		}
	}
}

func checkSpanLog(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.ID == 0 || s.Name == "" || s.End < s.Start {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("empty span log")
	}
}

// TestTracedFleetStreams: through the handler wrappers, the workers
// still stream SSE and the coordinator still relays checkpoints.
func TestTracedFleetStreams(t *testing.T) {
	rep, res, _ := runShort(t, options{workload: "fleet_mix", seed: 3, trace: true})
	if res.Failed != 0 {
		t.Fatalf("failures: %v", rep.failures)
	}
	for _, name := range []string{"serve.sse_events_per_stream", "fleet.ckpt_events_per_job", "fleet.ckpt_mb_per_job"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
}

// TestInjectedFaultsRaiseFailRatio: a dominated front point, or an
// altered repeat body, injected into a response fails that op.
func TestInjectedFaultsRaiseFailRatio(t *testing.T) {
	cases := map[string]struct {
		class  string
		edit   func(map[string]any)
		reason string
	}{
		"dominated point": {harden, func(m map[string]any) {
			front := m["front"].([]any)
			last := front[len(front)-1].(map[string]any)
			worse := map[string]any{}
			for k, v := range last {
				worse[k] = v
			}
			worse["cost"] = last["cost"].(float64) + 1
			m["front"] = append(front, worse)
		}, "dominated"},
		"altered repeat": {hardenRepeat, func(m map[string]any) {
			m["max_damage"] = m["max_damage"].(float64) + 1
		}, "differ"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			done := false
			tamper := func(op *httpOp, r *httpRes) {
				if done || op.class != tc.class {
					return
				}
				var m map[string]any
				if err := json.Unmarshal(r.body, &m); err != nil {
					t.Fatal(err)
				}
				tc.edit(m)
				b, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				r.body, done = b, true
			}
			// A tampered original also fails its repeat's comparison.
			rep, res, _ := runShort(t, options{workload: "serve_mix", seed: 5, tamper: tamper})
			if res.Failed < 1 || res.Correct {
				t.Fatalf("failed=%d correct=%v, want a failure", res.Failed, res.Correct)
			}
			if !strings.Contains(rep.failures[0], tc.reason) {
				t.Errorf("failure %q does not mention %q", rep.failures[0], tc.reason)
			}
		})
	}
}

// TestSameSeedSameDigest: the digest of all fronts is a function of the
// seed, and another seed changes the inputs but not the class counts.
func TestSameSeedSameDigest(t *testing.T) {
	a, _, _ := runShort(t, options{workload: "serve_mix", seed: 11})
	b, _, _ := runShort(t, options{workload: "serve_mix", seed: 11})
	c, _, _ := runShort(t, options{workload: "serve_mix", seed: 12})
	if a.digest != b.digest {
		t.Errorf("seed 11 digests differ: %s vs %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 11 and 12 share digest %s", a.digest)
	}
	if a.attempted != c.attempted {
		t.Errorf("op counts differ across seeds: %d vs %d", a.attempted, c.attempted)
	}
}

func TestPlanClassCountsIgnoreSeed(t *testing.T) {
	count := func(seed int64) map[string]int {
		p, err := planMix(options{seed: seed, seconds: 20, short: true}, true)
		if err != nil {
			t.Fatal(err)
		}
		n := map[string]int{}
		for _, ops := range p.clients {
			for _, op := range ops {
				n[op.class]++
			}
		}
		return n
	}
	a, b := count(1), count(2)
	for k, v := range a {
		if b[k] != v {
			t.Errorf("class %s: %d vs %d ops", k, v, b[k])
		}
	}
}

// TestExactFrontRatioIsOne: the exact front scores 1 against itself.
func TestExactFrontRatioIsOne(t *testing.T) {
	net, err := benchnets.Generate("TreeFlat")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(net, sp)
	if err != nil {
		t.Fatal(err)
	}
	if ref.exact == nil {
		t.Fatal("TreeFlat should be tractable")
	}
	var front []point
	for c := int64(0); c <= ref.maxCost; c++ {
		if c == 0 || ref.exact[c] < ref.exact[c-1] {
			front = append(front, point{Cost: c, Damage: ref.exact[c]})
		}
	}
	if r, ok := ref.hvRatio(front); !ok || r < 1-1e-12 || r > 1+1e-12 {
		t.Errorf("exact front ratio = %v, %v; want 1", r, ok)
	}
	if r, _ := ref.hvRatio(front[:1]); r >= 1 {
		t.Errorf("a one-point front scores %v, want < 1", r)
	}
}

func TestCheckFront(t *testing.T) {
	ok := []point{{Cost: 9, Damage: 0}, {Cost: 4, Damage: 5}, {Cost: 0, Damage: 9}}
	if err := checkFront(ok, 9, 9); err != nil {
		t.Errorf("valid front rejected: %v", err)
	}
	for name, f := range map[string][]point{
		"unsorted":  {{Cost: 4, Damage: 5}, {Cost: 9, Damage: 0}},
		"dominated": {{Cost: 9, Damage: 0}, {Cost: 5, Damage: 5}, {Cost: 4, Damage: 5}},
		"outside":   {{Cost: 10, Damage: 0}},
	} {
		if err := checkFront(f, 9, 9); err == nil {
			t.Errorf("%s front accepted", name)
		}
	}
}

func TestSameResultIgnoresVolatileFields(t *testing.T) {
	a := []byte(`{"front":[1],"cached":false,"elapsed_ms":3.5}`)
	if err := sameResult(a, []byte(`{"cached":true,"elapsed_ms":9,"front":[1]}`)); err != nil {
		t.Error(err)
	}
	if err := sameResult(a, []byte(`{"front":[2],"cached":false,"elapsed_ms":3.5}`)); err == nil {
		t.Error("different fronts compared equal")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []layerMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %v, command prints %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, expected(false))
	same("per_layer", bj.PerLayer, expected(true))
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads, command has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s unknown to the command", w.Name)
		}
	}
}
