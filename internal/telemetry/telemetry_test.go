package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	// Every entry point must be callable on the nil collector.
	c.Counter("x").Add(5)
	c.Counter("x").Inc()
	if got := c.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d, want 0", got)
	}
	c.Gauge("g").Set(1.5)
	if got := c.Gauge("g").Value(); got != 0 {
		t.Errorf("nil gauge value = %v, want 0", got)
	}
	c.Histogram("h").Observe(3)
	if got := c.Histogram("h").Stat(); got.Count != 0 {
		t.Errorf("nil histogram count = %d, want 0", got.Count)
	}
	sp := c.StartSpan("root")
	child := sp.Child("leaf")
	if d := child.End(); d != 0 {
		t.Errorf("nil span duration = %v, want 0", d)
	}
	sp.End()
	c.RecordGeneration(Generation{Gen: 1})
	if _, ok := c.LastGeneration(); ok {
		t.Error("nil collector has a last generation")
	}
	c.SetOutput(&bytes.Buffer{})
	c.Meta(map[string]any{"a": 1})
	if err := c.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if s := c.Snapshot(); len(s.Counters) != 0 || len(s.Spans) != 0 {
		t.Error("nil snapshot not empty")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	c := New()
	c.Counter("evals").Add(10)
	c.Counter("evals").Inc()
	if got := c.Counter("evals").Value(); got != 11 {
		t.Errorf("counter = %d, want 11", got)
	}
	c.Gauge("depth").Set(7)
	c.Gauge("depth").Set(9)
	if got := c.Gauge("depth").Value(); got != 9 {
		t.Errorf("gauge = %v, want 9", got)
	}
	h := c.Histogram("ms")
	for _, v := range []float64{1, 2, 3, 100, -5} {
		h.Observe(v)
	}
	st := h.Stat()
	if st.Count != 5 {
		t.Errorf("hist count = %d, want 5", st.Count)
	}
	if st.Min != 0 || st.Max != 100 {
		t.Errorf("hist min/max = %v/%v, want 0/100", st.Min, st.Max)
	}
	if st.Sum != 106 {
		t.Errorf("hist sum = %v, want 106", st.Sum)
	}
	if st.P50 > st.P90 || st.P90 > st.P99 {
		t.Errorf("quantiles not monotone: %v %v %v", st.P50, st.P90, st.P99)
	}
	if st.P99 > st.Max {
		t.Errorf("p99 %v exceeds max %v", st.P99, st.Max)
	}
}

func TestSpanHierarchy(t *testing.T) {
	c := New()
	root := c.StartSpan("synthesize")
	leaf := root.Child("sp-tree")
	time.Sleep(time.Millisecond)
	if d := leaf.End(); d <= 0 {
		t.Errorf("child duration = %v, want > 0", d)
	}
	root.End()
	s := c.Snapshot()
	if len(s.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(s.Spans))
	}
	// Children finish first.
	if s.Spans[0].Name != "sp-tree" || s.Spans[0].Parent != "synthesize" {
		t.Errorf("child record = %+v", s.Spans[0])
	}
	if s.Spans[1].Name != "synthesize" || s.Spans[1].Parent != "" {
		t.Errorf("root record = %+v", s.Spans[1])
	}
	if s.Spans[1].DurMS < s.Spans[0].DurMS {
		t.Errorf("root (%v ms) shorter than child (%v ms)", s.Spans[1].DurMS, s.Spans[0].DurMS)
	}
}

func TestJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	c := New()
	c.SetOutput(&buf)
	c.Meta(map[string]any{"tool": "test", "network": "TreeFlat"})
	sp := c.StartSpan("synthesize")
	sp.Child("criticality").End()
	sp.End()
	c.RecordGeneration(Generation{Gen: 0, Front: 3, Hypervolume: 42, NormHV: 0.5, Evaluations: 100})
	c.Counter("sim.shift_clocks").Add(77)
	c.Gauge("sptree.depth").Set(4)
	c.Histogram("moea.gen_ms").Observe(2.5)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	types := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable line %q: %v", line, err)
		}
		typ, _ := ev["type"].(string)
		if typ == "" {
			t.Fatalf("line without type: %q", line)
		}
		types[typ]++
		switch typ {
		case "generation":
			if ev["hypervolume"].(float64) != 42 {
				t.Errorf("generation hypervolume = %v", ev["hypervolume"])
			}
		case "counter":
			if ev["name"] != "sim.shift_clocks" || ev["value"].(float64) != 77 {
				t.Errorf("counter event = %v", ev)
			}
		}
	}
	want := map[string]int{"meta": 1, "span": 2, "generation": 1, "counter": 1, "gauge": 1, "hist": 1}
	for typ, n := range want {
		if types[typ] != n {
			t.Errorf("got %d %q events, want %d (all: %v)", types[typ], typ, n, types)
		}
	}
}

func TestLastGeneration(t *testing.T) {
	c := New()
	if _, ok := c.LastGeneration(); ok {
		t.Error("fresh collector reports a generation")
	}
	c.RecordGeneration(Generation{Gen: 0})
	c.RecordGeneration(Generation{Gen: 1, Front: 9})
	g, ok := c.LastGeneration()
	if !ok || g.Gen != 1 || g.Front != 9 {
		t.Errorf("last generation = %+v, %v", g, ok)
	}
}

// TestSpanLimitBoundsGenerations: the span limit also bounds the
// generation history, so a server that records every generation of
// every job keeps only the most recent ones.
func TestSpanLimitBoundsGenerations(t *testing.T) {
	c := New()
	c.SetSpanLimit(8)
	for i := 0; i < 100; i++ {
		c.RecordGeneration(Generation{Gen: i})
	}
	gens := c.Snapshot().Generations
	if len(gens) > 8 {
		t.Errorf("generation history %d exceeds limit 8", len(gens))
	}
	for i := 1; i < len(gens); i++ {
		if gens[i].Gen != gens[i-1].Gen+1 {
			t.Errorf("retained generations not consecutive: %d after %d", gens[i].Gen, gens[i-1].Gen)
		}
	}
	if g, ok := c.LastGeneration(); !ok || g.Gen != 99 {
		t.Errorf("last generation = %+v, %v; want gen 99", g, ok)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Counter("n").Inc()
				c.Histogram("h").Observe(float64(i))
				c.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Counter("n").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := c.Histogram("h").Stat().Count; got != 8000 {
		t.Errorf("hist count = %d, want 8000", got)
	}
}

func TestCloseWithoutOutput(t *testing.T) {
	c := New()
	c.Counter("x").Inc()
	if err := c.Close(); err != nil {
		t.Errorf("Close without output: %v", err)
	}
}

func TestMetaSerialization(t *testing.T) {
	var buf bytes.Buffer
	c := New()
	c.SetOutput(&buf)
	c.Meta(map[string]any{"seed": int64(42)})
	if !strings.Contains(buf.String(), `"seed":42`) {
		t.Errorf("meta line = %q", buf.String())
	}
}
