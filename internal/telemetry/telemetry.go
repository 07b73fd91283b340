// Package telemetry is a zero-dependency observability layer for the
// hardening pipeline: atomic counters, gauges and histograms, a
// lightweight hierarchical span tracer with wall-clock timing, and a
// JSONL event emitter.
//
// Everything is nil-safe: a nil *Collector hands out nil instruments,
// and every method on a nil instrument is a no-op. Code under
// measurement can therefore call telemetry unconditionally — with
// telemetry disabled the cost is a nil check, so the instrumented hot
// paths carry no measurable overhead.
//
// The pipeline writes three kinds of data:
//
//   - instruments (Counter, Gauge, Histogram), registered by name and
//     snapshotted or emitted on Close;
//   - spans (StartSpan/Child/End), emitted as they finish;
//   - per-generation convergence records (RecordGeneration), emitted as
//     the evolutionary optimizer reports progress.
//
// With SetOutput the collector streams every finished span, generation
// record and (on Close) instrument snapshot as one JSON object per line
// — the JSONL schema documented in DESIGN.md ("Observability").
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d. Safe on a nil counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Inc increments the counter by one. Safe on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates a distribution of non-negative values in
// power-of-two buckets: bucket k holds values in [2^(k-1), 2^k).
// Quantiles reported by Stat are therefore upper bounds with at most a
// factor-2 overestimate — plenty for telling microseconds from
// milliseconds from seconds.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [64]int64
}

// Observe records one value. Negative values clamp to zero. Safe on a
// nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
	h.mu.Unlock()
}

// HistStat is a point-in-time summary of a histogram.
type HistStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Stat summarizes the histogram (zero value for a nil histogram).
func (h *Histogram) Stat() HistStat {
	if h == nil {
		return HistStat{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// quantileLocked returns the upper bound of the bucket where the
// cumulative count crosses q, clamped to the observed extremes.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(h.count)))
	if need < 1 {
		need = 1
	}
	var cum int64
	for k, n := range h.buckets {
		cum += n
		if cum >= need {
			upper := float64(uint64(1) << uint(k))
			if upper > h.max {
				upper = h.max
			}
			if upper < h.min {
				upper = h.min
			}
			return upper
		}
	}
	return h.max
}

// Generation is one per-generation convergence record of an
// evolutionary run: the size and quality of the nondominated front and
// the cumulated evaluation effort.
type Generation struct {
	Gen         int     `json:"gen"`
	Front       int     `json:"front"`
	Hypervolume float64 `json:"hypervolume"`
	NormHV      float64 `json:"norm_hv"`
	BestDamage  float64 `json:"best_damage"`
	BestCost    float64 `json:"best_cost"`
	Evaluations int64   `json:"evaluations"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// Collector owns the instruments, spans and generation records of one
// pipeline run. Create one with New; the nil *Collector is the valid
// "telemetry off" instance.
type Collector struct {
	start   time.Time
	spanSeq atomic.Int64 // span id allocator; ids are unique per collector

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []SpanRecord
	gens     []Generation
	emitter  *emitter
	// spanLimit, when positive, bounds the retained span and generation
	// histories, each on its own: once one reaches it, its oldest half is
	// dropped. 0 keeps everything (the CLI default — one run, finite
	// records).
	spanLimit int
	// spanObservers are called synchronously with every finished span
	// record (the flight recorder's feed).
	spanObservers []func(SpanRecord)
}

// New creates an empty collector. Pass nil anywhere a Collector is
// accepted to disable telemetry entirely.
func New() *Collector {
	return &Collector{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// sinceMS returns milliseconds since the collector was created.
func (c *Collector) sinceMS(t time.Time) float64 {
	return float64(t.Sub(c.start)) / float64(time.Millisecond)
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) on a nil collector.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.counters[name]
	if !ok {
		ctr = &Counter{}
		c.counters[name] = ctr
	}
	return ctr
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a valid no-op gauge) on a nil collector.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.gauges[name]
	if !ok {
		g = &Gauge{}
		c.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a valid no-op histogram) on a nil collector.
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hists[name]
	if !ok {
		h = &Histogram{}
		c.hists[name] = h
	}
	return h
}

// SetSpanLimit bounds the retained span history and the retained
// generation history to roughly n records each: when one reaches the
// limit its oldest half is discarded, so a long-running process keeps
// recent spans and convergence records without unbounded growth.
// n <= 0 restores unbounded retention. Safe on a nil collector.
func (c *Collector) SetSpanLimit(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.spanLimit = n
	c.mu.Unlock()
}

// OnSpanEnd registers fn to be called with every subsequently finished
// span record. Callbacks run synchronously on the goroutine ending the
// span and must be fast and non-blocking. Safe on a nil collector.
func (c *Collector) OnSpanEnd(fn func(SpanRecord)) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	c.spanObservers = append(c.spanObservers, fn)
	c.mu.Unlock()
}

// RecordGeneration appends one convergence record, within the limit
// SetSpanLimit sets, and streams it to the JSONL output if one is set.
// Safe on a nil collector.
func (c *Collector) RecordGeneration(g Generation) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gens = append(makeRoom(c.gens, c.spanLimit), g)
	e := c.emitter
	c.mu.Unlock()
	e.emit(genEvent{Type: "generation", Generation: g})
}

// makeRoom readies a history bounded by limit (none when limit <= 0)
// for one more record: once the history holds limit records, the oldest
// half is dropped in one copy, so appends stay amortized O(1) and the
// most recent records survive.
func makeRoom[T any](h []T, limit int) []T {
	if limit > 0 && len(h) >= limit {
		n := copy(h, h[len(h)-limit/2:])
		h = h[:n]
	}
	return h
}

// Snapshot is a point-in-time copy of everything the collector holds.
type Snapshot struct {
	Counters    map[string]int64    `json:"counters,omitempty"`
	Gauges      map[string]float64  `json:"gauges,omitempty"`
	Histograms  map[string]HistStat `json:"histograms,omitempty"`
	Spans       []SpanRecord        `json:"spans,omitempty"`
	Generations []Generation        `json:"generations,omitempty"`
}

// Snapshot copies the current state (zero value on a nil collector).
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Counters:    make(map[string]int64, len(c.counters)),
		Gauges:      make(map[string]float64, len(c.gauges)),
		Histograms:  make(map[string]HistStat, len(c.hists)),
		Spans:       append([]SpanRecord(nil), c.spans...),
		Generations: append([]Generation(nil), c.gens...),
	}
	for name, ctr := range c.counters {
		s.Counters[name] = ctr.Value()
	}
	for name, g := range c.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range c.hists {
		s.Histograms[name] = h.Stat()
	}
	return s
}

// sortedKeys returns the map keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
