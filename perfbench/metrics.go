package main

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its set-up; setup_s is
// the median.
const setupRepeats = 7

// setupCount is setupRepeats for the pass that reports setup_s, and
// one for a traced pass, which does not.
func setupCount(tr *tracer) int {
	if tr != nil {
		return 1
	}
	return setupRepeats
}

// pass is one timed pass over a workload's fixed op list.
type pass struct {
	rr regionResult
	// lat holds the latency samples (ms) behind latency_ms.*, latN the
	// ops behind them (len(lat) when 0); hit holds the repeats'
	// latencies; hv one hypervolume ratio per checked front where the
	// exact reference is tractable.
	lat, hit, hv []float64
	latN         int
	ops          int
	// byClass groups latencies (ms) by "<class> <input>" for the
	// per-class detail lines.
	byClass map[string][]float64
}

// endToEnd is the end-to-end metric set every workload prints.
func endToEnd(setups []time.Duration, p *pass) []metric {
	ops := float64(p.ops)
	hvMin := 0.0
	if len(p.hv) > 0 {
		hvMin = slices.Min(p.hv)
	}
	latN := p.latN
	if latN == 0 {
		latN = len(p.lat)
	}
	return []metric{
		{name: "setup_s", unit: "s", value: medianDuration(setups).Seconds(), n: len(setups)},
		{name: "ops_per_s", unit: "op/s", value: ops / p.rr.wall.Seconds(), n: p.ops},
		{name: "latency_ms.p50", unit: "ms", value: quantile(p.lat, 0.50), n: latN},
		{name: "latency_ms.p90", unit: "ms", value: quantile(p.lat, 0.90), n: latN},
		{name: "hv_ratio.min", unit: "ratio", value: hvMin, n: len(p.hv), na: len(p.hv) == 0},
		{name: "hv_ratio.mean", unit: "ratio", value: mean(p.hv), n: len(p.hv), na: len(p.hv) == 0},
		{name: "cpu_ms_per_op", unit: "ms", value: ms(p.rr.cpu) / ops, n: p.ops},
		{name: "heap_mb.mean", unit: "MB", value: p.rr.heapMean() / 1e6, n: len(p.rr.heap)},
	}
}

// runtimeMetrics are the per-layer figures of the Go runtime over a
// timed pass.
func runtimeMetrics(p *pass) []metric {
	return []metric{
		{name: "runtime.alloc_mb_per_op", unit: "MB", value: float64(p.rr.allocBytes) / 1e6 / float64(p.ops), n: p.ops},
		{name: "runtime.gc_cpu_share", unit: "ratio", value: ratio(p.rr.gcCPU, p.rr.totalCPU), n: 1},
	}
}

// overheadMetrics compare the traced pass with the untraced one.
func overheadMetrics(untraced, traced *pass) []metric {
	perOp := func(p *pass) float64 { return ms(p.rr.wall) / float64(p.ops) }
	cpuPerOp := func(p *pass) float64 { return ms(p.rr.cpu) / float64(p.ops) }
	return []metric{
		{name: "trace.overhead_ms_per_op", unit: "ms", value: perOp(traced) - perOp(untraced), n: traced.ops},
		{name: "trace.overhead_cpu_ms_per_op", unit: "ms", value: cpuPerOp(traced) - cpuPerOp(untraced), n: traced.ops},
	}
}

// classLines renders the per-class latency detail of a pass and its
// heap, whose peak is printed for reference only: it swings with GC
// timing (on synth_suite between about 130 and 205 MB at identical
// inputs), so the gated figure is the mean.
func classLines(p *pass) []string {
	keys := make([]string, 0, len(p.byClass))
	for k := range p.byClass {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys)+1)
	for _, k := range keys {
		xs := p.byClass[k]
		out = append(out, fmt.Sprintf("class %-36s n=%-4d p50=%9.1fms p90=%9.1fms", k, len(xs), quantile(xs, 0.5), quantile(xs, 0.9)))
	}
	out = append(out, fmt.Sprintf("heap mean %.1f MB, peak %.1f MB (%d samples)", p.rr.heapMean()/1e6, float64(p.rr.heapPeak())/1e6, len(p.rr.heap)))
	if len(p.hit) > 0 {
		out = append(out, fmt.Sprintf("hit_latency_ms.p50 %.3f ms (n=%d), printed only: a cache hit's 0.2-0.6 ms is mostly vCPU wake-up time on a shared host", quantile(p.hit, 0.5), len(p.hit)))
	}
	return out
}

// observe files one op's latency under its class and input.
func (p *pass) observe(class, input string, lat time.Duration) {
	if p.byClass == nil {
		p.byClass = map[string][]float64{}
	}
	p.byClass[class+" "+input] = append(p.byClass[class+" "+input], ms(lat))
}
