package telemetry

import (
	"math"
	"runtime/metrics"
)

// procSamples are the runtime/metrics series the process self-metrics
// sample, paired with the gauge each lands in. Scalars map directly;
// the two histogram series are summarized into p50/p99 gauges below.
var procSamples = []struct {
	metric string
	gauge  string
}{
	{"/sched/goroutines:goroutines", "proc.goroutines"},
	{"/memory/classes/heap/objects:bytes", "proc.heap_bytes"},
	{"/memory/classes/total:bytes", "proc.mem_total_bytes"},
	{"/gc/cycles/total:gc-cycles", "proc.gc_cycles"},
	{"/gc/pauses:seconds", ""},       // histogram, handled below
	{"/sched/latencies:seconds", ""}, // histogram, handled below
}

// SampleProcessMetrics reads the Go runtime's own telemetry — heap
// size, goroutine count, GC cycles and pauses, scheduler latency — and
// publishes it as gauges on the collector, so the process health shows
// up in the same /metrics exposition as the service instruments.
// Histogram-valued series are summarized as p50/p99 upper bounds in
// milliseconds (bucket upper bounds, like the Histogram quantiles).
// Safe on a nil collector. Call it per scrape; a read costs
// microseconds.
func SampleProcessMetrics(c *Collector) {
	if c == nil {
		return
	}
	samples := make([]metrics.Sample, len(procSamples))
	for i := range procSamples {
		samples[i].Name = procSamples[i].metric
	}
	metrics.Read(samples)
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			c.Gauge(procSamples[i].gauge).Set(float64(s.Value.Uint64()))
		case metrics.KindFloat64:
			c.Gauge(procSamples[i].gauge).Set(s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			var base string
			switch s.Name {
			case "/gc/pauses:seconds":
				base = "proc.gc_pause"
			case "/sched/latencies:seconds":
				base = "proc.sched_latency"
			default:
				continue
			}
			c.Gauge(base + "_p50_ms").Set(histQuantileMS(h, 0.50))
			c.Gauge(base + "_p99_ms").Set(histQuantileMS(h, 0.99))
		}
	}
}

// histQuantileMS returns the upper bound (in milliseconds) of the
// bucket where the cumulative count of a runtime seconds-histogram
// crosses q; 0 when the histogram is empty.
func histQuantileMS(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	need := uint64(q * float64(total))
	if need < 1 {
		need = 1
	}
	var cum uint64
	for i, n := range h.Counts {
		cum += n
		if cum >= need {
			// Bucket i spans Buckets[i]..Buckets[i+1]; the upper edge
			// may be +Inf on the last bucket — fall back to its lower
			// edge then.
			upper := h.Buckets[i+1]
			if math.IsInf(upper, 1) || math.IsNaN(upper) {
				upper = h.Buckets[i]
			}
			return upper * 1000
		}
	}
	return h.Buckets[len(h.Buckets)-1] * 1000
}
