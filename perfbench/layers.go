package main

// classes are the request classes of the HTTP workloads.
var classes = []string{"analyze_icl", "analyze_named", "harden", "harden_stream", "harden_repeat"}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayer is the full per-layer metric list every traced run prints,
// in this order; a workload that does not exercise a layer prints n/a.
var perLayer = func() []layerMetric {
	l := []layerMetric{
		{"icl.parse_ms", "ms"},
		{"benchnets.generate_ms", "ms"},
		{"spec.generate_ms", "ms"},
		{"sptree.build_ms", "ms"},
		{"faults.analyze_ms", "ms"},
		{"core.problem_ms", "ms"},
		{"moea.search_ms", "ms"},
		{"moea.ms_per_gen", "ms"},
		{"moea.evaluations", "count"},
		{"moea.delta_share", "ratio"},
		{"moea.memo_hit_ratio", "ratio"},
	}
	for _, kind := range []string{"handler_ms", "job_ms", "edge_ms"} {
		for _, c := range classes {
			l = append(l, layerMetric{"serve." + kind + "." + c + ".p50", "ms"})
		}
	}
	l = append(l, layerMetric{"serve.cache_hit_ratio", "ratio"})
	for _, c := range classes {
		l = append(l, layerMetric{"serve.response_kb." + c, "KB"})
	}
	l = append(l, layerMetric{"serve.sse_events_per_stream", "count"})
	for _, c := range classes {
		l = append(l, layerMetric{"fleet.hop_ms." + c + ".p50", "ms"})
	}
	l = append(l,
		layerMetric{"fleet.stream_mb_per_job", "MB"},
		layerMetric{"fleet.ckpt_events_per_job", "count"},
		layerMetric{"fleet.ckpt_mb_per_job", "MB"},
		layerMetric{"fleet.l1_hit_ratio", "ratio"},
		layerMetric{"fleet.affinity_share", "ratio"},
		layerMetric{"fleet.dispatches_per_miss", "count"},
		layerMetric{"fleet.retries", "count"},
		layerMetric{"fleet.migrations", "count"},
		layerMetric{"runtime.alloc_mb_per_op", "MB"},
		layerMetric{"runtime.gc_cpu_share", "ratio"},
		layerMetric{"trace.overhead_ms_per_op", "ms"},
		layerMetric{"trace.overhead_cpu_ms_per_op", "ms"},
	)
	return l
}()

// layerSet collects measured per-layer values by name.
type layerSet map[string]metric

func (s layerSet) set(name string, value float64, n int) {
	s[name] = metric{name: name, value: value, n: n}
}

// setAll records already-built metrics.
func (s layerSet) setAll(ms []metric) {
	for _, m := range ms {
		s[m.name] = m
	}
}

// list renders the canonical per-layer list: every name in order,
// n/a where the workload measured nothing.
func (s layerSet) list() []metric {
	out := make([]metric, 0, len(perLayer))
	for _, l := range perLayer {
		m, ok := s[l.name]
		if !ok {
			m = metric{name: l.name, na: true}
		}
		m.unit = l.unit
		out = append(out, m)
	}
	return out
}
