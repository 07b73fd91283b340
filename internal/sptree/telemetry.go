package sptree

import "rsnrobust/internal/telemetry"

// Publish records the structural shape of the decomposition tree as
// telemetry gauges: arena size, depth, and per-operation node counts.
// A nil collector is a no-op.
func (t *Tree) Publish(c *telemetry.Collector) {
	if c == nil {
		return
	}
	var leaves, series, parallel, empty int
	for i := range t.arena {
		switch t.arena[i].op {
		case OpLeaf:
			leaves++
		case OpSeries:
			series++
		case OpParallel:
			parallel++
		case OpEmpty:
			empty++
		}
	}
	c.Gauge("sptree.nodes").Set(float64(t.Size()))
	c.Gauge("sptree.depth").Set(float64(t.Depth()))
	c.Gauge("sptree.leaves").Set(float64(leaves))
	c.Gauge("sptree.series").Set(float64(series))
	c.Gauge("sptree.parallel").Set(float64(parallel))
	c.Gauge("sptree.empty").Set(float64(empty))
	c.Gauge("sptree.muxes").Set(float64(t.muxes))
}
