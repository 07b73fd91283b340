package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q in [0, 1]); NaN-free, 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// region measures the process around a timed region: wall time, CPU
// time, heap in use sampled every heapSampleEvery, and runtime/metrics
// deltas.
type region struct {
	start time.Time
	cpu0  time.Duration
	rt0   []metrics.Sample
	stop  chan struct{}
	done  sync.WaitGroup
	heap  []heapSample
}

type heapSample struct {
	at    time.Time
	bytes uint64
	first bool // the first sample of a region
}

// regionResult is what a region measured.
type regionResult struct {
	wall       time.Duration
	cpu        time.Duration
	heap       []heapSample
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

// heapMean is the time-weighted mean heap in use: each sample holds
// until the next (never across the gap between two regions), so ticks
// the sampler missed on a busy box do not bias it.
func (rr *regionResult) heapMean() float64 {
	var sum, span float64
	for i := 0; i+1 < len(rr.heap); i++ {
		if rr.heap[i+1].first {
			continue
		}
		dt := float64(rr.heap[i+1].at.Sub(rr.heap[i].at))
		sum += float64(rr.heap[i].bytes) * dt
		span += dt
	}
	if span == 0 {
		return float64(rr.heap[0].bytes)
	}
	return sum / span
}

// add accumulates another timed region into rr.
func (rr *regionResult) add(o regionResult) {
	rr.wall += o.wall
	rr.cpu += o.cpu
	rr.heap = append(rr.heap, o.heap...)
	rr.allocBytes += o.allocBytes
	rr.gcCPU += o.gcCPU
	rr.totalCPU += o.totalCPU
}

func (rr *regionResult) heapPeak() uint64 {
	var p uint64
	for _, h := range rr.heap {
		p = max(p, h.bytes)
	}
	return p
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

const heapName = "/memory/classes/heap/objects:bytes"

// heapSampleEvery is the heap sampling period.
const heapSampleEvery = 5 * time.Millisecond

// startRegion forces a GC, then starts the clocks and the heap sampler.
func startRegion() *region {
	runtime.GC()
	runtime.GC()
	r := &region{stop: make(chan struct{})}
	r.rt0 = readRuntime()
	h := heapNow(time.Now())
	h.first = true
	r.heap = append(r.heap, h)
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.heap = append(r.heap, heapNow(time.Now()))
			}
		}
	}()
	r.cpu0 = processCPU()
	r.start = time.Now()
	return r
}

// end stops the region and returns its measurements.
func (r *region) end() regionResult {
	wall := time.Since(r.start)
	cpu := processCPU() - r.cpu0
	close(r.stop)
	r.done.Wait()
	r.heap = append(r.heap, heapNow(time.Now()))
	rt1 := readRuntime()
	return regionResult{
		wall:       wall,
		cpu:        cpu,
		heap:       r.heap,
		allocBytes: rt1[0].Value.Uint64() - r.rt0[0].Value.Uint64(),
		gcCPU:      rt1[1].Value.Float64() - r.rt0[1].Value.Float64(),
		totalCPU:   rt1[2].Value.Float64() - r.rt0[2].Value.Float64(),
	}
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func heapNow(at time.Time) heapSample {
	s := []metrics.Sample{{Name: heapName}}
	metrics.Read(s)
	return heapSample{at: at, bytes: s[0].Value.Uint64()}
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
