// Command perfbench is the repository's end-to-end benchmark. It drives
// the synthesis pipeline through its public entry points — core.Synthesize,
// serve.New(cfg).Handler() and fleet.New(cfg).Handler() on loopback
// listeners inside this one process — checks every output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// one JSON object on the last line of standard output.
//
//	perfbench --workload serve_mix --seed 1 --seconds 15 --trace 0
//
// See README.md for why each workload exists, what it leaves out, and
// how every metric is defined.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// short shrinks every workload to tiny inputs and a few ops; the
	// self-tests use it.
	short bool
	// spans is where the traced run writes its span log, under the
	// checkout's .bench_build/.
	spans string
	// tamper alters HTTP responses before the checks (self-tests only).
	tamper func(*httpOp, *httpRes)
}

// metric is one named, united figure with the number of samples behind
// it. na marks a metric the workload does not exercise, or whose
// program counter is absent; it prints as n/a and as 0 in the JSON.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	na    bool
}

// report is everything one invocation prints.
type report struct {
	workload  string
	why       string
	seed      int64
	attempted int
	failed    int
	failures  []string
	digest    string
	metrics   []metric
	lines     []string // per-class detail printed above the metrics
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: synth_suite, serve_mix or fleet_mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the program sees only inputs generated from it")
	fs.IntVar(&o.seconds, "seconds", 15, "nominal run length; sets the fixed op count of the run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "tiny inputs and few ops (self-tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	o.spans = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", o.workload, o.seed)
	w, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, names)
		return 2
	}
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.why = w.why
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// workload is one traffic mix. why records the reason it exists.
type workload struct {
	why string
	run func(options) (*report, error)
}

var workloads = map[string]workload{
	"synth_suite": {
		why: "library batch over the Table I rows up to 60k primitives: search and extraction with no HTTP",
		run: runSynthSuite,
	},
	"serve_mix": {
		why: "one rsnserve server: network load and analysis, result cache, SSE, no fleet",
		run: func(o options) (*report, error) { return runHTTPMix(o, false) },
	},
	"fleet_mix": {
		why: "coordinator over two workers: checkpoint relay, L1 and affinity routing",
		run: func(o options) (*report, error) { return runHTTPMix(o, true) },
	},
}

// write prints the human-readable report and, last, the JSON result
// line.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d: %s\n", r.workload, r.seed, r.why)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	fmt.Fprintf(w, "digest %s\n", r.digest)
	fmt.Fprintf(w, "ops attempted %d failed %d fail_ratio %.4f\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.metrics))
	for _, m := range r.metrics {
		if m.na {
			fmt.Fprintf(w, "metric %-40s n/a %s\n", m.name, m.unit)
			ms[m.name] = jm{0, m.unit}
			continue
		}
		fmt.Fprintf(w, "metric %-40s %.6g %s (n=%d)\n", m.name, m.value, m.unit, m.n)
		ms[m.name] = jm{m.value, m.unit}
	}
	if r.attempted < 1 {
		return errors.New("no ops attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
