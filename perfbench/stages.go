package main

import (
	"fmt"
	"strings"
	"time"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/icl"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

// Stage names: the public function of each layer the replay times.
const (
	stageParse    = "icl.Parse"
	stageGenerate = "benchnets.GenerateEntry"
	stageSpec     = "spec.Generate"
	stageTree     = "sptree.Build"
	stageAnalyze  = "faults.Analyze"
	stageProblem  = "core.NewProblemWithObjectives"
)

// replayReps is how many times each stage call is replayed per input;
// the stage time is the median.
const replayReps = 3

// stageTimes maps a stage name to its median time (ms) on one input.
type stageTimes map[string]float64

// replayStages times, outside every timed pass, the calls one request
// makes into each layer on its way to the optimizer: load (ICL parse or
// benchnets generation), spec, SP tree, criticality and problem build.
// Each call is a span under one replay span per repetition.
func replayStages(t *tracer, in *input, specSeed int64, byName bool) (stageTimes, error) {
	samples := map[string][]float64{}
	for rep := 0; rep < replayReps; rep++ {
		reqID := fmt.Sprintf("replay/%s/%d", in.entry.Name, rep)
		root := t.newID()
		var (
			net  *rsn.Network
			sp   *spec.Spec
			tree *sptree.Tree
			a    *faults.Analysis
			err  error
		)
		step := func(name string, fn func() error) {
			if err != nil {
				return
			}
			d := t.time(name, reqID, root, func() { err = fn() })
			samples[name] = append(samples[name], ms(d))
		}
		start := t.at(time.Now())
		if byName {
			step(stageGenerate, func() (e error) { net, e = benchnets.GenerateEntry(in.entry); return })
		} else {
			step(stageParse, func() (e error) { net, e = icl.Parse(strings.NewReader(in.icl)); return })
		}
		step(stageSpec, func() (e error) { sp, e = spec.Generate(net, spec.PaperGenOptions(specSeed)); return })
		step(stageTree, func() (e error) { tree, e = sptree.Build(net); return })
		step(stageAnalyze, func() (e error) { a, e = faults.Analyze(net, tree, sp, faults.DefaultOptions()); return })
		step(stageProblem, func() (e error) { _, e = core.NewProblemWithObjectives(a, false, nil); return })
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", in.entry.Name, err)
		}
		t.add(span{ID: root, Name: spanReplay, ReqID: reqID, Start: start, End: t.at(time.Now())})
	}
	out := stageTimes{}
	for name, xs := range samples {
		out[name] = quantile(xs, 0.5)
	}
	return out, nil
}
