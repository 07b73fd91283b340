package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/core"
	"rsnrobust/internal/icl"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/telemetry"
)

// synthPassSeconds is the wall time of one pass over the synth_suite
// rows at HEAD on a 2-vCPU box; --seconds / synthPassSeconds passes
// make the run's fixed op count.
const synthPassSeconds = 3.5

// synthRows are the Table I rows up to 60k primitives, in table order;
// --short keeps two small ones.
func synthRows(short bool) []string {
	if short {
		return []string{"TreeFlat", "q12710"}
	}
	var rows []string
	for _, e := range benchnets.Table1 {
		if e.Segments+e.Muxes <= 60000 {
			rows = append(rows, e.Name)
		}
	}
	return rows
}

// synthOp is one core.Synthesize call of a pass and what it returned.
type synthOp struct {
	row, pass, gens    int
	lat                time.Duration
	front              []point
	damage10, cost10   *point
	maxCost, maxDamage int64
	interrupted        bool
	err                error
	counters           map[string]int64 // traced pass: the op's collector counters
}

// synthRun is one set-up plus timed pass of synth_suite.
type synthRun struct {
	pass   *pass
	setups []time.Duration
	ops    []synthOp
	digest string
}

// runSynthSuite runs synth_suite: one caller, core.Synthesize back to
// back over the rows, every pass repeating the same inputs.
func runSynthSuite(o options) (*report, error) {
	rows := synthRows(o.short)
	specSeed := mix(o.seed, 1)
	ins := make([]*input, len(rows))
	for i, name := range rows {
		var err error
		if ins[i], err = loadInput(name, specSeed, false); err != nil {
			return nil, err
		}
	}
	passes := max(2, int(math.Round(float64(o.seconds)/synthPassSeconds)))
	if o.short {
		passes = 2
	}
	rep := &report{workload: "synth_suite", seed: o.seed}
	untraced, err := synthPass(o, ins, specSeed, passes, nil, rep)
	if err != nil {
		return nil, err
	}
	rep.digest = untraced.digest
	rep.lines = classLines(untraced.pass)
	if !o.trace {
		rep.metrics = endToEnd(untraced.setups, untraced.pass)
		return rep, nil
	}

	tr := newTracer()
	traced, err := synthPass(o, ins, specSeed, passes, tr, rep)
	if err != nil {
		return nil, err
	}
	if traced.digest != untraced.digest {
		rep.fail("traced pass", fmt.Errorf("digest %s differs from untraced %s", traced.digest, untraced.digest))
	}
	stages := make([]stageTimes, len(ins))
	for i, in := range ins {
		if stages[i], err = replayStages(tr, in, specSeed, false); err != nil {
			return nil, err
		}
	}
	ls := layerSet{}
	var parse, specT, tree, analyze, problem []float64
	for _, st := range stages {
		parse = append(parse, st[stageParse])
		specT = append(specT, st[stageSpec])
		tree = append(tree, st[stageTree])
		analyze = append(analyze, st[stageAnalyze])
		problem = append(problem, st[stageProblem])
	}
	ls.set("icl.parse_ms", mean(parse), len(parse))
	ls.set("spec.generate_ms", mean(specT), len(specT))
	ls.set("sptree.build_ms", mean(tree), len(tree))
	ls.set("faults.analyze_ms", mean(analyze), len(analyze))
	ls.set("core.problem_ms", mean(problem), len(problem))
	// The search is what the untraced Synthesize call spent beyond the
	// three replayed stages: SPEA-2 plus front extraction.
	var search, perGen []float64
	for _, op := range untraced.ops {
		st := stages[op.row]
		s := ms(op.lat) - st[stageTree] - st[stageAnalyze] - st[stageProblem]
		search = append(search, s)
		perGen = append(perGen, s/float64(op.gens))
	}
	ls.set("moea.search_ms", mean(search), len(search))
	ls.set("moea.ms_per_gen", mean(perGen), len(perGen))
	counters := map[string]int64{}
	for _, op := range traced.ops {
		for k, v := range op.counters {
			counters[k] += v
		}
	}
	setMoeaCounters(ls, counters, len(traced.ops))
	ls.setAll(runtimeMetrics(untraced.pass))
	ls.setAll(overheadMetrics(untraced.pass, traced.pass))
	rep.metrics = ls.list()
	return rep, tr.write(o.spans)
}

// setMoeaCounters derives the search-effort metrics from the moea
// counters, read by name; an absent counter leaves its metric n/a.
func setMoeaCounters(ls layerSet, c map[string]int64, jobs int) {
	evals, ok := c["moea.evaluations"]
	if ok && jobs > 0 {
		ls.set("moea.evaluations", float64(evals)/float64(jobs), jobs)
	}
	if delta, ok2 := c["moea.delta.evaluations"]; ok && ok2 && evals > 0 {
		ls.set("moea.delta_share", float64(delta)/float64(evals), jobs)
	}
	hits, ok := c["moea.memo.hits"]
	misses, ok2 := c["moea.memo.misses"]
	if ok && ok2 && hits+misses > 0 {
		ls.set("moea.memo_hit_ratio", float64(hits)/float64(hits+misses), jobs)
	}
}

// synthSetup is synth_suite's set-up: parse every row's ICL and build
// its spec, then one warm-up synthesis on an input outside the
// measured set (the first row under another spec seed).
func synthSetup(ins []*input, specSeed int64) ([]*rsn.Network, []*spec.Spec, error) {
	nets := make([]*rsn.Network, len(ins))
	specs := make([]*spec.Spec, len(ins))
	for i, in := range ins {
		net, err := icl.Parse(strings.NewReader(in.icl))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", in.entry.Name, err)
		}
		if specs[i], err = spec.Generate(net, spec.PaperGenOptions(specSeed)); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", in.entry.Name, err)
		}
		nets[i] = net
	}
	warm, err := icl.Parse(strings.NewReader(ins[0].icl))
	if err != nil {
		return nil, nil, err
	}
	wsp, err := spec.Generate(warm, spec.PaperGenOptions(specSeed+1))
	if err != nil {
		return nil, nil, err
	}
	if _, err := core.Synthesize(warm, wsp, core.DefaultOptions(quickBudget(ins[0].entry), specSeed+1)); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return nets, specs, nil
}

// synthPass sets up (setupRepeats times, keeping the last; once when
// traced) and runs one timed pass. With a tracer, every op is a span
// and gets its own telemetry collector. Checks run after the timed
// region and land in rep.
func synthPass(o options, ins []*input, specSeed int64, passes int, tr *tracer, rep *report) (*synthRun, error) {
	run := &synthRun{pass: &pass{}}
	var nets []*rsn.Network
	var specs []*spec.Spec
	for k := 0; k < setupCount(tr); k++ {
		t0 := time.Now()
		var err error
		if nets, specs, err = synthSetup(ins, specSeed); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(t0))
	}

	ops := make([]synthOp, 0, passes*len(ins))
	reg := startRegion()
	for p := 0; p < passes; p++ {
		for i, in := range ins {
			opt := core.DefaultOptions(quickBudget(in.entry), mix(o.seed, 2, uint64(i)))
			if o.short {
				opt.Generations = 10
			}
			op := synthOp{row: i, pass: p, gens: opt.Generations}
			var tel *telemetry.Collector
			if tr != nil {
				tel = telemetry.New()
				opt.Telemetry = tel
			}
			t0 := time.Now()
			s, err := core.Synthesize(nets[i], specs[i], opt)
			t1 := time.Now()
			op.lat = t1.Sub(t0)
			if tr != nil {
				tr.add(span{Name: spanClient, ReqID: fmt.Sprintf("%s/%d", in.entry.Name, p), Start: tr.at(t0), End: tr.at(t1)})
			}
			op.err = err
			if err == nil {
				op.maxCost, op.maxDamage, op.interrupted = s.MaxCost, s.MaxDamage, s.Interrupted
				op.front = make([]point, len(s.Front))
				for k, sol := range s.Front {
					op.front[k] = solutionPoint(sol)
				}
				if sol, ok := s.MinCostWithDamageAtMost(0.10); ok {
					pt := solutionPoint(sol)
					op.damage10 = &pt
				}
				if sol, ok := s.MinDamageWithCostAtMost(0.10); ok {
					pt := solutionPoint(sol)
					op.cost10 = &pt
				}
			}
			if tel != nil {
				op.counters = tel.Snapshot().Counters
			}
			ops = append(ops, op)
		}
	}
	run.pass.rr = reg.end()
	run.pass.ops = len(ops)
	run.ops = ops

	// Latencies are each row's best op time over the passes, then
	// percentiles over the rows. The passes repeat identical work, and
	// CPU steal from other tenants of a shared host (30-40 % of vCPU
	// time in bursts on a 2-vCPU VM) only ever adds time, so the best
	// pass is the row's cost.
	best := make([]float64, len(ins))
	for _, op := range ops {
		if v := ms(op.lat); op.pass == 0 || v < best[op.row] {
			best[op.row] = v
		}
	}
	run.pass.lat, run.pass.latN = best, len(ops)

	d := newDigest()
	for _, op := range ops {
		name := ins[op.row].entry.Name
		id := fmt.Sprintf("%s/%d", name, op.pass)
		run.pass.observe("synth", name, op.lat)
		rep.attempted++
		if err := checkSynthOp(op, ins[op.row].ref, ops); err != nil {
			rep.fail(id, err)
			continue
		}
		if hv, ok := ins[op.row].ref.hvRatio(op.front); ok {
			run.pass.hv = append(run.pass.hv, hv)
		}
		d.add(id, op.front)
	}
	run.digest = d.sum()
	return run, nil
}

// checkSynthOp verifies one synthesis: no error or interruption, the
// reference totals, the front and picks, and — for a repeat — the same
// front as the row's first pass.
func checkSynthOp(op synthOp, ref *reference, ops []synthOp) error {
	switch {
	case op.err != nil:
		return op.err
	case op.interrupted:
		return fmt.Errorf("interrupted")
	case op.maxCost != ref.maxCost || op.maxDamage != ref.totalDamage:
		return fmt.Errorf("max cost/damage %d/%d, reference %d/%d", op.maxCost, op.maxDamage, ref.maxCost, ref.totalDamage)
	}
	if err := checkFront(op.front, op.maxCost, op.maxDamage); err != nil {
		return err
	}
	if err := checkPicks(op.front, op.damage10, op.cost10, op.maxCost, op.maxDamage); err != nil {
		return err
	}
	if op.pass > 0 {
		first := ops[op.row]
		if !slices.Equal(first.front, op.front) {
			return fmt.Errorf("front differs from pass 0's")
		}
	}
	return nil
}

func solutionPoint(sol core.Solution) point {
	return point{Cost: sol.Cost, Damage: sol.Damage, Hardened: len(sol.Hardened), CriticalCovered: sol.CriticalCovered}
}

// fail records one failed op.
func (r *report) fail(id string, err error) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("%s: %v", id, err))
}
