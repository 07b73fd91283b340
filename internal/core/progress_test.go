package core

import (
	"math"
	"testing"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/telemetry"
)

func TestOnProgressReportsPerRunState(t *testing.T) {
	var seen []telemetry.Generation
	opt := DefaultOptions(12, 3)
	opt.OnProgress = func(p Progress) bool {
		g := p.Record()
		if g.Gen != p.Gen || g.Evaluations != p.Evaluations || g.ElapsedMS != p.ElapsedMS {
			t.Errorf("gen %d: record %+v disagrees with its progress %+v", p.Gen, g, p)
		}
		seen = append(seen, g)
		return true
	}
	s := synthesizeExample(t, opt)
	if len(seen) != s.Generations {
		t.Fatalf("OnProgress fired %d times for %d generations", len(seen), s.Generations)
	}
	for i, p := range seen {
		if p.Gen != i {
			t.Errorf("report %d carries gen %d", i, p.Gen)
		}
		if p.Front <= 0 {
			t.Errorf("gen %d: front size %d", i, p.Front)
		}
		if p.NormHV < 0 || p.NormHV > 1 {
			t.Errorf("gen %d: normalized hypervolume %v outside [0,1]", i, p.NormHV)
		}
		if i > 0 && p.Evaluations < seen[i-1].Evaluations {
			t.Errorf("gen %d: evaluations decreased", i)
		}
	}
	// The final report agrees with the synthesis result's own exact
	// accounting — the whole point of the per-run hook.
	last := seen[len(seen)-1]
	if last.Evaluations != int64(s.Evaluations) {
		t.Errorf("final evaluations %d != synthesis %d", last.Evaluations, s.Evaluations)
	}
}

func TestOnProgressEarlyStopAndDeterminism(t *testing.T) {
	opt := DefaultOptions(50, 5)
	opt.OnProgress = func(p Progress) bool { return p.Gen < 4 }
	s := synthesizeExample(t, opt)
	if s.Generations != 5 {
		t.Errorf("stopped after %d generations, want 5", s.Generations)
	}

	// Attaching a pass-through OnProgress must not change the outcome.
	plain := synthesizeExample(t, DefaultOptions(20, 7))
	hooked := DefaultOptions(20, 7)
	hooked.OnProgress = func(p Progress) bool { return true }
	withHook := synthesizeExample(t, hooked)
	if len(plain.Front) != len(withHook.Front) {
		t.Fatalf("front size changed: %d vs %d", len(plain.Front), len(withHook.Front))
	}
	for i := range plain.Front {
		if plain.Front[i].Cost != withHook.Front[i].Cost || plain.Front[i].Damage != withHook.Front[i].Damage {
			t.Fatalf("front member %d differs with OnProgress attached", i)
		}
	}
}

// TestGenerationRecordsPerRun: runs that share one collector (every
// rsnserve job, rsnharden -seeds -jobs) each record their own
// evaluation counts. The regression: records were stamped with the
// collector-wide moea.evaluations counter, so a second TreeFlat run
// recorded 600…1000 evaluations while its OnProgress reported 100…500.
func TestGenerationRecordsPerRun(t *testing.T) {
	net, err := benchnets.Generate("TreeFlat")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	var runs [2][]telemetry.Generation
	for r := range runs {
		opt := DefaultOptions(5, int64(r+1))
		opt.Telemetry = tel
		opt.OnProgress = func(p Progress) bool {
			runs[r] = append(runs[r], p.Record())
			return true
		}
		if _, err := Synthesize(net, sp, opt); err != nil {
			t.Fatal(err)
		}
	}
	recs := tel.Snapshot().Generations
	if len(recs) != len(runs[0])+len(runs[1]) {
		t.Fatalf("collector holds %d generation records, want %d + %d", len(recs), len(runs[0]), len(runs[1]))
	}
	second := recs[len(runs[0]):]
	for i, p := range runs[1] {
		if second[i].Gen != p.Gen || second[i].Evaluations != p.Evaluations {
			t.Errorf("second run, record %d: gen %d with %d evaluations, OnProgress reported gen %d with %d",
				i, second[i].Gen, second[i].Evaluations, p.Gen, p.Evaluations)
		}
	}
}

// TestProgressMeasuresOnlyWhenRead: a generation's convergence record
// is measured, and so recorded in the collector, only for a reader —
// the user hook's Record, the Stagnation window, or, without a user
// hook, the collector itself.
func TestProgressMeasuresOnlyWhenRead(t *testing.T) {
	load := func(name string) (*rsn.Network, *spec.Spec) {
		net, err := benchnets.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Generate(net, spec.PaperGenOptions(1))
		if err != nil {
			t.Fatal(err)
		}
		return net, sp
	}
	net, sp := load("TreeFlat")
	run := func(gens int, tel *telemetry.Collector, hook func(Progress) bool) *Synthesis {
		opt := DefaultOptions(gens, 5)
		opt.Workers = 1
		opt.Telemetry = tel
		opt.OnProgress = hook
		s, err := Synthesize(net, sp, opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	silent := func(Progress) bool { return true }

	// A hook that reads nothing: no record, and no per-generation cost
	// over a bare run. The collector's spans and instruments are a
	// constant 56 allocations; measuring every generation would add
	// about 4.5 per generation, 540 over this run.
	tel := telemetry.New()
	run(40, tel, silent)
	if n := len(tel.Snapshot().Generations); n != 0 {
		t.Errorf("a hook that reads nothing left %d generation records", n)
	}
	bare := testing.AllocsPerRun(3, func() { run(120, nil, nil) })
	hooked := testing.AllocsPerRun(3, func() { run(120, telemetry.New(), silent) })
	if hooked > bare+100 {
		t.Errorf("collector and silent hook: %.0f allocations per 120-generation run, bare run %.0f; want within 100", hooked, bare)
	}

	// Every generation's record, from a reader of each, and from the
	// collector alone (no user hook: CLI -telemetry runs and table1).
	var all []telemetry.Generation
	run(40, nil, func(p Progress) bool {
		all = append(all, p.Record())
		return true
	})
	same := func(a, b telemetry.Generation) bool {
		return a.Gen == b.Gen && a.Front == b.Front && a.Evaluations == b.Evaluations &&
			math.Float64bits(a.Hypervolume) == math.Float64bits(b.Hypervolume) &&
			math.Float64bits(a.NormHV) == math.Float64bits(b.NormHV) &&
			math.Float64bits(a.BestDamage) == math.Float64bits(b.BestDamage) &&
			math.Float64bits(a.BestCost) == math.Float64bits(b.BestCost)
	}
	tel = telemetry.New()
	run(40, tel, nil)
	if recs := tel.Snapshot().Generations; len(recs) != len(all) {
		t.Errorf("collector without a hook holds %d records for %d generations", len(recs), len(all))
	} else {
		for i := range recs {
			if !same(recs[i], all[i]) {
				t.Errorf("collector record %d = %+v, reader got %+v", i, recs[i], all[i])
			}
		}
	}

	// A reader of every 7th generation: the collector holds exactly
	// those, bit-identical to the every-generation reader's, and a
	// second Record in the same callback returns the same record
	// without recording it twice.
	tel = telemetry.New()
	run(40, tel, func(p Progress) bool {
		if p.Gen%7 == 0 {
			if a, b := p.Record(), p.Record(); a != b {
				t.Errorf("gen %d: two Record calls disagree", p.Gen)
			}
		}
		return true
	})
	recs := tel.Snapshot().Generations
	if len(recs) != 6 {
		t.Fatalf("every-7th reader: collector holds %d records, want 6 (gens 0, 7, ..., 35)", len(recs))
	}
	for i, g := range recs {
		if g.Gen != 7*i || !same(g, all[7*i]) {
			t.Errorf("every-7th reader: record %d = %+v, want %+v", i, g, all[7*i])
		}
	}

	// Stagnation reads every generation, so a run with a silent hook
	// stops where it always has and records every generation.
	for _, c := range []struct {
		name      string
		seed      int64
		window    int
		wantGens  int
		wantEvals int
	}{
		{"TreeFlat", 3, 8, 165, 16500},
		{"q12710", 5, 8, 144, 14400},
	} {
		net, sp := load(c.name)
		opt := DefaultOptions(400, c.seed)
		opt.Stagnation = c.window
		opt.Telemetry = telemetry.New()
		opt.OnProgress = silent
		s, err := Synthesize(net, sp, opt)
		if err != nil {
			t.Fatal(err)
		}
		if s.Generations != c.wantGens || s.Evaluations != c.wantEvals {
			t.Errorf("%s seed %d stagnation %d: stopped after %d generations, %d evaluations; want %d, %d",
				c.name, c.seed, c.window, s.Generations, s.Evaluations, c.wantGens, c.wantEvals)
		}
		if n := len(opt.Telemetry.Snapshot().Generations); n != s.Generations {
			t.Errorf("%s: stagnation run recorded %d of %d generations", c.name, n, s.Generations)
		}
	}
}
