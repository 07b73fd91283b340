package core

import (
	"testing"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/telemetry"
)

func TestOnProgressReportsPerRunState(t *testing.T) {
	var seen []Progress
	opt := DefaultOptions(12, 3)
	opt.OnProgress = func(p Progress) bool {
		seen = append(seen, p)
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
	var runs [2][]Progress
	for r := range runs {
		opt := DefaultOptions(5, int64(r+1))
		opt.Telemetry = tel
		opt.OnProgress = func(p Progress) bool {
			runs[r] = append(runs[r], p)
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
