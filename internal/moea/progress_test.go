package moea

import (
	"context"
	"testing"

	"rsnrobust/internal/telemetry"
)

func TestOnProgressExactAccounting(t *testing.T) {
	p := newKnapsack(29, 20)
	var seen []Progress
	par := Params{
		Population: 20, Generations: 6, PCrossover: 0.95, PMutateBit: 0.01, Seed: 11,
		OnProgress: func(pr Progress) bool {
			if len(pr.Front()) == 0 {
				t.Errorf("gen %d: empty front in OnProgress", pr.Gen)
			}
			seen = append(seen, pr)
			return true
		},
	}
	res, err := SPEA2(p, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("OnProgress called %d times, want 6", len(seen))
	}
	for i, pr := range seen {
		if pr.Gen != i {
			t.Errorf("call %d reported gen %d", i, pr.Gen)
		}
		if i > 0 && pr.Evaluations < seen[i-1].Evaluations {
			t.Errorf("gen %d: evaluations went backwards (%d < %d)", i, pr.Evaluations, seen[i-1].Evaluations)
		}
	}
	last := seen[len(seen)-1]
	// The final report matches the run's own exact accounting.
	if last.Evaluations != res.Evaluations {
		t.Errorf("final progress evaluations %d != result %d", last.Evaluations, res.Evaluations)
	}
}

func TestOnProgressEarlyStop(t *testing.T) {
	p := newKnapsack(31, 20)
	calls := 0
	par := Params{
		Population: 20, Generations: 100, PCrossover: 0.95, PMutateBit: 0.01, Seed: 13,
		OnProgress: func(pr Progress) bool {
			calls++
			return pr.Gen < 3
		},
	}
	res, err := NSGA2(p, par)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 4 || calls != 4 {
		t.Errorf("generations=%d calls=%d, want 4/4", res.Generations, calls)
	}
}

func TestOnProgressDoesNotPerturbDeterminism(t *testing.T) {
	p := newKnapsack(41, 25)
	base := Params{Population: 30, Generations: 15, PCrossover: 0.95, PMutateBit: 0.01, Seed: 19}
	plain, err := SPEA2(p, base)
	if err != nil {
		t.Fatal(err)
	}
	hooked := base
	hooked.OnProgress = func(pr Progress) bool {
		pr.Front()
		return true
	}
	withHook, err := SPEA2(p, hooked)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Front) != len(withHook.Front) {
		t.Fatalf("front size changed under OnProgress: %d vs %d", len(plain.Front), len(withHook.Front))
	}
	for i := range plain.Front {
		if !equalObjectives(plain.Front[i].Obj, withHook.Front[i].Obj) {
			t.Fatalf("front member %d differs when OnProgress is attached", i)
		}
	}
}

// TestProgressFrontIsLazy: Progress.Front filters the live population
// once per generation, on demand. Its final read equals the run's own
// front for single-population and island runs of both algorithms (so
// the hook sees what the result extraction sees), a second read in the
// same callback returns the same slice, and a Progress kept past its
// callback reads nil.
func TestProgressFrontIsLazy(t *testing.T) {
	p := newKnapsack(43, 40)
	for _, algo := range []string{"spea2", "nsga2"} {
		for _, islands := range []int{1, 3} {
			par := Params{Population: 30, Generations: 12, PCrossover: 0.95, PMutateBit: 0.02,
				Seed: 5, Islands: islands, MigrationEvery: 4}
			var last []Individual
			var kept Progress
			par.OnProgress = func(pr Progress) bool {
				if pr.Gen%3 != 2 && pr.Gen != par.Generations-1 {
					return true // most generations read nothing
				}
				f := pr.Front()
				if g := pr.Front(); len(g) != len(f) || (len(f) > 0 && &g[0] != &f[0]) {
					t.Errorf("%s islands=%d gen %d: second Front call refiltered", algo, islands, pr.Gen)
				}
				last = last[:0]
				for _, ind := range f {
					last = append(last, Individual{Obj: append([]float64(nil), ind.Obj...)})
				}
				kept = pr
				return true
			}
			res := runAlgo(t, algo, p, par)
			if len(last) != len(res.Front) {
				t.Fatalf("%s islands=%d: final hook front has %d members, result %d", algo, islands, len(last), len(res.Front))
			}
			for i := range last {
				if !equalObjectives(last[i].Obj, res.Front[i].Obj) {
					t.Errorf("%s islands=%d: final hook front member %d differs from the result's", algo, islands, i)
				}
			}
			if f := kept.Front(); f != nil {
				t.Errorf("%s islands=%d: a Progress kept past its callback reads %d members", algo, islands, len(f))
			}
		}
	}
}

func TestRunSetRootSpanCarriesRequestTrace(t *testing.T) {
	tel := telemetry.New()
	tc := telemetry.NewTraceContext()
	ctx := telemetry.WithTrace(context.Background(), tc)

	rs := NewRunSet[int]()
	rs.Add("a", func(ctx context.Context, sp *telemetry.Span) (int, error) {
		sp.Child("inner").End()
		return 1, nil
	})
	if err := rs.Run(ctx, RunOptions{Workers: 1, Telemetry: tel}, func(int, string, int, error) {}); err != nil {
		t.Fatal(err)
	}
	spans := tel.Snapshot().Spans
	if len(spans) != 3 { // inner, job:a, runset
		t.Fatalf("got %d spans", len(spans))
	}
	for _, sp := range spans {
		if sp.TraceID != tc.TraceID {
			t.Errorf("span %q trace = %q, want request trace %q", sp.Name, sp.TraceID, tc.TraceID)
		}
	}
}

func TestRunSetUntracedContextLeavesSpansUntraced(t *testing.T) {
	tel := telemetry.New()
	rs := NewRunSet[int]()
	rs.Add("a", func(ctx context.Context, sp *telemetry.Span) (int, error) { return 1, nil })
	if err := rs.Run(context.Background(), RunOptions{Workers: 1, Telemetry: tel}, func(int, string, int, error) {}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tel.Snapshot().Spans {
		if sp.TraceID != "" {
			t.Errorf("span %q unexpectedly traced: %q", sp.Name, sp.TraceID)
		}
	}
}
