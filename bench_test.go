// Package rsnrobust_test benchmarks the full reproduction pipeline.
//
// One benchmark per Table I row regenerates that row's experiment
// (network reconstruction, randomized specification, criticality
// analysis, SPEA-2 hardening, constrained picks) at a reduced
// evolutionary budget — the full-budget harness is `go run ./cmd/table1`.
// Additional groups isolate the scalability of the criticality analysis
// (the paper's column 11 claim), the per-operation costs of the
// evolutionary kernel, the optimizer ablation, and the access
// simulator.
package rsnrobust_test

import (
	"fmt"
	"testing"

	"rsnrobust/internal/access"
	"rsnrobust/internal/baseline"
	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/fixture"
	"rsnrobust/internal/ftrsn"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/rsntest"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
	"rsnrobust/internal/yield"
)

// benchGenerations keeps testing.B runs short; cmd/table1 uses the
// paper's budgets (Table I column 6).
const benchGenerations = 20

// BenchmarkTable1 regenerates every Table I row end to end. Rows above
// 200k primitives are benchmarked in BenchmarkTable1Giant.
func BenchmarkTable1(b *testing.B) {
	for _, e := range benchnets.Table1 {
		if e.Segments+e.Muxes > 200000 {
			continue
		}
		e := e
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runRow(b, e, benchGenerations)
			}
		})
	}
}

// BenchmarkTable1Giant covers the two largest rows at a minimal
// evolutionary budget; network construction and analysis dominate.
func BenchmarkTable1Giant(b *testing.B) {
	for _, name := range []string{"MBIST_5_100_100", "MBIST_100_100_5"} {
		e, _ := benchnets.Lookup(name)
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runRow(b, e, 3)
			}
		})
	}
}

func runRow(b *testing.B, e benchnets.Entry, gens int) {
	b.Helper()
	net, err := benchnets.GenerateEntry(e)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(42))
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Synthesize(net, sp, core.DefaultOptions(gens, 42))
	if err != nil {
		b.Fatal(err)
	}
	if len(s.Front) == 0 {
		b.Fatal("empty front")
	}
}

// BenchmarkCriticalityAnalysis isolates the exact analysis of Section IV
// (decomposition tree + per-primitive damage): the paper's scalability
// claim is that this part grows linearly with the RSN size.
func BenchmarkCriticalityAnalysis(b *testing.B) {
	for _, name := range []string{"TreeBalanced", "p22810", "p93791", "MBIST_2_20_20", "MBIST_5_20_20", "MBIST_20_20_20", "MBIST_100_100_5"} {
		e, _ := benchnets.Lookup(name)
		net, err := benchnets.GenerateEntry(e)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := spec.Generate(net, spec.PaperGenOptions(1))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s_prims=%d", name, e.Segments+e.Muxes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree, err := sptree.Build(net)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := faults.Analyze(net, tree, sp, faults.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeBuild isolates the series-parallel decomposition.
func BenchmarkTreeBuild(b *testing.B) {
	for _, name := range []string{"p93791", "MBIST_5_20_20"} {
		net, err := benchnets.Generate(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sptree.Build(net); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// evalRows are the problems the evaluation benchmarks time: three
// synth_suite rows, the harden rows of perfbench's serve_mix and
// fleet_mix, and one four-objective problem.
var evalRows = []struct {
	name       string
	objectives []string
}{
	{"p22810", nil},
	{"MBIST_5_20_20", nil},
	{"MBIST_20_20_20", nil},
	{"p34392", nil},
	{"p93791", nil},
	{"q12710", nil},
	{"TreeUnbalanced", nil},
	{"a586710", nil},
	{"TreeBalanced", nil},
	{"TreeFlat_Ex", nil},
	{"p93791", []string{core.ObjDamage, core.ObjCost, core.ObjTestTime, core.ObjYieldLoss}},
}

// benchAnalysis runs the pipeline up to the criticality analysis of a
// Table I row under the paper's specification with seed 1.
func benchAnalysis(b *testing.B, name string) *faults.Analysis {
	b.Helper()
	net, err := benchnets.Generate(name)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	tree, err := sptree.Build(net)
	if err != nil {
		b.Fatal(err)
	}
	a, err := faults.Analyze(net, tree, sp, faults.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// benchProblems yields the problem of every evalRows entry with its
// sub-benchmark name.
func benchProblems(b *testing.B, fn func(name string, p *core.Problem)) {
	for _, r := range evalRows {
		p, err := core.NewProblemWithObjectives(benchAnalysis(b, r.name), false, r.objectives)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("%s_bits=%d", r.name, p.NumBits())
		if r.objectives != nil {
			name = fmt.Sprintf("%s_k=%d_bits=%d", r.name, p.NumObjectives(), p.NumBits())
		}
		fn(name, p)
	}
}

// BenchmarkEvaluate measures one full objective evaluation on genome
// sizes spanning the benchmark suite, at two densities: every seventh
// bit set and every second.
func BenchmarkEvaluate(b *testing.B) {
	benchProblems(b, func(name string, p *core.Problem) {
		out := make([]float64, p.NumObjectives())
		for _, every := range []int{7, 2} {
			g := moea.NewGenome(p.NumBits())
			for i := 0; i < p.NumBits(); i += every {
				g.Set(i, true)
			}
			b.Run(fmt.Sprintf("%s/every=%d", name, every), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.Evaluate(g, out)
				}
			})
		}
	})
}

// BenchmarkDeltaEval measures the incremental child evaluation against
// the full evaluation it replaces, on mutation-shaped pairs (a handful
// of flipped bits). The gap is the per-child payoff of the delta path;
// it widens with the genome because EvaluateDelta touches only the
// changed words while Evaluate scans them all.
func BenchmarkDeltaEval(b *testing.B) {
	benchProblems(b, func(name string, p *core.Problem) {
		n := p.NumBits()
		base := moea.NewGenome(n)
		for i := 0; i < n; i += 7 {
			base.Set(i, true)
		}
		child := moea.NewGenome(n)
		child.CopyFrom(base)
		for i := 1; i < n && i < 6*97; i += 97 {
			child.Set(i, !child.Get(i))
		}
		baseObj := make([]float64, p.NumObjectives())
		out := make([]float64, p.NumObjectives())
		p.Evaluate(base, baseObj)
		b.Run(name+"/delta", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !p.EvaluateDelta(child, base, baseObj, out) {
					b.Fatal("delta evaluation declined a mutation-shaped pair")
				}
			}
		})
		b.Run(name+"/full", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Evaluate(child, out)
			}
		})
	})
}

// BenchmarkProblemBuild measures compiling an analysis into the
// optimization problem, time and memory, for the default objective
// pair.
func BenchmarkProblemBuild(b *testing.B) {
	for _, name := range []string{"p93791", "MBIST_5_20_20"} {
		a := benchAnalysis(b, name)
		b.Run(fmt.Sprintf("%s_bits=%d", name, len(a.Prims)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewProblemWithObjectives(a, false, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSPEA2 and BenchmarkNSGA2 measure whole optimizer runs on a
// medium network (p34392, population 300 as in the paper).
func BenchmarkSPEA2(b *testing.B) {
	benchOptimizer(b, core.AlgoSPEA2)
}

// BenchmarkNSGA2 is the NSGA-II counterpart of BenchmarkSPEA2.
func BenchmarkNSGA2(b *testing.B) {
	benchOptimizer(b, core.AlgoNSGA2)
}

func benchOptimizer(b *testing.B, algo core.Algorithm) {
	net, err := benchnets.Generate("p34392")
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions(benchGenerations, 1)
	opt.Algorithm = algo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Synthesize(net, sp, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeAllocs gates the generation loop's allocation
// diet: with pooled genomes/objective vectors, per-run scratch arenas,
// and reusable kSelect heaps the allocs/op of a whole synthesis run is
// dominated by the one-time setup (network analysis, arena warm-up),
// not by the generation count. Compare allocs/op here between revisions
// with `go test -bench SynthesizeAllocs -benchmem`; the hard
// steady-state gate lives in moea.TestGenerationAllocs.
func BenchmarkSynthesizeAllocs(b *testing.B) {
	net, err := benchnets.Generate("p34392")
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions(benchGenerations, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Synthesize(net, sp, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines measures the greedy heuristic and the exact
// knapsack DP used to calibrate the evolutionary fronts.
func BenchmarkBaselines(b *testing.B) {
	net, err := benchnets.Generate("p22810")
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	tree, err := sptree.Build(net)
	if err != nil {
		b.Fatal(err)
	}
	a, err := faults.Analyze(net, tree, sp, faults.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if f := baseline.GreedyFront(a); len(f) == 0 {
				b.Fatal("empty greedy front")
			}
		}
	})
	b.Run("exactDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := baseline.NewExact(a)
			if e.MinDamageWithCostAtMost(a.Spec.MaxCost()) != 0 {
				b.Fatal("full budget must remove all damage")
			}
		}
	})
}

// BenchmarkRetarget measures the access simulator: retargeting an
// instrument through a nested SIB hierarchy and a full CSU access.
func BenchmarkRetarget(b *testing.B) {
	net, err := benchnets.Generate("TreeBalanced")
	if err != nil {
		b.Fatal(err)
	}
	instr := net.Instruments()
	target := instr[len(instr)/2]
	b.Run("configure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := access.New(net, access.PolicyPaper)
			if _, err := sim.Configure([]rsn.NodeID{target}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		data := access.Bits(0x5A, net.Node(target).Length)
		for i := 0; i < b.N; i++ {
			sim := access.New(net, access.PolicyPaper)
			if err := sim.WriteInstrument(target, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFaultEffect measures one graph-reference fault-effect
// computation (used by the validation suite) on the paper example.
func BenchmarkFaultEffect(b *testing.B) {
	net := fixture.PaperExample()
	f := faults.Fault{Kind: faults.MuxStuck, Node: net.Lookup("m0"), Port: 1}
	for i := 0; i < b.N; i++ {
		faults.Effect(net, f, faults.DefaultOptions())
	}
}

// BenchmarkCombinePolicies is the ablation for the fault-mode folding
// policy of the criticality analysis (DESIGN.md: max vs sum vs mean).
func BenchmarkCombinePolicies(b *testing.B) {
	net, err := benchnets.Generate("p34392")
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	tree, err := sptree.Build(net)
	if err != nil {
		b.Fatal(err)
	}
	for _, combine := range []faults.Combine{faults.CombineMax, faults.CombineSum, faults.CombineMean} {
		b.Run(combine.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := faults.Analyze(net, tree, sp, faults.Options{Combine: combine, SIBCoupling: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeEngines compares the two exact criticality engines:
// the decomposition-tree engine (series-parallel networks, the paper's
// approach) and the dominator-tree engine (arbitrary DAGs, superseding
// the virtual-vertex preprocessing of the paper's reference [19]).
func BenchmarkAnalyzeEngines(b *testing.B) {
	net, err := benchnets.Generate("p93791")
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree, err := sptree.Build(net)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := faults.Analyze(net, tree, sp, faults.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dominator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := faults.AnalyzeGraph(net, sp, faults.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTestGeneration measures structural test generation plus the
// diagnosis dictionary on the paper example scale.
func BenchmarkTestGeneration(b *testing.B) {
	net, err := benchnets.Generate("TreeFlat")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := rsntest.Generate(net, rsntest.Options{Scope: faults.ScopeAll, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if s.Coverage() < 0.9 {
				b.Fatalf("coverage %.2f", s.Coverage())
			}
		}
	})
}

// BenchmarkMultiFault measures the Monte-Carlo double-fault sampler.
func BenchmarkMultiFault(b *testing.B) {
	net, err := benchnets.Generate("TreeBalanced")
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := faults.SampleMultiFault(net, sp, faults.DefaultOptions(), 2, 100, 1)
		if st.Samples != 100 {
			b.Fatal("sampling failed")
		}
	}
}

// BenchmarkSessionPlanning measures minimum-session access planning
// over all instruments of a benchmark.
func BenchmarkSessionPlanning(b *testing.B) {
	net, err := benchnets.Generate("p34392")
	if err != nil {
		b.Fatal(err)
	}
	instr := net.Instruments()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sessions, err := access.PlanSessions(net, instr)
		if err != nil {
			b.Fatal(err)
		}
		if len(sessions) == 0 {
			b.Fatal("no sessions")
		}
	}
}

// BenchmarkFTTransform measures the fault-tolerant comparator synthesis.
func BenchmarkFTTransform(b *testing.B) {
	net, err := benchnets.Generate("p34392")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ftrsn.Synthesize(net, spec.DefaultCostModel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYieldSweep measures the defect-rate sweep of the yield model.
func BenchmarkYieldSweep(b *testing.B) {
	net, err := benchnets.Generate("p22810")
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	tree, err := sptree.Build(net)
	if err != nil {
		b.Fatal(err)
	}
	a, err := faults.Analyze(net, tree, sp, faults.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := yield.Sweep(a, 1e-7, 1e-3, 20, 0)
		if len(pts) != 20 {
			b.Fatal("sweep failed")
		}
	}
}
