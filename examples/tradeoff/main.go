// Trade-off exploration (Section V of the paper): minimizing hardening
// cost and minimizing residual defect damage are conflicting goals, so
// the synthesis computes close-to-Pareto-optimal solution fronts.
//
// This example runs SPEA-2 and NSGA-II on the TreeBalanced benchmark,
// compares them with the greedy damage-per-cost heuristic and the exact
// knapsack front, plots all fronts as an ASCII chart (damage on Y, cost
// on X) and reports the hypervolume of each method.
//
// Run with: go run ./examples/tradeoff
package main

import (
	"fmt"
	"log"
	"os"

	"rsnrobust/internal/baseline"
	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/core"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/report"
	"rsnrobust/internal/spec"
)

func main() {
	net, err := benchnets.Generate("TreeBalanced")
	if err != nil {
		log.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(11))
	if err != nil {
		log.Fatal(err)
	}

	spea, err := core.Synthesize(net, sp, core.DefaultOptions(1000, 11))
	if err != nil {
		log.Fatal(err)
	}
	optN := core.DefaultOptions(1000, 11)
	optN.Algorithm = core.AlgoNSGA2
	nsga, err := core.Synthesize(net, sp, optN)
	if err != nil {
		log.Fatal(err)
	}
	var greedy []core.Solution // the plot and the table read cost and damage alone
	for _, st := range baseline.GreedyFront(spea.Analysis) {
		greedy = append(greedy, core.Solution{Cost: st.Cost, Damage: st.Damage})
	}
	exact := baseline.NewExact(spea.Analysis)

	maxC, maxD := float64(spea.MaxCost), float64(spea.MaxDamage)
	plot := report.NewAsciiFront(72, 24, maxC, maxD)
	for _, s := range greedy {
		plot.Plot(float64(s.Cost), float64(s.Damage), 'g')
	}
	for c := int64(0); c <= spea.MaxCost; c += spea.MaxCost / 72 {
		plot.Plot(float64(c), float64(exact.MinDamageWithCostAtMost(c)), 'e')
	}
	for _, s := range spea.Front {
		plot.Plot(float64(s.Cost), float64(s.Damage), 's')
	}
	for _, s := range nsga.Front {
		plot.Plot(float64(s.Cost), float64(s.Damage), 'n')
	}
	fmt.Printf("TreeBalanced trade-off fronts  (s=SPEA-2, n=NSGA-II, g=greedy, e=exact, *=overlap)\n")
	fmt.Printf("Y: residual damage 0..%d   X: hardening cost 0..%d\n\n", spea.MaxDamage, spea.MaxCost)
	if _, err := plot.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}

	ref := []float64{maxD * 1.01, maxC * 1.01}
	hv := func(front []core.Solution) float64 {
		inds := make([]moea.Individual, len(front))
		for i, s := range front {
			inds[i] = moea.Individual{Obj: []float64{float64(s.Damage), float64(s.Cost)}}
		}
		return moea.Hypervolume(inds, ref)
	}
	var exFront []moea.Individual
	for c := int64(0); c <= spea.MaxCost; c++ {
		exFront = append(exFront, moea.Individual{Obj: []float64{float64(exact.MinDamageWithCostAtMost(c)), float64(c)}})
	}
	exHV := moea.Hypervolume(moea.ParetoFilter(exFront), ref)

	fmt.Printf("\n%-8s %12s %16s %14s\n", "method", "front size", "hypervolume", "% of exact")
	for _, row := range []struct {
		name  string
		front []core.Solution
	}{
		{"spea2", spea.Front},
		{"nsga2", nsga.Front},
		{"greedy", greedy},
	} {
		v := hv(row.front)
		fmt.Printf("%-8s %12d %16.0f %13.1f%%\n", row.name, len(row.front), v, 100*v/exHV)
	}
	fmt.Printf("%-8s %12s %16.0f %14s\n", "exact", "-", exHV, "100.0%")

	fmt.Println("\nconstrained picks (paper Table I, columns 7-10):")
	if s, ok := spea.MinCostWithDamageAtMost(0.10); ok {
		fmt.Printf("  min cost with damage <= 10%%: cost %d, damage %d\n", s.Cost, s.Damage)
	}
	if s, ok := spea.MinDamageWithCostAtMost(0.10); ok {
		fmt.Printf("  min damage with cost <= 10%%: cost %d, damage %d\n", s.Cost, s.Damage)
	}
	cd, _ := exact.MinCostWithDamageAtMost(spea.MaxDamage / 10)
	fmt.Printf("  exact optimum for the same constraints: cost %d / damage %d\n",
		cd, exact.MinDamageWithCostAtMost(spea.MaxCost/10))
}
