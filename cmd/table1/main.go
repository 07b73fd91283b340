// Command table1 regenerates Table I of the paper: for every benchmark
// network it reports the size (columns 1-2), the initial assessment
// (max cost, max damage; columns 4-5), the evolutionary budget (column
// 6), the two constrained picks from the SPEA-2 front (columns 7-10)
// and the synthesis wall time (column 11).
//
// Usage:
//
//	table1                       # all 23 rows, full budgets
//	table1 -quick                # scaled-down budgets for a fast pass
//	table1 -run 'Tree|q12710'    # row filter
//	table1 -paper                # include the paper's published values
//	table1 -format markdown      # text (default), markdown or csv
//	table1 -ablate               # optimizer ablation instead of Table I
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"syscall"
	"time"

	"rsnrobust/internal/baseline"
	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/report"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/telemetry"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "scale down generation budgets for a fast pass")
		run     = flag.String("run", "", "regexp filter on benchmark names")
		paper   = flag.Bool("paper", false, "append the paper's published values to every row")
		format  = flag.String("format", "text", "output format: text, markdown or csv")
		seed    = flag.Int64("seed", 42, "random seed for specification and optimizer")
		algoN   = flag.String("algo", "spea2", "optimizer: spea2 or nsga2")
		univ    = flag.String("universe", "control", "fault universe: control (paper harness) or all")
		objs    = flag.String("objectives", "", "comma-separated objectives to optimize (registered: damage, cost, test_time, yield_loss; empty = damage,cost)")
		ablate  = flag.Bool("ablate", false, "run the optimizer ablation instead of Table I")
		maxP    = flag.Int("maxprims", 0, "skip benchmarks with more primitives (0 = no limit)")
		refine  = flag.Bool("refine", false, "apply greedy 1-opt refinement to the constrained picks")
		telOut  = flag.String("telemetry", "", "write telemetry events (JSONL, one meta record per row) to this file")
		cpu     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		mem     = flag.String("memprofile", "", "write a heap profile to this file")
		workers = flag.Int("workers", 0, "objective-evaluation workers (0 = GOMAXPROCS, 1 = serial); results are identical at any count")
		islands = flag.Int("islands", 0, "island-model sub-populations with ring migration (0/1 = single population); results depend only on seed and island count")
		jobs    = flag.Int("jobs", 0, "concurrent synthesis jobs (0 = GOMAXPROCS, 1 = serial); rows and output order are identical at any count")
		ckpt    = flag.String("checkpoint", "", "write one checkpoint per row (<dir>/<name>.ckpt) into this directory")
		ckptN   = flag.Int("checkpoint-every", 10, "generations between periodic checkpoints (with -checkpoint)")
		resume  = flag.String("resume", "", "resume rows from checkpoints in this directory; rows without a checkpoint start fresh")
		ddl     = flag.Duration("deadline", 0, "per-row synthesis deadline (0 = none)")
		logLvl  = flag.String("log", "", "emit structured JSONL diagnostics to stderr at this level (debug, info, warn, error; empty disables)")
	)
	flag.Parse()

	// Structured diagnostics are strictly additive: they go to stderr
	// only, so stdout stays byte-identical with and without -log.
	logger := telemetry.DiscardLogger()
	if *logLvl != "" {
		logger = telemetry.NewLogger(os.Stderr, telemetry.ParseLogLevel(*logLvl), "json")
	}

	algo, scope, err := validateFlags(runConfig{
		jobs: *jobs, workers: *workers,
		checkpoint: *ckpt, checkpointEvery: *ckptN, resume: *resume, deadline: *ddl,
		algo: *algoN, universe: *univ,
	})
	if err != nil {
		fail(err)
	}

	// First SIGINT/SIGTERM drains the table gracefully: running rows
	// checkpoint and return partial results, queued rows are skipped. A
	// second signal kills the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	stopProfiles, err := telemetry.StartProfiles(*cpu, *mem)
	if err != nil {
		fail(err)
	}

	var telWriter io.Writer
	if *telOut != "" {
		f, err := os.Create(*telOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		telWriter = f
	}

	var filter *regexp.Regexp
	if *run != "" {
		var err error
		filter, err = regexp.Compile(*run)
		if err != nil {
			fail(err)
		}
	}

	objNames, err := core.ParseObjectives(*objs)
	if err != nil {
		fail(err)
	}

	if *ablate {
		runAblation(filter, *seed, *quick)
		return
	}

	header := []string{"design", "segs", "muxes", "maxcost", "maxdamage", "gens",
		"cost|d10", "dmg|d10", "cost|c10", "dmg|c10", "time"}
	if *paper {
		header = append(header, "p.maxcost", "p.maxdmg", "p.cost|d10", "p.dmg|d10", "p.cost|c10", "p.dmg|c10", "p.time")
	}
	tb := report.New(header...)

	// Collect the selected rows, then hand them to the run-level
	// scheduler: each row is one independent synthesis job, executed on
	// up to -jobs workers. Results stream back in canonical (submission)
	// order as soon as each row and all rows before it have finished, so
	// the table and the telemetry file are byte-identical at any -jobs
	// value; -jobs 1 degrades to the old sequential loop.
	var entries []benchnets.Entry
	for _, nm := range benchnets.Names() {
		e, _ := benchnets.Lookup(nm)
		if filter != nil && !filter.MatchString(e.Name) {
			continue
		}
		if *maxP > 0 && e.Segments+e.Muxes > *maxP {
			continue
		}
		entries = append(entries, e)
	}

	rows := 0
	grand := time.Now()
	logger.Info("run start", "tool", "table1", "rows", len(entries),
		"algo", *algoN, "seed", *seed, "quick", *quick, "jobs", *jobs, "workers", *workers)
	rs := moea.NewRunSet[rowResult]()
	telBufs := make([]*bytes.Buffer, len(entries))
	for i := range entries {
		i, e := i, entries[i]
		// Per-row telemetry buffers keep the shared JSONL file
		// row-atomic and canonically ordered under concurrency; the
		// emit callback below flushes them in submission order.
		if telWriter != nil {
			telBufs[i] = &bytes.Buffer{}
		}
		rs.Add(e.Name, func(jctx context.Context, _ *telemetry.Span) (rowResult, error) {
			var w io.Writer
			if telBufs[i] != nil {
				w = telBufs[i]
			}
			row, err := runRow(jctx, e, rowOpts{
				seed: *seed, quick: *quick, algo: algo, scope: scope,
				refine: *refine, workers: *workers, islands: *islands,
				ckptDir: *ckpt, resumeDir: *resume, ckptEvery: *ckptN,
				objectives: objNames,
			}, w)
			if err != nil {
				return row, fmt.Errorf("%s: %w", e.Name, err)
			}
			return row, nil
		})
	}
	interrupted := 0
	runErr := rs.Run(ctx, moea.RunOptions{Workers: *jobs, JobDeadline: *ddl}, func(i int, label string, row rowResult, err error) {
		if err != nil {
			return // reported once by Run
		}
		if row.interrupted {
			interrupted++
		}
		e := entries[i]
		if telBufs[i] != nil {
			if _, werr := telWriter.Write(telBufs[i].Bytes()); werr != nil {
				fail(werr)
			}
			telBufs[i] = nil
		}
		cells := []any{e.Name, e.Segments, e.Muxes, row.maxCost, row.maxDamage, row.gens,
			row.costD10, row.dmgD10, row.costC10, row.dmgC10, row.elapsed.Round(time.Second / 10)}
		if *paper {
			cells = append(cells, e.PaperMaxCost, e.PaperMaxDamage,
				e.PaperCostAt10Dmg, e.PaperDamageAt10Dmg, e.PaperCostAt10Cost, e.PaperDmgAt10Cost, e.PaperTime)
		}
		tb.Add(cells...)
		rows++
		fmt.Fprintf(os.Stderr, "done %-18s in %v\n", e.Name, row.elapsed.Round(time.Second/10))
		logger.Info("row done", "network", e.Name, "generations", row.gens,
			"evaluations", row.evaluations, "front", row.frontSize,
			"interrupted", row.interrupted, "elapsed_ms", durMS(row.elapsed))
	})
	if runErr != nil && !errors.Is(runErr, moea.ErrInterrupted) {
		fail(runErr)
	}
	if err := tb.Write(os.Stdout, *format); err != nil {
		fail(err)
	}
	if runErr != nil || interrupted > 0 {
		note := "interrupted: the table above is partial"
		if *ckpt != "" {
			note += "; rerun with -resume " + *ckpt + " to continue"
		}
		fmt.Fprintln(os.Stderr, note)
	}
	if err := stopProfiles(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "total %v\n", time.Since(grand).Round(time.Second))
	logger.Info("run done", "rows", rows, "interrupted_rows", interrupted,
		"elapsed_ms", durMS(time.Since(grand)))
}

func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// rowOpts is the per-row synthesis configuration shared by every row
// of the table: the optimizer knobs plus the checkpoint/resume
// directories (one <name>.ckpt file per row).
type rowOpts struct {
	seed               int64
	quick              bool
	algo               core.Algorithm
	scope              faults.Scope
	refine             bool
	workers            int
	islands            int
	ckptDir, resumeDir string
	ckptEvery          int
	objectives         []string
}

type rowResult struct {
	maxCost, maxDamage int64
	gens               int
	evaluations        int
	frontSize          int
	costD10, dmgD10    int64
	costC10, dmgC10    int64
	critD10, critC10   bool
	interrupted        bool
	elapsed            time.Duration
}

// budget scales the paper's generation budget in quick mode: large
// networks get at most 60 generations, small ones at most 150. Even in
// full mode the two giant rows (above 400k primitives) run at a tenth
// of the published budget — objective evaluations on million-bit
// genomes cost proportionally more on this single-core harness than on
// the authors' testbed; EXPERIMENTS.md discusses the scaling.
func budget(e benchnets.Entry, quick bool) int {
	prims := e.Segments + e.Muxes
	if !quick {
		if prims > 400000 {
			g := e.Generations / 10
			if g < 60 {
				g = 60
			}
			return g
		}
		return e.Generations
	}
	cap := 150
	if prims > 10000 {
		cap = 60
	}
	if e.Generations < cap {
		return e.Generations
	}
	return cap
}

func runRow(ctx context.Context, e benchnets.Entry, ro rowOpts, telWriter io.Writer) (rowResult, error) {
	var res rowResult
	seed, quick, algo := ro.seed, ro.quick, ro.algo
	net, err := benchnets.GenerateEntry(e)
	if err != nil {
		return res, err
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(seed))
	if err != nil {
		return res, err
	}
	opt := core.DefaultOptions(budget(e, quick), seed)
	opt.Workers = ro.workers
	opt.Islands = ro.islands
	opt.Objectives = ro.objectives
	opt.Context = ctx
	if ro.ckptDir != "" {
		path := filepath.Join(ro.ckptDir, e.Name+".ckpt")
		opt.CheckpointFn = func(cp *moea.Checkpoint) error { return moea.SaveCheckpoint(path, cp) }
		opt.CheckpointEvery = ro.ckptEvery
	}
	if ro.resumeDir != "" {
		// A missing per-row checkpoint just means the row never started
		// (or the directory is from a different filter): run it fresh.
		cp, err := moea.LoadCheckpoint(filepath.Join(ro.resumeDir, e.Name+".ckpt"))
		switch {
		case err == nil:
			opt.Resume = cp
		case !errors.Is(err, os.ErrNotExist):
			return res, err
		}
	}
	opt.Algorithm = algo
	opt.Analysis.Scope = ro.scope
	// One collector per row, all streaming into the shared JSONL file;
	// the leading meta record delimits the rows.
	var tel *telemetry.Collector
	if telWriter != nil {
		tel = telemetry.New()
		tel.SetOutput(telWriter)
		tel.Meta(map[string]any{
			"tool": "table1", "network": e.Name,
			"segments": e.Segments, "muxes": e.Muxes,
			"algo": algo.String(), "seed": seed, "generations": budget(e, quick),
		})
		opt.Telemetry = tel
	}
	s, err := core.Synthesize(net, sp, opt)
	if err != nil {
		return res, err
	}
	if err := tel.Close(); err != nil {
		return res, err
	}
	res.interrupted = s.Interrupted
	res.maxCost = s.MaxCost
	res.maxDamage = s.MaxDamage
	res.gens = s.Generations
	res.evaluations = s.Evaluations
	res.frontSize = len(s.Front)
	res.elapsed = s.Elapsed
	pickCost := s.MinCostWithDamageAtMost
	pickDamage := s.MinDamageWithCostAtMost
	if ro.refine {
		pickCost = s.RefinedMinCostWithDamageAtMost
		pickDamage = s.RefinedMinDamageWithCostAtMost
	}
	if sol, ok := pickCost(0.10); ok {
		res.costD10, res.dmgD10, res.critD10 = sol.Cost, sol.Damage, sol.CriticalCovered
	} else {
		res.costD10, res.dmgD10 = -1, -1
	}
	if sol, ok := pickDamage(0.10); ok {
		res.costC10, res.dmgC10, res.critC10 = sol.Cost, sol.Damage, sol.CriticalCovered
	} else {
		res.costC10, res.dmgC10 = -1, -1
	}
	return res, nil
}

// runAblation compares SPEA-2 against NSGA-II, the greedy ratio
// heuristic, uniform random sampling and (where tractable) the exact
// knapsack optimum, on the small and medium Table I networks.
func runAblation(filter *regexp.Regexp, seed int64, quick bool) {
	names := []string{"TreeFlat", "TreeUnbalanced", "TreeBalanced", "TreeFlat_Ex", "q12710", "a586710", "p34392", "t512505", "p22810"}
	tb := report.New("design", "method", "hypervol%", "cost|d10", "dmg|c10", "time")
	for _, nm := range names {
		e, ok := benchnets.Lookup(nm)
		if !ok || (filter != nil && !filter.MatchString(nm)) {
			continue
		}
		net, err := benchnets.GenerateEntry(e)
		if err != nil {
			fail(err)
		}
		sp, err := spec.Generate(net, spec.PaperGenOptions(seed))
		if err != nil {
			fail(err)
		}
		gens := budget(e, quick)

		var analysisRef *core.Synthesis // the SPEA-2 run
		for _, m := range []struct {
			name      string
			algo      core.Algorithm
			crossover moea.CrossoverKind
		}{
			{"spea2", core.AlgoSPEA2, moea.OnePoint},
			{"nsga2", core.AlgoNSGA2, moea.OnePoint},
			{"spea2-uniform", core.AlgoSPEA2, moea.Uniform},
		} {
			opt := core.DefaultOptions(gens, seed)
			opt.Algorithm, opt.Crossover = m.algo, m.crossover
			start := time.Now()
			s, err := core.Synthesize(net, sp, opt)
			if err != nil {
				fail(err)
			}
			if analysisRef == nil {
				analysisRef = s
			}
			addAblationRow(tb, e.Name, m.name, s.Front, s, time.Since(start))
		}
		// Greedy, random and exact reuse the SPEA-2 run's analysis.
		a := analysisRef.Analysis
		start := time.Now()
		var greedy []core.Solution // the rows score cost and damage alone
		for _, st := range baseline.GreedyFront(a) {
			greedy = append(greedy, core.Solution{Cost: st.Cost, Damage: st.Damage})
		}
		addAblationRow(tb, e.Name, "greedy", greedy, analysisRef, time.Since(start))
		start = time.Now()
		rnd := baseline.RandomFront(a, seed, 2000)
		addAblationRow(tb, e.Name, "random", rnd, analysisRef, time.Since(start))
		if baseline.ExactTractable(a, 500_000_000) {
			start = time.Now()
			ex := baseline.NewExact(a)
			costD10, _ := ex.MinCostWithDamageAtMost(analysisRef.MaxDamage / 10)
			dmgC10 := ex.MinDamageWithCostAtMost(analysisRef.MaxCost / 10)
			tb.Add(e.Name, "exact", "100.0", costD10, dmgC10, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "done %s\n", e.Name)
	}
	if err := tb.WriteText(os.Stdout); err != nil {
		fail(err)
	}
}

// addAblationRow computes the hypervolume of a solution front relative
// to the exact optimum's hypervolume (or the raw reference box if the
// exact DP is intractable) and the two constrained picks.
func addAblationRow(tb *report.Table, design, method string, front []core.Solution, s *core.Synthesis, elapsed time.Duration) {
	ref := []float64{float64(s.MaxDamage) * 1.01, float64(s.MaxCost) * 1.01}
	inds := make([]moea.Individual, len(front))
	for i, sol := range front {
		inds[i] = moea.Individual{Obj: []float64{float64(sol.Damage), float64(sol.Cost)}}
	}
	hv := moea.Hypervolume(inds, ref)

	// Normalize against the exact front's hypervolume when tractable.
	norm := ref[0] * ref[1]
	if baseline.ExactTractable(s.Analysis, 500_000_000) {
		ex := baseline.NewExact(s.Analysis)
		var exInds []moea.Individual
		for c := int64(0); c <= s.MaxCost; c++ {
			exInds = append(exInds, moea.Individual{Obj: []float64{float64(ex.MinDamageWithCostAtMost(c)), float64(c)}})
		}
		norm = moea.Hypervolume(moea.ParetoFilter(exInds), ref)
	}

	costD10, dmgC10 := int64(-1), int64(-1)
	for _, sol := range front {
		if float64(sol.Damage) <= 0.10*float64(s.MaxDamage) && (costD10 < 0 || sol.Cost < costD10) {
			costD10 = sol.Cost
		}
		if float64(sol.Cost) <= 0.10*float64(s.MaxCost) && (dmgC10 < 0 || sol.Damage < dmgC10) {
			dmgC10 = sol.Damage
		}
	}
	tb.Add(design, method, fmt.Sprintf("%.1f", 100*hv/norm), costD10, dmgC10, elapsed.Round(time.Millisecond))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "table1:", err)
	os.Exit(1)
}
