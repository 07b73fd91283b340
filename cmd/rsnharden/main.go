// Command rsnharden runs the full robust-RSN synthesis pipeline of the
// paper on one network: criticality analysis, multi-objective selective
// hardening, and constrained solution extraction.
//
// Usage:
//
//	rsnharden -name p22810 -generations 1000
//	rsnharden -in net.icl -generations 500 -algo nsga2 -front
//	rsnharden -in net.icl -pick damage10 -o hardened.icl
//	rsnharden -name p22810 -checkpoint run.ckpt    # SIGINT-safe, resumable
//	rsnharden -name p22810 -resume run.ckpt        # continue where it stopped
//
// Input networks carry their criticality specification in the
// instrument annotations; with -genspec the paper's randomized
// specification is generated instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"rsnrobust/internal/access"
	"rsnrobust/internal/baseline"
	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/icl"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/report"
	"rsnrobust/internal/robust"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/telemetry"
)

func main() {
	var (
		in      = flag.String("in", "", "input network in ICL format")
		name    = flag.String("name", "", "Table I benchmark name instead of -in")
		gens    = flag.Int("generations", 0, "evolutionary generations (default: Table I column 6, else 500)")
		seed    = flag.Int64("seed", 42, "random seed")
		algoN   = flag.String("algo", "spea2", "optimizer: spea2 or nsga2")
		genspec = flag.Bool("genspec", false, "generate the paper's randomized specification")
		front   = flag.Bool("front", false, "print the full Pareto front")
		pick    = flag.String("pick", "", "apply a constrained pick to the output: damage10 or cost10")
		out     = flag.String("o", "", "write the (optionally hardened) network to this file")
		force   = flag.Bool("critical", false, "force hardening of every critical-hitting primitive")
		greedy  = flag.Bool("greedy", false, "also report the greedy and exact baselines")
		rep     = flag.Bool("report", false, "print the robustness report of the damage<=10% solution (single- and double-fault)")
		stag    = flag.Int("stagnation", 0, "stop early after N generations without hypervolume improvement (0 = full budget)")
		workers = flag.Int("workers", 0, "objective-evaluation workers (0 = GOMAXPROCS, 1 = serial); results are identical at any count")
		islands = flag.Int("islands", 0, "island-model sub-populations with ring migration (0/1 = single population); results depend only on seed and island count")
		seeds   = flag.Int("seeds", 1, "run this many consecutive seeds (seed .. seed+N-1) and report per-seed plus aggregate results")
		jobs    = flag.Int("jobs", 0, "concurrent synthesis jobs in multi-seed mode (0 = GOMAXPROCS, 1 = serial); results are identical at any count")
		univ    = flag.String("universe", "all", "fault universe: all or control")
		objs    = flag.String("objectives", "", "comma-separated objectives to optimize (registered: damage, cost, test_time, yield_loss; empty = damage,cost)")
		telOut  = flag.String("telemetry", "", "write telemetry events (JSONL) to this file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file")
		prog    = flag.Bool("progress", false, "print a live per-generation summary line and a telemetry summary to stderr")
		ckpt    = flag.String("checkpoint", "", "write periodic checkpoints (and the final state on SIGINT) to this file")
		ckptN   = flag.Int("checkpoint-every", 10, "generations between periodic checkpoints (with -checkpoint)")
		resume  = flag.String("resume", "", "resume from a checkpoint file written by -checkpoint")
		ddl     = flag.Duration("deadline", 0, "run deadline; in multi-seed mode the per-job deadline (0 = none)")
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
		seeds: *seeds, jobs: *jobs, workers: *workers, stagnation: *stag,
		checkpoint: *ckpt, checkpointEvery: *ckptN, resume: *resume, deadline: *ddl,
		algo: *algoN, universe: *univ,
	})
	if err != nil {
		fail(err)
	}

	// First SIGINT/SIGTERM cancels the context: the optimizer drains at
	// the next generation boundary, writes a final checkpoint and returns
	// a valid partial result. A second signal falls through to the
	// default handler and kills the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	stopProfiles, err := telemetry.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}

	objNames, err := core.ParseObjectives(*objs)
	if err != nil {
		fail(err)
	}
	cfg := synthConfig{
		in: *in, name: *name, genspec: *genspec, seed: *seed,
		algo: algo, scope: scope, force: *force, stag: *stag, workers: *workers,
		islands: *islands, objectives: objNames,
	}
	net, entry, sp, err := cfg.load()
	if err != nil {
		fail(err)
	}
	cfg.generations = *gens
	if cfg.generations == 0 {
		cfg.generations = 500
		if entry != nil {
			cfg.generations = entry.Generations
		}
	}
	netStats := net.Stats()
	logger.Info("run start", "tool", "rsnharden", "network", net.Name,
		"segments", netStats.Segments, "muxes", netStats.Muxes,
		"algo", *algoN, "seed", *seed, "seeds", *seeds, "generations", cfg.generations)

	var tel *telemetry.Collector
	if *telOut != "" || *prog {
		tel = telemetry.New()
		if *telOut != "" {
			f, err := os.Create(*telOut)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			tel.SetOutput(f)
		}
		tel.Meta(map[string]any{
			"tool": "rsnharden", "network": net.Name,
			"segments": netStats.Segments, "muxes": netStats.Muxes,
			"algo": *algoN, "seed": *seed, "generations": cfg.generations,
		})
	}

	if *seeds > 1 {
		err := runSeedSweep(ctx, sweepConfig{
			synthConfig: cfg, seeds: *seeds, jobs: *jobs, deadline: *ddl,
		}, tel, logger)
		if err != nil {
			fail(err)
		}
		if err := tel.Close(); err != nil {
			fail(err)
		}
		if *prog && tel != nil {
			fmt.Fprintln(os.Stderr)
			if err := report.WriteTelemetry(os.Stderr, tel.Snapshot()); err != nil {
				fail(err)
			}
		}
		if err := stopProfiles(); err != nil {
			fail(err)
		}
		return
	}

	if *ddl > 0 {
		var cancelDeadline context.CancelFunc
		ctx, cancelDeadline = context.WithTimeout(ctx, *ddl)
		defer cancelDeadline()
	}

	opt := cfg.options(ctx, *seed, tel)
	if *ckpt != "" {
		path := *ckpt
		opt.CheckpointFn = func(cp *moea.Checkpoint) error { return moea.SaveCheckpoint(path, cp) }
		opt.CheckpointEvery = *ckptN
	}
	if *resume != "" {
		cp, err := moea.LoadCheckpoint(*resume)
		if err != nil {
			fail(err)
		}
		opt.Resume = cp
		logger.Info("resuming", "checkpoint", *resume, "generation", cp.Generation)
	}
	if *prog {
		opt.OnProgress = func(p core.Progress) bool {
			g := p.Record()
			fmt.Fprintf(os.Stderr, "\rgen %-6d front %-5d hv %6.2f%%  best dmg %-10.0f best cost %-8.0f evals %-9d",
				g.Gen+1, g.Front, 100*g.NormHV, g.BestDamage, g.BestCost, g.Evaluations)
			return true
		}
	}

	s, err := core.Synthesize(net, sp, opt)
	if err != nil {
		fail(err)
	}
	if *prog {
		fmt.Fprintln(os.Stderr)
	}
	logger.Info("synthesis done", "generations", s.Generations,
		"evaluations", s.Evaluations, "front", len(s.Front),
		"interrupted", s.Interrupted,
		"elapsed_ms", float64(s.Elapsed)/float64(time.Millisecond), "workers", s.Workers)

	st := net.Stats()
	fmt.Printf("network        %s\n", net.Name)
	fmt.Printf("segments       %d\n", st.Segments)
	fmt.Printf("multiplexers   %d\n", st.Muxes)
	fmt.Printf("instruments    %d\n", st.Instruments)
	fmt.Printf("max cost       %d  (all primitives hardened)\n", s.MaxCost)
	fmt.Printf("max damage     %d  (nothing hardened)\n", s.MaxDamage)
	fmt.Printf("generations    %d  (%s, %d evaluations)\n", s.Generations, opt.Algorithm, s.Evaluations)
	fmt.Printf("front size     %d\n", len(s.Front))
	// Printed only for a non-default objective set, so historical
	// damage/cost runs keep byte-identical stdout.
	kObjectives := !slices.Equal(s.Objectives, core.DefaultObjectives())
	if kObjectives {
		fmt.Printf("objectives     %s\n", strings.Join(s.Objectives, ", "))
	}
	fmt.Printf("must-harden    %d primitives protect all critical instruments\n", s.Analysis.MustHardenCount())
	if s.Interrupted {
		// Printed only on interruption, so uninterrupted and resumed runs
		// keep byte-identical stdout.
		if *ckpt != "" {
			fmt.Printf("interrupted    true  (partial result; resume with -resume %s)\n", *ckpt)
		} else {
			fmt.Println("interrupted    true  (partial result; rerun with -checkpoint to make it resumable)")
		}
	}
	// Wall clock goes to stderr: stdout stays byte-identical for the same
	// seed at every worker count.
	fmt.Fprintf(os.Stderr, "synthesis time %v (%d workers)\n", s.Elapsed.Round(1000000), s.Workers)

	if sol, ok := s.MinCostWithDamageAtMost(0.10); ok {
		fmt.Printf("min cost  | damage<=10%%:  cost %6d  damage %10d  critical covered %v\n",
			sol.Cost, sol.Damage, sol.CriticalCovered)
	} else {
		fmt.Println("min cost  | damage<=10%:  no front solution meets the constraint")
	}
	if sol, ok := s.MinDamageWithCostAtMost(0.10); ok {
		fmt.Printf("min damage|   cost<=10%%:  cost %6d  damage %10d  critical covered %v\n",
			sol.Cost, sol.Damage, sol.CriticalCovered)
	} else {
		fmt.Println("min damage|   cost<=10%:  no front solution meets the constraint")
	}

	if *greedy {
		g := baseline.GreedyFront(s.Analysis)
		fmt.Printf("greedy front   %d prefix solutions\n", len(g))
		if baseline.ExactTractable(s.Analysis, 200_000_000) {
			e := baseline.NewExact(s.Analysis)
			optDamage := e.MinDamageWithCostAtMost(s.MaxCost / 10)
			optCost, _ := e.MinCostWithDamageAtMost(s.MaxDamage / 10)
			fmt.Printf("exact optimum  cost<=10%%: damage %d;  damage<=10%%: cost %d\n", optDamage, optCost)
		}
		fmt.Printf("full TMR       overhead %d (vs. selective hardening above)\n",
			baseline.TMROverhead(s.Analysis, 1))
	}

	if *front {
		var tb *report.Table
		if kObjectives {
			// One column per named objective, in the synthesis' canonical
			// order (Values[k] is objective s.Objectives[k]).
			hdr := append(append([]string(nil), s.Objectives...), "hardened", "critical")
			tb = report.New(hdr...)
			for _, sol := range s.Front {
				cells := make([]any, 0, len(sol.Values)+2)
				for _, v := range sol.Values {
					cells = append(cells, v)
				}
				cells = append(cells, len(sol.Hardened), sol.CriticalCovered)
				tb.Add(cells...)
			}
		} else {
			tb = report.New("cost", "damage", "hardened", "critical")
			for _, sol := range s.Front {
				tb.Add(sol.Cost, sol.Damage, len(sol.Hardened), sol.CriticalCovered)
			}
		}
		fmt.Println()
		if err := tb.WriteText(os.Stdout); err != nil {
			fail(err)
		}
	}

	if *rep {
		if sol, ok := s.MinCostWithDamageAtMost(0.10); ok {
			core.Apply(net, sol)
			m := robust.FromAnalysis(s.Analysis)
			m.Publish(tel)
			fmt.Println("\nrobustness report (damage<=10% solution applied):")
			fmt.Println(m)
			mf := faults.SampleMultiFault(net, sp, opt.Analysis, 2, 500, *seed)
			fmt.Printf("double-fault Monte Carlo (%d samples): mean damage %.1f, worst %d, mean accessible %.1f%%, critical failures %d\n",
				mf.Samples, mf.MeanDamage, mf.WorstDamage, 100*mf.MeanAccessible, mf.CriticalFailures)
		} else {
			fmt.Println("\nrobustness report: no damage<=10% solution on the front")
		}
	}

	if *out != "" {
		switch *pick {
		case "damage10":
			if sol, ok := s.MinCostWithDamageAtMost(0.10); ok {
				core.Apply(net, sol)
			}
		case "cost10":
			if sol, ok := s.MinDamageWithCostAtMost(0.10); ok {
				core.Apply(net, sol)
			}
		case "":
		default:
			fail(fmt.Errorf("unknown pick %q (want damage10 or cost10)", *pick))
		}
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := icl.Write(f, net); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if tel != nil {
		verifyCompat(net, s, tel)
		if err := tel.Close(); err != nil {
			fail(err)
		}
		if *prog {
			fmt.Fprintln(os.Stderr)
			if err := report.WriteTelemetry(os.Stderr, tel.Snapshot()); err != nil {
				fail(err)
			}
		}
	}
	if err := stopProfiles(); err != nil {
		fail(err)
	}
}

// verifyCompatLimit bounds the network size for the pattern-compat
// simulation: the register-level simulator shifts bit by bit, so giant
// MBIST networks would dominate the run for a sanity check.
const verifyCompatLimit = 20000

// verifyCompat exercises the paper's pattern-compatibility property
// under telemetry: it records an access trace for a few instruments on
// the current network, applies the damage<=10% pick (or the first front
// solution), and replays the trace on the hardened result. The
// simulator's shift/capture/update counters and the outcome gauge land
// in the telemetry stream.
func verifyCompat(net *rsn.Network, s *core.Synthesis, tel *telemetry.Collector) {
	st := net.Stats()
	if st.Segments+st.Muxes > verifyCompatLimit {
		tel.Gauge("verify.skipped").Set(1)
		return
	}
	instr := net.Instruments()
	if len(instr) == 0 {
		tel.Gauge("verify.skipped").Set(1)
		return
	}
	span := tel.StartSpan("verify-compat")
	defer span.End()

	sim := access.New(net, access.PolicyPaper)
	sim.SetTelemetry(tel)
	k := len(instr)
	if k > 4 {
		k = 4
	}
	tr := sim.StartTrace()
	for i := 0; i < k; i++ {
		nd := net.Node(instr[i])
		if err := sim.WriteInstrument(instr[i], access.Bits(0x5A, nd.Length)); err != nil {
			tel.Gauge("verify.skipped").Set(1)
			return
		}
	}
	sim.StopTrace()

	sol, ok := s.MinCostWithDamageAtMost(0.10)
	if !ok && len(s.Front) > 0 {
		sol, ok = s.Front[len(s.Front)-1], true
	}
	if ok {
		core.Apply(net, sol)
	}
	replay := access.New(net, access.PolicyPaper)
	replay.SetTelemetry(tel)
	compatible := 0.0
	if access.Replay(replay, tr) == nil {
		compatible = 1
	}
	tel.Gauge("verify.pattern_compatible").Set(compatible)
}

// synthConfig is what a single run and every seed of a sweep share:
// the network source, the specification rule and the synthesis options
// the flags set.
type synthConfig struct {
	in, name    string
	genspec     bool
	generations int
	seed        int64 // the base seed, which also seeds a generated specification
	algo        core.Algorithm
	scope       faults.Scope
	force       bool
	stag        int
	workers     int
	islands     int
	objectives  []string
}

// load reads the network and its criticality specification: the
// paper's randomized one for a benchmark or with -genspec, generated
// from the base seed so that it stays fixed across a sweep, else the
// one in the network's annotations.
func (c synthConfig) load() (*rsn.Network, *benchnets.Entry, *spec.Spec, error) {
	net, entry, err := loadNetwork(c.in, c.name)
	if err != nil {
		return nil, nil, nil, err
	}
	if c.genspec || c.name != "" {
		sp, err := spec.Generate(net, spec.PaperGenOptions(c.seed))
		return net, entry, sp, err
	}
	return net, entry, spec.FromNetwork(net, spec.DefaultCostModel), nil
}

// options returns the synthesis options of one run at the optimizer
// seed, cancelled by ctx and reporting to tel.
func (c synthConfig) options(ctx context.Context, seed int64, tel *telemetry.Collector) core.Options {
	opt := core.DefaultOptions(c.generations, seed)
	opt.Algorithm = c.algo
	opt.Analysis.Scope = c.scope
	opt.ForceCritical = c.force
	opt.Stagnation = c.stag
	opt.Workers = c.workers
	opt.Islands = c.islands
	opt.Objectives = c.objectives
	opt.Telemetry = tel
	opt.Context = ctx
	return opt
}

// sweepConfig is the multi-seed run description: the same synthesis at
// seeds seed .. seed+N-1, scheduled across a bounded job pool.
type sweepConfig struct {
	synthConfig
	seeds    int
	jobs     int
	deadline time.Duration
}

// seedResult is one seed's outcome in the sweep summary.
type seedResult struct {
	seed             int64
	gens, evals      int
	frontSize        int
	costD10, dmgD10  int64
	costC10, dmgC10  int64
	elapsed, evolveT time.Duration
	interrupted      bool
}

// runSeedSweep runs the synthesis once per seed on a RunSet scheduler
// and prints a per-seed table plus aggregates. Each job loads its own
// copy of the network and specification (deterministic, so every job
// sees identical inputs) and varies only the optimizer seed — the sweep
// measures optimizer variance, not specification variance. With a
// telemetry collector, every job's pipeline spans hang off that job's
// "job:seed-N" span via Options.ParentSpan, so the trace stays a tree
// under concurrency. Results and output are identical at any job count.
func runSeedSweep(ctx context.Context, cfg sweepConfig, tel *telemetry.Collector, logger *slog.Logger) error {
	rs := moea.NewRunSet[seedResult]()
	for i := 0; i < cfg.seeds; i++ {
		s := cfg.seed + int64(i)
		rs.Add(fmt.Sprintf("seed-%d", s), func(jctx context.Context, sp *telemetry.Span) (seedResult, error) {
			return runOneSeed(jctx, cfg, s, tel, sp)
		})
	}
	// Wall clock goes to stderr, like the single-seed path: stdout stays
	// byte-identical for the same seeds at every job count.
	tb := report.New("seed", "gens", "evals", "front",
		"cost|d10", "dmg|d10", "cost|c10", "dmg|c10")
	var (
		results     []seedResult
		sumD10      float64
		bestD10     int64 = -1
		sumC10      float64
		bestC10     int64 = -1
		sumEvolv    time.Duration
		interrupted int
		skipped     int
	)
	err := rs.Run(ctx, moea.RunOptions{Workers: cfg.jobs, Telemetry: tel, JobDeadline: cfg.deadline}, func(i int, label string, r seedResult, err error) {
		if err != nil {
			if errors.Is(err, moea.ErrInterrupted) {
				skipped++
			}
			return // reported once by Run
		}
		if r.interrupted {
			interrupted++
		}
		tb.Add(r.seed, r.gens, r.evals, r.frontSize,
			r.costD10, r.dmgD10, r.costC10, r.dmgC10)
		results = append(results, r)
		sumEvolv += r.evolveT
		if r.costD10 >= 0 {
			sumD10 += float64(r.costD10)
			if bestD10 < 0 || r.costD10 < bestD10 {
				bestD10 = r.costD10
			}
		}
		if r.dmgC10 >= 0 {
			sumC10 += float64(r.dmgC10)
			if bestC10 < 0 || r.dmgC10 < bestC10 {
				bestC10 = r.dmgC10
			}
		}
		fmt.Fprintf(os.Stderr, "done seed %-6d in %v (evolve %v)\n",
			r.seed, r.elapsed.Round(time.Millisecond), r.evolveT.Round(time.Millisecond))
		logger.Info("seed done", "seed", r.seed, "generations", r.gens,
			"evaluations", r.evals, "front", r.frontSize, "interrupted", r.interrupted,
			"elapsed_ms", float64(r.elapsed)/float64(time.Millisecond))
	})
	if err != nil && !errors.Is(err, moea.ErrInterrupted) {
		return err
	}
	fmt.Printf("seed sweep     %d seeds (%d..%d), %s\n",
		cfg.seeds, cfg.seed, cfg.seed+int64(cfg.seeds)-1, cfg.algo)
	if err := tb.WriteText(os.Stdout); err != nil {
		return err
	}
	if n := float64(len(results)); n > 0 {
		fmt.Printf("aggregate      cost|d10 mean %.1f best %d;  dmg|c10 mean %.1f best %d\n",
			sumD10/n, bestD10, sumC10/n, bestC10)
		fmt.Fprintf(os.Stderr, "mean evolve    %v over %d seeds\n",
			(sumEvolv / time.Duration(len(results))).Round(time.Millisecond), len(results))
	}
	if interrupted > 0 || skipped > 0 {
		fmt.Printf("interrupted    true  (%d partial seeds, %d never started)\n", interrupted, skipped)
	}
	return nil
}

// runOneSeed is one job of the sweep: a full, self-contained synthesis.
func runOneSeed(ctx context.Context, cfg sweepConfig, seed int64, tel *telemetry.Collector, span *telemetry.Span) (seedResult, error) {
	res := seedResult{seed: seed, costD10: -1, dmgD10: -1, costC10: -1, dmgC10: -1}
	net, _, sp, err := cfg.load()
	if err != nil {
		return res, err
	}
	opt := cfg.options(ctx, seed, tel)
	opt.ParentSpan = span
	s, err := core.Synthesize(net, sp, opt)
	if err != nil {
		return res, err
	}
	res.gens = s.Generations
	res.evals = s.Evaluations
	res.frontSize = len(s.Front)
	res.interrupted = s.Interrupted
	res.elapsed = s.Elapsed
	res.evolveT = s.EvolveTime
	if sol, ok := s.MinCostWithDamageAtMost(0.10); ok {
		res.costD10, res.dmgD10 = sol.Cost, sol.Damage
	}
	if sol, ok := s.MinDamageWithCostAtMost(0.10); ok {
		res.costC10, res.dmgC10 = sol.Cost, sol.Damage
	}
	return res, nil
}

func loadNetwork(in, name string) (*rsn.Network, *benchnets.Entry, error) {
	switch {
	case in != "" && name != "":
		return nil, nil, fmt.Errorf("use either -in or -name, not both")
	case name != "":
		e, ok := benchnets.Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown benchmark %q", name)
		}
		net, err := benchnets.GenerateEntry(e)
		return net, &e, err
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		net, err := icl.Parse(f)
		return net, nil, err
	default:
		return nil, nil, fmt.Errorf("need -in or -name (see -h)")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rsnharden:", err)
	os.Exit(1)
}
