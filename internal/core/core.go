// Package core implements the paper's primary contribution: synthesis of
// robust Reconfigurable Scan Networks by selective hardening.
//
// Given an RSN and a criticality specification, the pipeline
//
//  1. builds the binary decomposition tree (internal/sptree),
//  2. runs the exact criticality analysis assigning every scan primitive
//     j its damage d_j (internal/faults),
//  3. explores the trade-off between residual damage
//     Σ_{j unhardened} d_j and hardening cost Σ_j c_j·x_j with a
//     multi-objective evolutionary algorithm (internal/moea),
//  4. returns the close-to-Pareto-optimal front plus the two constrained
//     picks reported in the paper's Table I.
//
// The resulting network keeps its topology; hardening only marks
// primitives as protected, so every existing access, test and diagnosis
// pattern remains valid (verified by internal/access).
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"time"

	"rsnrobust/internal/faults"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
	"rsnrobust/internal/telemetry"
)

// Algorithm selects the multi-objective optimizer.
type Algorithm uint8

// Available optimizers. AlgoSPEA2 is the paper's choice.
const (
	AlgoSPEA2 Algorithm = iota
	AlgoNSGA2
)

// String returns "spea2" or "nsga2".
func (a Algorithm) String() string {
	switch a {
	case AlgoSPEA2:
		return "spea2"
	case AlgoNSGA2:
		return "nsga2"
	default:
		return fmt.Sprintf("algorithm(%d)", uint8(a))
	}
}

// ParseAlgorithm returns the optimizer String names; the empty name is
// the zero value, AlgoSPEA2. Any other name is an error.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "", AlgoSPEA2.String():
		return AlgoSPEA2, nil
	case AlgoNSGA2.String():
		return AlgoNSGA2, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want spea2 or nsga2)", name)
}

// Options configures Synthesize.
type Options struct {
	// Generations is the evolutionary budget (Table I column 6).
	Generations int
	// Seed drives all pseudo-random choices.
	Seed int64
	// Algorithm selects the optimizer (default SPEA-2, as in the paper).
	Algorithm Algorithm
	// Analysis configures the criticality analysis.
	Analysis faults.Options
	// ForceCritical pins the hardening bits of every primitive whose
	// fault would hit a critical instrument, guaranteeing that all
	// important instruments stay accessible in every candidate solution.
	ForceCritical bool
	// Objectives selects the optimization objectives by name ("damage",
	// "cost", "test_time" and "yield_loss"). The list is canonicalized —
	// validated, deduplicated and reordered — before use, and an empty
	// list selects the paper's (damage, cost) pair. Every set runs on
	// the same evaluation kernel.
	Objectives []string
	// Population, if positive, overrides the paper's population size
	// (300 for networks with more than 100 multiplexers, else 100); the
	// SPEA-2 archive follows it. The other evolutionary parameters are
	// the paper's: crossover 0.95, per-bit mutation 0.01.
	Population int
	// Crossover selects the recombination operator: the paper's
	// one-point crossover (the zero value) or uniform crossover, which
	// the operator ablation compares against it.
	Crossover moea.CrossoverKind
	// Workers sizes the objective-evaluation worker pool: 0 selects
	// GOMAXPROCS, 1 forces serial evaluation. Results are bit-for-bit
	// identical at every worker count.
	Workers int
	// Islands, if greater than 1, partitions the run into that many
	// independently seeded sub-populations evolving in lockstep with
	// deterministic ring migration (see moea.Params.Islands). The final
	// front merges all islands; results depend only on (Seed, Islands),
	// never on Workers.
	Islands int
	// Stagnation, if positive, stops the evolution early once the
	// front's hypervolume has not improved for that many consecutive
	// generations — the practical alternative to the paper's fixed
	// per-design generation budgets (Table I column 6).
	Stagnation int
	// Context, if non-nil, cooperatively cancels the synthesis: the
	// evolutionary run stops at the next generation or evaluation-chunk
	// boundary and Synthesize returns a valid partial result with
	// Interrupted set. A nil context never cancels.
	Context context.Context
	// CheckpointEvery overrides the checkpoint interval in generations
	// (0 with a CheckpointFn selects the default of 10).
	CheckpointEvery int
	// CheckpointFn, if non-nil, enables checkpointing: it receives the
	// run state every CheckpointEvery generations and once more when
	// cancellation is observed at a generation boundary. A caller writes
	// it to a file (moea.SaveCheckpoint, as the CLIs do) or moves it to
	// another process (rsnserve checkpoint streaming, the fleet
	// migration protocol); resuming from it continues the run
	// bit-identically. The *moea.Checkpoint aliases live engine buffers
	// and is only valid for the duration of the call: encode (or
	// deep-copy) it before returning.
	CheckpointFn func(*moea.Checkpoint) error
	// Resume, if non-nil, restores the evolutionary run from a
	// checkpoint instead of initializing a fresh population. The
	// checkpoint must match the run (algorithm, seed, genome size,
	// population); Stagnation cannot be combined with
	// Resume — the early-stop state is not checkpointed.
	Resume *moea.Checkpoint
	// OnProgress, if non-nil, receives one Progress per generation with
	// exact per-run effort counters, scoped to this run alone and so
	// safe under concurrent synthesis jobs sharing a collector; its
	// Record measures the generation's convergence record on demand.
	// Returning false stops the run early.
	OnProgress func(p Progress) bool
	// Telemetry, if non-nil, receives span timings for every pipeline
	// stage, structural gauges from the tree and the analysis, the
	// moea.evaluations counter and the generations' convergence records:
	// every generation's without an OnProgress, else those that
	// OnProgress or Stagnation measure. The nil default adds no
	// overhead.
	Telemetry *telemetry.Collector
	// ParentSpan, if non-nil, becomes the parent of the run's
	// "synthesize" root span, attributing the whole pipeline to an
	// enclosing unit of work (for example one job of a scheduled sweep).
	// It must come from the same collector as Telemetry.
	ParentSpan *telemetry.Span
}

// DefaultOptions returns the paper's setup for the given generation
// budget and seed.
func DefaultOptions(generations int, seed int64) Options {
	return Options{
		Generations: generations,
		Seed:        seed,
		Algorithm:   AlgoSPEA2,
		Analysis:    faults.DefaultOptions(),
	}
}

// Progress is one per-generation report handed to Options.OnProgress.
// Every field comes from this run's own state — nothing is read from
// shared telemetry instruments, so concurrent runs cannot pollute each
// other's reports.
type Progress struct {
	// Gen is the zero-based generation index just completed.
	Gen int
	// Evaluations counts this run's objective evaluations so far.
	Evaluations int64
	// ElapsedMS is the wall time since the previous generation's report
	// (since the hook was installed, for the first).
	ElapsedMS float64
	rec       *recorder
}

// Record returns the generation's convergence record: the fields above
// plus the front's size, hypervolume and per-objective bests. The front
// is measured on the first call in a generation, by whichever reader
// asks first (this call or the Stagnation window), and that record is
// put into the run's collector; later calls return it unchanged. Valid
// during the OnProgress call only.
func (p Progress) Record() telemetry.Generation { return p.rec.record() }

// Solution is one hardening decision with its evaluated objectives.
type Solution struct {
	// Hardened lists the hardened primitives in ID order; it is the
	// whole hardening decision.
	Hardened []rsn.NodeID
	// Cost is the hardening cost Σ c_j x_j.
	Cost int64
	// Damage is the residual damage Σ_{j unhardened} d_j.
	Damage int64
	// CriticalCovered reports whether every primitive whose fault hits a
	// critical instrument is hardened, i.e. all important instruments
	// remain accessible under any single fault.
	CriticalCovered bool
	// Values holds the per-objective values in the synthesis' canonical
	// objective order (Synthesis.Objectives), in natural units. On the
	// default 2-objective run it is {damage, cost}.
	Values []float64
}

// Synthesis is the result of a selective-hardening run.
type Synthesis struct {
	Net      *rsn.Network
	Tree     *sptree.Tree
	Spec     *spec.Spec
	Analysis *faults.Analysis

	// Objectives is the canonical objective-name list the run optimized
	// (index k names Values[k] of every front solution).
	Objectives []string
	// MaxCost is the cost of hardening everything (Table I column 4).
	MaxCost int64
	// MaxDamage is the damage with no hardening (Table I column 5).
	MaxDamage int64
	// Front is the close-to-Pareto-optimal front, sorted by damage.
	Front []Solution
	// Generations and Evaluations record the evolutionary effort;
	// Evaluations counts every genome evaluated.
	Generations int
	Evaluations int
	// DeltaEvals and FullEvals split Evaluations by path: children whose
	// objectives were derived incrementally from a parent versus genomes
	// evaluated from scratch. Their sum equals Evaluations; the split is
	// identical at every worker count.
	DeltaEvals int
	FullEvals  int
	// Islands is the island count the run used (0 or 1: single
	// population).
	Islands int
	// Elapsed is the wall-clock synthesis time (Table I column 11).
	Elapsed time.Duration
	// EvolveTime is the wall-clock time of the evolutionary
	// optimization alone; the stage spans in Telemetry split the rest.
	EvolveTime time.Duration
	// Workers is the resolved evaluation worker-pool size the run used.
	Workers int
	// Interrupted reports that the evolutionary run was cancelled before
	// its budget (Options.Context); the front is the best one at the
	// last completed generation boundary and the accounting covers
	// exactly the work performed.
	Interrupted bool
}

// maxObjectives is the size of the objective table and so the largest
// K any objective set can have.
const maxObjectives = 4

// row is one genome bit's contribution to every objective slot; slots
// beyond the problem's K stay zero.
type row [maxObjectives]int64

// Problem is the selective-hardening optimization problem as seen by the
// evolutionary algorithms: bit i hardens the i-th primitive (ID order).
// Every objective set, the paper's (damage, cost) pair included, is
// compiled into one base vector and one row per bit; the objective
// vector of a genome is the base plus the rows of its hardened bits.
type Problem struct {
	prims    []rsn.NodeID
	critMask moea.Genome // bits forced on by ForceCritical (may be nil)

	// names is the canonical objective-name list; slot k of base, every
	// row, maxes and scales belongs to names[k].
	names  []string
	base   row
	rows   []row     // by bit index
	maxes  []float64 // inclusive upper bounds, for the reference point
	scales []float64 // divide integer values into reported units

	// deltaLimit is the incremental-evaluation cutoff: a child differing
	// from its base in more than this many non-forced bits is evaluated
	// fully instead. A pure function of the problem size, so the
	// delta/full split is identical at every worker count.
	deltaLimit int
}

// NewProblemWithObjectives builds the optimization problem from a
// completed criticality analysis over an objective set; the list is
// canonicalized first, and an empty list selects the paper's (damage,
// cost) pair. If forceCritical is set, every critical-hitting
// primitive's bit is treated as hardened in all evaluations.
func NewProblemWithObjectives(a *faults.Analysis, forceCritical bool, names []string) (*Problem, error) {
	names, err := CanonicalObjectives(names)
	if err != nil {
		return nil, err
	}
	prims := a.Prims
	p := &Problem{
		prims:  prims,
		names:  names,
		rows:   make([]row, len(prims)),
		maxes:  make([]float64, len(names)),
		scales: make([]float64, len(names)),
	}
	for k, name := range names {
		o := &objectives[objectiveIndex(name)]
		base, w := o.linear(a)
		hi := base
		for i, x := range w {
			p.rows[i][k] = x
			if x > 0 {
				hi += x
			}
		}
		p.base[k], p.maxes[k], p.scales[k] = base, float64(hi), o.scale
	}
	if forceCritical {
		p.critMask = moea.NewGenome(len(prims))
		for i, id := range prims {
			if a.CritHit[id] {
				p.critMask.Set(i, true)
			}
		}
	}
	// Mutation flips ~1% of bits and crossover against the
	// majority-contributing parent preserves most of the rest, so real
	// children sit far under this cutoff; it exists to bounce the rare
	// distant pair back to full evaluation, where per-flip updates
	// would cost more than a full scan.
	p.deltaLimit = max(64, len(prims)/4)
	return p, nil
}

// NumBits returns the number of hardening candidates.
func (p *Problem) NumBits() int { return len(p.prims) }

// NumObjectives returns the length of the canonical objective list.
func (p *Problem) NumObjectives() int { return len(p.names) }

// ObjectiveNames returns the problem's objective names in canonical
// order (index k names objective slot k of every evaluation).
func (p *Problem) ObjectiveNames() []string {
	return append([]string(nil), p.names...)
}

// ObjectiveMaxes returns, per objective, an inclusive upper bound on
// its value over all genomes — the input to moea.RefPoint for the
// hypervolume reference point.
func (p *Problem) ObjectiveMaxes() []float64 {
	return append([]float64(nil), p.maxes...)
}

// ObjectiveValues evaluates a genome and reports the per-objective
// values in natural units: fixed-point objectives (yield loss) are
// divided by their scale, everything else is returned as the optimizer
// saw it.
func (p *Problem) ObjectiveValues(g moea.Genome) []float64 {
	out := make([]float64, p.NumObjectives())
	p.Evaluate(g, out)
	for k, s := range p.scales {
		if s != 1 {
			out[k] /= s
		}
	}
	return out
}

// Evaluate computes the objective vector for a hardening genome: the
// base vector plus the row of every set or forced bit.
func (p *Problem) Evaluate(g moea.Genome, out []float64) {
	acc := p.base
	for w, word := range g {
		if p.critMask != nil {
			word |= p.critMask[w]
		}
		if word != 0 {
			p.accumulate(&acc, w, word, 0)
		}
	}
	p.store(&acc, out)
}

// EvaluateDelta computes the child's objective vector from its base's
// by walking only the bits where the two genomes differ. Forced bits
// are masked out of the difference first — with critMask OR'd into
// every evaluation, their flips cannot change any sum. If the genomes
// differ in more than deltaLimit effective bits the method declines
// (returns false) and the caller evaluates fully; the cutoff depends
// only on the genomes, so the delta/full split is identical at every
// worker count. All arithmetic stays in int64 on top of the base's
// integer-valued objectives, so the result is bit-identical to a full
// evaluation.
func (p *Problem) EvaluateDelta(g, base moea.Genome, baseObj, out []float64) bool {
	if len(g) != len(base) {
		return false
	}
	// Words with no effective difference (the vast majority) cost one
	// XOR and a branch. Declining mid-scan leaves out untouched, and the
	// count reaching the limit does not depend on scan order, so the
	// delta/full split is unchanged.
	var acc row
	for k := range p.names {
		acc[k] = int64(baseObj[k])
	}
	n := 0
	for w := range g {
		d := g[w] ^ base[w]
		if d == 0 {
			continue
		}
		if p.critMask != nil {
			d &^= p.critMask[w]
			if d == 0 {
				continue
			}
		}
		if n += bits.OnesCount64(d); n > p.deltaLimit {
			return false
		}
		p.accumulate(&acc, w, d&g[w], d&^g[w])
	}
	p.store(&acc, out)
	return true
}

// accumulate is the one evaluation kernel: within genome word w it adds
// the row of every bit set in on to acc and subtracts the row of every
// bit set in off, unrolled over the maxObjectives slots. The sums stay
// behind acc on purpose: held in locals, they let the compiler load a
// row slot into the register the next TrailingZeros64 (BSF on amd64)
// writes, and BSF then waits on that load — about 1.8× slower on dense
// genomes (BenchmarkEvaluate).
func (p *Problem) accumulate(acc *row, w int, on, off uint64) {
	rows := p.rows[w<<6:]
	for ; on != 0; on &= on - 1 {
		r := &rows[bits.TrailingZeros64(on)]
		acc[0] += r[0]
		acc[1] += r[1]
		acc[2] += r[2]
		acc[3] += r[3]
	}
	for ; off != 0; off &= off - 1 {
		r := &rows[bits.TrailingZeros64(off)]
		acc[0] -= r[0]
		acc[1] -= r[1]
		acc[2] -= r[2]
		acc[3] -= r[3]
	}
}

// store writes the K live slots of acc to out.
func (p *Problem) store(acc *row, out []float64) {
	for k := range p.names {
		out[k] = float64(acc[k])
	}
}

// Primitives returns the hardening candidates in bit-index order.
func (p *Problem) Primitives() []rsn.NodeID { return p.prims }

// Synthesize runs the full robust-RSN synthesis pipeline on a validated
// network and its specification.
func Synthesize(net *rsn.Network, sp *spec.Spec, opt Options) (*Synthesis, error) {
	tel := opt.Telemetry
	start := time.Now()
	var root *telemetry.Span
	if opt.ParentSpan != nil {
		root = opt.ParentSpan.Child("synthesize")
	} else {
		root = tel.StartSpan("synthesize")
	}
	// fail closes the current stage span and the root before surfacing
	// an error, so no span is left open (and lost) on any exit path.
	fail := func(stage *telemetry.Span, err error) (*Synthesis, error) {
		stage.SetStatus("error")
		stage.End()
		root.SetStatus("error")
		root.End()
		return nil, err
	}

	if opt.Resume != nil && opt.Stagnation > 0 {
		return fail(nil, fmt.Errorf("core: Resume cannot be combined with Stagnation: %w", moea.ErrCheckpointMismatch))
	}

	sv := root.Child("validate")
	if err := rsn.Validate(net); err != nil {
		return fail(sv, err)
	}
	sv.End()

	st := root.Child("sp-tree")
	tree, err := sptree.Build(net)
	if err != nil {
		return fail(st, err)
	}
	st.End()
	tree.Publish(tel)

	sa := root.Child("criticality")
	analysis, err := faults.Analyze(net, tree, sp, opt.Analysis)
	if err != nil {
		return fail(sa, err)
	}
	sa.End()
	analysis.Publish(tel)

	// The problem goes to the optimizer undecorated so the executor sees
	// its DeltaProblem path; evaluation accounting lives in the
	// executor, which feeds the "moea.evaluations" counter.
	problem, err := NewProblemWithObjectives(analysis, opt.ForceCritical, opt.Objectives)
	if err != nil {
		return fail(nil, err)
	}
	// ref is the hypervolume reference point over the run's objective
	// set, the one the progress hook measures every front against.
	ref := moea.RefPoint(problem.ObjectiveMaxes()...)

	params := moea.Defaults(net.Stats().Muxes, opt.Generations, opt.Seed)
	if opt.Population > 0 {
		params.Population = opt.Population
	}
	params.Crossover = opt.Crossover
	params.Telemetry = tel
	params.Workers = opt.Workers
	params.Islands = opt.Islands
	workers := params.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if tel != nil || opt.Stagnation > 0 || opt.OnProgress != nil {
		params.OnProgress = progressHook(tel, ref, opt.Stagnation, opt.OnProgress)
	}
	params.Context = opt.Context
	params.Resume = opt.Resume
	if opt.CheckpointFn != nil {
		params.CheckpointFn = opt.CheckpointFn
		params.CheckpointEvery = opt.CheckpointEvery
		if params.CheckpointEvery <= 0 {
			params.CheckpointEvery = 10
		}
	}

	// Diversify the initial population with the two trivial extreme
	// solutions (nothing hardened / everything hardened): they are
	// always Pareto-optimal, so the front spans the full trade-off range
	// from the first generation and the constrained picks of Table I are
	// always defined.
	zeros := moea.NewGenome(problem.NumBits())
	ones := moea.NewGenome(problem.NumBits())
	for i := 0; i < problem.NumBits(); i++ {
		ones.Set(i, true)
	}
	params.Seeds = []moea.Genome{zeros, ones}

	evolveStart := time.Now()
	se := root.Child(opt.Algorithm.String())
	var res *moea.Result
	switch opt.Algorithm {
	case AlgoNSGA2:
		res, err = moea.NSGA2(problem, params)
	default:
		res, err = moea.SPEA2(problem, params)
	}
	if err != nil {
		return fail(se, err)
	}
	if res.Interrupted {
		se.SetStatus("interrupted")
	}
	se.End()
	evolveTime := time.Since(evolveStart)

	s := &Synthesis{
		Net:         net,
		Tree:        tree,
		Spec:        sp,
		Analysis:    analysis,
		Objectives:  problem.ObjectiveNames(),
		MaxCost:     analysis.MaxCost(),
		MaxDamage:   analysis.TotalDamage,
		Generations: res.Generations,
		Evaluations: res.Evaluations,
		DeltaEvals:  res.DeltaEvals,
		FullEvals:   res.FullEvals,
		Islands:     max(params.Islands, 1),
		EvolveTime:  evolveTime,
		Workers:     workers,
		Interrupted: res.Interrupted,
	}
	sx := root.Child("extract")
	must := analysis.MustHardenCount()
	for i := range res.Front {
		s.Front = append(s.Front, solutionFrom(problem, analysis, must, res.Front[i].G))
	}
	sx.End()
	if s.Interrupted {
		root.SetStatus("interrupted")
	}
	root.End()
	tel.Gauge("front.size").Set(float64(len(s.Front)))
	tel.Gauge("synthesize.generations").Set(float64(s.Generations))
	s.Elapsed = time.Since(start)
	return s, nil
}

// progressHook is the run's one per-generation hook. It stamps each
// generation with the engine's per-run effort counters — never a
// collector-wide counter, which concurrent runs sharing the collector
// would inflate — and times it into moea.gen_ms. The convergence record
// (frontStats over the engine's lazily filtered front) is measured only
// for a reader: the hypervolume stagnation window over window
// generations (0 disables), user (if any) through Progress.Record, and,
// without a user hook, tel (nil-safe). The run stops when stagnation or
// the user says so.
func progressHook(tel *telemetry.Collector, ref []float64, window int, user func(Progress) bool) func(moea.Progress) bool {
	genHist := tel.Histogram("moea.gen_ms")
	last := time.Now()
	best, flat := -1.0, 0
	r := &recorder{tel: tel, ref: ref}
	return func(p moea.Progress) bool {
		now := time.Now()
		ms := float64(now.Sub(last)) / float64(time.Millisecond)
		last = now
		genHist.Observe(ms)
		r.p, r.done = p, false
		r.g = telemetry.Generation{Gen: p.Gen, Evaluations: int64(p.Evaluations), ElapsedMS: ms}
		cont := true
		if window > 0 {
			if hv := r.record().Hypervolume; hv > best {
				best, flat = hv, 0
			} else if flat++; flat >= window {
				cont = false
			}
		}
		if user != nil {
			if !user(Progress{Gen: p.Gen, Evaluations: r.g.Evaluations, ElapsedMS: ms, rec: r}) {
				cont = false
			}
		} else if tel != nil {
			r.record()
		}
		r.p, r.done = moea.Progress{}, true
		return cont
	}
}

// recorder holds one generation's convergence record behind
// Progress.Record: stamped with the generation's counters when the hook
// opens it, completed by frontStats and put into tel at most once.
type recorder struct {
	tel  *telemetry.Collector
	ref  []float64
	p    moea.Progress
	g    telemetry.Generation
	done bool
}

func (r *recorder) record() telemetry.Generation {
	if !r.done {
		g := frontStats(r.p.Front(), r.ref)
		g.Gen, g.Evaluations, g.ElapsedMS = r.g.Gen, r.g.Evaluations, r.g.ElapsedMS
		r.g, r.done = g, true
		r.tel.RecordGeneration(g)
	}
	return r.g
}

// frontStats is the convergence part of a generation record: the front
// size, its hypervolume — measured once, raw and normalized to the
// reference box — and the per-objective bests (0 for an empty front).
func frontStats(front []moea.Individual, ref []float64) telemetry.Generation {
	hv := moea.Hypervolume(front, ref)
	g := telemetry.Generation{Front: len(front), Hypervolume: hv, NormHV: moea.NormalizeHypervolume(hv, ref)}
	if len(front) == 0 {
		return g
	}
	g.BestDamage, g.BestCost = math.Inf(1), math.Inf(1)
	for i := range front {
		if front[i].Obj[0] < g.BestDamage {
			g.BestDamage = front[i].Obj[0]
		}
		if front[i].Obj[1] < g.BestCost {
			g.BestCost = front[i].Obj[1]
		}
	}
	return g
}

// solutionFrom materializes a genome into a Solution from the set bits
// of g | critMask alone: they give Hardened in ID order, the hardening
// cost, the residual damage (the total less the hardened damages) and
// the count of hardened critical-hit primitives, which covers them all
// when it reaches must, the analysis' MustHardenCount. Values come from
// the evaluation kernel.
func solutionFrom(p *Problem, a *faults.Analysis, must int, g moea.Genome) Solution {
	word := func(w int) uint64 {
		if p.critMask != nil {
			return g[w] | p.critMask[w]
		}
		return g[w]
	}
	n := 0
	for w := range g {
		n += bits.OnesCount64(word(w))
	}
	hardened := make([]rsn.NodeID, n)
	costs, damages, critHit := a.Spec.Cost, a.Damage, a.CritHit
	var cost, damage int64
	j, crit := 0, 0
	for w := range g {
		prims := p.prims[w<<6:]
		for x := word(w); x != 0; x &= x - 1 {
			id := prims[bits.TrailingZeros64(x)]
			hardened[j] = id
			j++
			cost += costs[id]
			damage += damages[id]
			if critHit[id] {
				crit++
			}
		}
	}
	return Solution{
		Hardened:        hardened,
		Cost:            cost,
		Damage:          a.TotalDamage - damage,
		CriticalCovered: crit == must,
		Values:          p.ObjectiveValues(g),
	}
}

// MinCostWithDamageAtMost returns the cheapest front solution whose
// residual damage is at most frac times the unhardened damage
// (Table I columns 7-8 use frac = 0.10). ok is false if no front
// solution meets the constraint.
func (s *Synthesis) MinCostWithDamageAtMost(frac float64) (best Solution, ok bool) {
	limit := int64(math.Floor(frac * float64(s.MaxDamage)))
	for _, sol := range s.Front {
		if sol.Damage <= limit && (!ok || sol.Cost < best.Cost) {
			best, ok = sol, true
		}
	}
	return best, ok
}

// MinDamageWithCostAtMost returns the least-damage front solution whose
// hardening cost is at most frac times the full-hardening cost
// (Table I columns 9-10 use frac = 0.10). ok is false if no front
// solution meets the constraint.
func (s *Synthesis) MinDamageWithCostAtMost(frac float64) (best Solution, ok bool) {
	limit := int64(math.Floor(frac * float64(s.MaxCost)))
	for _, sol := range s.Front {
		if sol.Cost <= limit && (!ok || sol.Damage < best.Damage) {
			best, ok = sol, true
		}
	}
	return best, ok
}

// Apply marks exactly the solution's primitives as hardened on the
// network, clearing any earlier marks. The topology is untouched, so all
// existing access patterns remain valid.
func Apply(net *rsn.Network, sol Solution) {
	net.Nodes(func(nd *rsn.Node) { nd.Hardened = false })
	for _, id := range sol.Hardened {
		net.Node(id).Hardened = true
	}
}
