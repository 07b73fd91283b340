package serve

import (
	"encoding/base64"
	"fmt"
	"slices"
	"time"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/icl"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
)

// NetworkRef selects the network a request operates on: exactly one of
// an inline ICL source or a named benchmark generator (the Table I and
// extended suites of internal/benchnets).
type NetworkRef struct {
	ICL  string `json:"icl,omitempty"`
	Name string `json:"name,omitempty"`
}

// SpecRef selects the criticality specification. Generate requests the
// paper's randomized specification (Section VI) under Seed; otherwise
// the designer annotations embedded in the network are used. Named
// benchmark networks carry no annotations, so they always generate.
type SpecRef struct {
	Generate bool  `json:"generate,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	Network NetworkRef `json:"network"`
	Spec    SpecRef    `json:"spec"`
	// Scope selects the fault universe: "all" (default) or "control".
	Scope string `json:"scope,omitempty"`
	// TopDamages bounds the per-primitive damage ranking in the
	// response (0 = omit the ranking).
	TopDamages int `json:"top_damages,omitempty"`
	// DeadlineMS bounds the request (0 = the server's MaxDeadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// DamageEntry is one primitive in the damage ranking.
type DamageEntry struct {
	Name     string `json:"name"`
	Node     int    `json:"node"`
	Damage   int64  `json:"damage"`
	Cost     int64  `json:"cost"`
	Critical bool   `json:"critical"`
}

// AnalyzeResponse is the body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	Network     string        `json:"network"`
	Segments    int           `json:"segments"`
	Muxes       int           `json:"muxes"`
	Instruments int           `json:"instruments"`
	Primitives  int           `json:"primitives"`
	Scope       string        `json:"scope"`
	MaxCost     int64         `json:"max_cost"`
	TotalDamage int64         `json:"total_damage"`
	MustHarden  int           `json:"must_harden"`
	TopDamages  []DamageEntry `json:"top_damages,omitempty"`
	ElapsedMS   float64       `json:"elapsed_ms"`
}

// HardenOptions are the evolutionary knobs of POST /v1/harden.
type HardenOptions struct {
	// Algorithm is "spea2" (default) or "nsga2".
	Algorithm string `json:"algorithm,omitempty"`
	// Generations is the evolutionary budget (default 500, capped by
	// the server's MaxGenerations).
	Generations int `json:"generations,omitempty"`
	// Population overrides the paper-default population size (0 =
	// default, capped by MaxPopulation).
	Population int `json:"population,omitempty"`
	// Seed drives the deterministic run (same request ⇒ same front).
	Seed int64 `json:"seed,omitempty"`
	// Scope selects the fault universe: "all" (default) or "control".
	Scope string `json:"scope,omitempty"`
	// ForceCritical pins the hardening bits of critical-hitting
	// primitives.
	ForceCritical bool `json:"force_critical,omitempty"`
	// Stagnation stops early after N generations without hypervolume
	// improvement (0 = full budget).
	Stagnation int `json:"stagnation,omitempty"`
	// Islands partitions the population into that many independently
	// seeded sub-populations evolving in lockstep with deterministic
	// ring migration (0 or 1 = single population; the two spellings are
	// one cache entry). The result depends only on (seed, islands),
	// never on the server's worker budget.
	Islands int `json:"islands,omitempty"`
	// Objectives names the objectives to optimize (empty = the paper's
	// damage/cost pair). Names are validated against core's objective
	// table and canonicalized — trimmed, deduplicated, reordered —
	// before the run and the cache key, so permutations of the same set
	// are one request.
	Objectives []string `json:"objectives,omitempty"`
	// DeadlineMS bounds the synthesis; an expired deadline returns the
	// partial front with "interrupted": true. 0 = the server's
	// MaxDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// NoCache bypasses the content-addressed result cache (the result
	// is still not stored).
	NoCache bool `json:"no_cache,omitempty"`
	// StreamEvery, for streamed requests, emits a progress event every
	// N generations (0 = adaptive: generation 0 plus at most ~10
	// events/second). Like DeadlineMS and NoCache it is a transport
	// knob, excluded from the result cache key.
	StreamEvery int `json:"stream_every,omitempty"`
	// CheckpointEvery, for streamed requests, emits a "checkpoint" SSE
	// event every N generations whose payload carries the full encoded
	// run state (base64). A client holding the latest blob can resume
	// the job bit-identically on any replica — the fleet coordinator's
	// migration protocol rides on this. Transport knob, excluded from
	// the cache key; ignored on non-streamed requests.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Resume, if non-empty, is a base64-encoded checkpoint blob
	// (as emitted by a "checkpoint" event): the run restores from it and
	// continues bit-identically to an uninterrupted run with the same
	// parameters — same front, same exact evaluation accounting. The
	// request's options must match the checkpointed run (algorithm,
	// seed, population, islands); a mismatch is a 400.
	// Resumed requests bypass the result cache in both directions.
	Resume string `json:"resume,omitempty"`
}

// HardenRequest is the body of POST /v1/harden.
type HardenRequest struct {
	Network NetworkRef    `json:"network"`
	Spec    SpecRef       `json:"spec"`
	Options HardenOptions `json:"options"`

	// resumeCkpt is the decoded Options.Resume blob, populated by
	// validate so the handler never parses the base64 twice.
	resumeCkpt *moea.Checkpoint
}

// FrontPoint is one trade-off point of the returned front. Values
// carries the named per-objective values for runs with a non-default
// objective set; the default damage/cost pair keeps its dedicated
// fields (and its historical wire shape) instead.
type FrontPoint struct {
	Cost            int64              `json:"cost"`
	Damage          int64              `json:"damage"`
	Hardened        int                `json:"hardened"`
	CriticalCovered bool               `json:"critical_covered"`
	Values          map[string]float64 `json:"values,omitempty"`
}

// Picks are the paper's Table I constrained selections; a nil entry
// means no front solution meets the constraint.
type Picks struct {
	Damage10 *FrontPoint `json:"damage10,omitempty"`
	Cost10   *FrontPoint `json:"cost10,omitempty"`
}

// HardenResponse is the body of a successful POST /v1/harden.
type HardenResponse struct {
	Network     string `json:"network"`
	Algorithm   string `json:"algorithm"`
	Seed        int64  `json:"seed"`
	MaxCost     int64  `json:"max_cost"`
	MaxDamage   int64  `json:"max_damage"`
	Generations int    `json:"generations"`
	Evaluations int    `json:"evaluations"`
	// Islands is the island count of the run, present only for
	// multi-island requests.
	Islands int `json:"islands,omitempty"`
	// Objectives is the canonical objective list of the run, present
	// only when it differs from the default damage/cost pair.
	Objectives []string     `json:"objectives,omitempty"`
	Front      []FrontPoint `json:"front"`
	Picks      Picks        `json:"picks"`
	// Interrupted marks a deadline- or drain-truncated run: the front
	// is the best one at the last completed generation boundary.
	Interrupted bool `json:"interrupted"`
	// Cached marks a response served from the content-addressed cache.
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// errorResponse is the body of every non-2xx response. The request ID
// mirrors the X-Request-Id header so a logged body alone is enough to
// join with the server's access log and flight recorder.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// validationError marks a client-side (400) problem.
type validationError struct{ msg string }

func (e *validationError) Error() string { return e.msg }

func invalidf(format string, args ...any) error {
	return &validationError{msg: fmt.Sprintf(format, args...)}
}

// validate checks a NetworkRef without loading it.
func (n NetworkRef) validate() error {
	switch {
	case n.ICL == "" && n.Name == "":
		return invalidf("network: need exactly one of icl or name")
	case n.ICL != "" && n.Name != "":
		return invalidf("network: icl and name are mutually exclusive")
	case n.Name != "":
		if _, ok := benchnets.Lookup(n.Name); !ok {
			return invalidf("network: unknown benchmark %q (see /v1 docs for the suite)", n.Name)
		}
	}
	return nil
}

// load materializes the referenced network. The caller must have
// validated the reference first.
func (n NetworkRef) load() (*rsn.Network, error) {
	if n.Name != "" {
		e, ok := benchnets.Lookup(n.Name)
		if !ok {
			return nil, invalidf("network: unknown benchmark %q", n.Name)
		}
		return benchnets.GenerateEntry(e)
	}
	net, err := icl.ParseString(n.ICL)
	if err != nil {
		return nil, invalidf("network: %v", err)
	}
	return net, nil
}

// buildSpec materializes the criticality specification for net.
func (sr SpecRef) buildSpec(net *rsn.Network, named bool) (*spec.Spec, error) {
	if sr.Generate || named {
		return spec.Generate(net, spec.PaperGenOptions(sr.Seed))
	}
	return spec.FromNetwork(net, spec.DefaultCostModel), nil
}

// parseScope maps the wire scope to the analysis option.
func parseScope(s string) (faults.Scope, error) {
	scope, err := faults.ParseScope(s)
	if err != nil {
		return 0, invalidf("scope: unknown %q (want all or control)", s)
	}
	return scope, nil
}

// parseAlgorithm maps the wire algorithm to the optimizer.
func parseAlgorithm(s string) (core.Algorithm, error) {
	algo, err := core.ParseAlgorithm(s)
	if err != nil {
		return 0, invalidf("algorithm: unknown %q (want spea2 or nsga2)", s)
	}
	return algo, nil
}

// validate checks the harden request against the server's caps and
// fills defaults in place (so the cache key sees canonical values).
func (req *HardenRequest) validate(cfg Config) error {
	if err := req.Network.validate(); err != nil {
		return err
	}
	if _, err := parseAlgorithm(req.Options.Algorithm); err != nil {
		return err
	}
	if _, err := parseScope(req.Options.Scope); err != nil {
		return err
	}
	o := &req.Options
	if o.Generations < 0 || o.Generations > cfg.MaxGenerations {
		return invalidf("generations: %d out of range [0, %d]", o.Generations, cfg.MaxGenerations)
	}
	if o.Population < 0 || o.Population == 1 || o.Population > cfg.MaxPopulation {
		return invalidf("population: %d out of range ({0} ∪ [2, %d])", o.Population, cfg.MaxPopulation)
	}
	if o.Stagnation < 0 {
		return invalidf("stagnation: must be non-negative, got %d", o.Stagnation)
	}
	if o.Islands < 0 || o.Islands > 16 {
		return invalidf("islands: %d out of range [0, 16]", o.Islands)
	}
	if o.Islands > 1 && o.Population > 0 && o.Population < 2*o.Islands {
		return invalidf("islands: population %d cannot seed %d islands (need ≥ 2 per island)", o.Population, o.Islands)
	}
	if o.DeadlineMS < 0 {
		return invalidf("deadline_ms: must be non-negative, got %d", o.DeadlineMS)
	}
	if o.StreamEvery < 0 {
		return invalidf("stream_every: must be non-negative, got %d", o.StreamEvery)
	}
	if o.CheckpointEvery < 0 {
		return invalidf("checkpoint_every: must be non-negative, got %d", o.CheckpointEvery)
	}
	if o.Resume != "" {
		if o.Stagnation > 0 {
			return invalidf("resume: cannot be combined with stagnation (the early-stop state is not checkpointed)")
		}
		blob, err := base64.StdEncoding.DecodeString(o.Resume)
		if err != nil {
			return invalidf("resume: not valid base64: %v", err)
		}
		cp, err := moea.DecodeCheckpoint(blob)
		if err != nil {
			return invalidf("resume: %v", err)
		}
		req.resumeCkpt = cp
	}
	return req.canonicalizeKeyFields()
}

// canonicalizeKeyFields normalizes, in place, exactly the fields that
// feed the content-addressed cache key, so that spellings with the same
// result share one key: the generations default, the single-island
// collapse, the objective-set canonical form, and the spellings the
// run ignores, which fold toward the omitted form. validate applies it
// after the range checks; HardenBodyCacheKey applies it on its own so
// the fleet coordinator derives the same key a worker will, without a
// server Config. Keeping both callers on this one method is what
// guarantees the coordinator's and workers' cache address spaces never
// drift.
func (req *HardenRequest) canonicalizeKeyFields() error {
	if req.Network.Name != "" {
		// Named networks always generate their spec (buildSpec).
		req.Spec.Generate = false
	} else if !req.Spec.Generate {
		// Only a generated spec reads its seed.
		req.Spec.Seed = 0
	}
	o := &req.Options
	// parseAlgorithm and parseScope read "" as these defaults.
	if o.Algorithm == "spea2" {
		o.Algorithm = ""
	}
	if o.Scope == "all" {
		o.Scope = ""
	}
	if o.Generations == 0 {
		o.Generations = 500
	}
	if o.Islands == 1 {
		// A single island is the single-population run; collapse so both
		// spellings share one cache entry.
		o.Islands = 0
	}
	if len(o.Objectives) > 0 {
		// Canonicalize in place so permutations and duplicates of the
		// same objective set hash to one cache key; an unknown name is a
		// 400 that lists what the server actually provides.
		objs, err := core.CanonicalObjectives(o.Objectives)
		if err != nil {
			return invalidf("objectives: %v", err)
		}
		// An explicit spelling of the default pair collapses to the
		// empty form, so it shares the default's cache entry and wire
		// shape.
		if slices.Equal(objs, core.DefaultObjectives()) {
			objs = nil
		}
		o.Objectives = objs
	}
	return nil
}

// validate checks the analyze request against the server's caps.
func (req *AnalyzeRequest) validate(cfg Config) error {
	if err := req.Network.validate(); err != nil {
		return err
	}
	if _, err := parseScope(req.Scope); err != nil {
		return err
	}
	if req.TopDamages < 0 {
		return invalidf("top_damages: must be non-negative, got %d", req.TopDamages)
	}
	if req.DeadlineMS < 0 {
		return invalidf("deadline_ms: must be non-negative, got %d", req.DeadlineMS)
	}
	return nil
}

// clampDeadline resolves a requested deadline against the server cap.
func clampDeadline(ms int64, cap time.Duration) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 || d > cap {
		return cap
	}
	return d
}
