# Tier-1 gate: everything `make ci` runs must stay green.

GO ?= go

.PHONY: ci fmt vet lint build test race determinism serve-smoke chaos chaos-fleet chaos-cache perfbench artifacts-check fuzz bench bench-smoke clean

ci: fmt vet lint build race determinism serve-smoke chaos-fleet chaos-cache perfbench artifacts-check

# Formatting gate: fails when gofmt would rewrite any tracked Go file,
# naming the files.
GOFMT ?= gofmt

fmt:
	@out=$$($(GOFMT) -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is pinned and fetched through
# the module proxy via `go run`; when the fetch fails (no network), the
# target reports the skip rather than breaking `make ci`, which runs
# `vet` on its own.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2024.1.1

lint:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./... ; \
	else \
		echo "lint: skipped, staticcheck unavailable (no module proxy access)" ; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Determinism gate: identical fronts, picks and evaluation counts at
# every worker count, scheduler job count, island count, with
# incremental (delta) evaluation against the full-evaluation oracle,
# across checkpoint/resume boundaries, and under injected faults.
# WorkerInvariance also matches the island-count invariance matrix
# (islands x workers); SelectionMatchesReference holds SPEA-2 selection
# (density only where the archive or the fill's sort reads it, 2-D chain
# truncation) to the brute-force whole-union oracle bit for bit;
# ParetoFilterMatchesPairwise holds the 2-D front sweep to the pairwise
# scan; SynthesizeFingerprints pins the fronts, evaluation counts and
# progress records of underfull and overfull Table I rows by hash;
# AnalyzeFingerprints pins the criticality analysis (universe, damages,
# critical hits) of Table I and random networks under every option
# combination by hash; ProblemEvaluateMatchesAnalysis holds every slot
# of every objective subset's evaluation to a reference that does not
# read the problem's rows; ProgressMeasuresOnlyWhenRead holds the lazy
# generation records to the every-generation reader's and the
# stagnation stops to their pinned generations; CheckpointBytesPinned
# pins the encoded checkpoint of single-population and island runs by
# hash; SolutionFromMatchesMasks holds every field of front extraction
# from set bits to its mask-based reference; GapSamplerMatchesLog holds
# the table-driven geometric sampler to int(math.Log(u)/logq) at random
# u and around every integer step, and SamplerDrawsUnchanged holds
# mutation and initialization to the math.Log loops, RNG position
# included. The CLI goldens pin whole stdouts: rsnharden's 3-objective
# run and its multi-seed sweep at one and two jobs, and table1's
# optimizer ablation (time column dropped); CheckpointResumeCLI holds a
# table1 row resumed from its checkpoint directory to the uninterrupted
# row.
determinism:
	$(GO) test -run 'WorkerDeterminism|WorkerInvariance|RunSetDeterminism|DeltaOracle|ResumeEquivalence|ChaosGraceful|SelectionMatchesReference|SynthesizeFingerprints|ParetoFilterMatchesPairwise|AnalyzeFingerprints|ProblemEvaluateMatchesAnalysis|ProgressMeasuresOnlyWhenRead|CheckpointBytesPinned|SolutionFromMatchesMasks|GapSamplerMatchesLog|SamplerDrawsUnchanged|GoldenCLI|CheckpointResumeCLI' ./internal/core ./internal/moea ./internal/chaos ./internal/faults ./cmd/rsnharden ./cmd/table1

# Service smoke gate: boot rsnserve on a loopback port and drive the
# end-to-end battery (analyze, harden, cache hit, deadline truncation,
# an over-cap body answered 413, concurrent burst, metrics) through the
# real HTTP stack.
serve-smoke:
	$(GO) run ./cmd/rsnserve -selftest

# Chaos gate: the fault-injection suite (panics, cancellation, delays,
# corrupted checkpoints, crash-recovery drills) under the race
# detector.
chaos:
	$(GO) test -race ./internal/chaos

# Fleet chaos gate: the coordinator's dispatch/retry/breaker drills and
# the checkpoint-migration kill drills — including the cross-process
# SIGKILL drill in cmd/rsnserve — under the race detector. The run
# regex keeps the gate targeted; `make race` still covers everything.
chaos-fleet:
	$(GO) test -race -run 'Proxy|Breaker|Dispatch|Fleet|Migration|HalfOpen|NoHealthy|Trace|Analyze|Coordinator' ./internal/chaos ./internal/fleet ./cmd/rsnserve

# Fleet cache gate: the result-cache drills under the race detector —
# L1 repeats (plain, streamed, and after a SIGKILL-forced migration),
# least-loaded routing and the registry clamp/health regressions,
# Retry-After parsing, the unit tests of the one result cache type
# both layers run on (LRU eviction, one "cached" flip per hit, hits
# owned by the caller, disabled semantics), and the cache key, with
# one key for every spelling of a request.
chaos-cache:
	$(GO) test -race -run 'FleetCache|RegistryPick|RegistryMark|RetryAfter|ResultCache|CacheKey' ./internal/fleet ./internal/serve

# Benchmark gate: perfbench is a module of its own, so ./... above never
# compiles it, yet it calls icl, benchnets, rsn, spec, serve and core
# directly. Vet it and run its self-tests, so an API change that breaks
# only the benchmark fails here.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Artifact gate: regenerate three committed outputs from the current
# tree and fail on any difference: ftcompare.txt byte for byte, and
# ablation.txt (table1 -ablate) and table1_control.md (table1 -paper
# -format markdown) in every column but their wall-clock time, the last
# field of an ablation line and the 12th |-separated field of a Table I
# row. The universe-all table1_all.md takes minutes and stays a manual
# check.
NO_TIME_ABLATION = awk '{ $$NF = "" } 1'
NO_TIME_TABLE1 = awk -F'|' 'NR > 2 { $$12 = "" } 1'

artifacts-check:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/" ./cmd/ftcompare ./cmd/table1; \
	"$$d/ftcompare" > "$$d/ftcompare.txt" 2> "$$d/log" || { cat "$$d/log"; exit 1; }; \
	"$$d/table1" -ablate > "$$d/ablation.txt" 2> "$$d/log" || { cat "$$d/log"; exit 1; }; \
	"$$d/table1" -paper -format markdown > "$$d/table1_control.md" 2> "$$d/log" || { cat "$$d/log"; exit 1; }; \
	diff ftcompare.txt "$$d/ftcompare.txt"; \
	$(NO_TIME_ABLATION) ablation.txt > "$$d/want"; $(NO_TIME_ABLATION) "$$d/ablation.txt" > "$$d/got"; \
	diff "$$d/want" "$$d/got"; \
	$(NO_TIME_TABLE1) table1_control.md > "$$d/want"; $(NO_TIME_TABLE1) "$$d/table1_control.md" > "$$d/got"; \
	diff "$$d/want" "$$d/got"; \
	echo "artifacts-check: ftcompare.txt, ablation.txt and table1_control.md reproduce"

# Short fuzz pass over the hostile-input decoders — the ICL parser, the
# checkpoint codec and the one-pass request-body decoder against
# encoding/json — over the 2-D front sweep against the pairwise filter,
# and over the geometric gap sampler against int(math.Log(u)/logq).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParseICL -fuzztime=30s ./internal/icl
	$(GO) test -run=NONE -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzCheckpointDecode -fuzztime=30s ./internal/moea
	$(GO) test -run=NONE -fuzz=FuzzParetoFilter -fuzztime=30s ./internal/moea
	$(GO) test -run=NONE -fuzz=FuzzGeometricGap -fuzztime=30s ./internal/moea

# The root package's benchmarks, then, on one CPU, the by-name
# MBIST_5_100_20 analyze job body (load, validate, spec, SP tree,
# criticality), a served 150-generation TreeFlat_Ex harden miss, plain
# and streamed, paper-rate mutation of a 48-bit and a 30,537-bit genome
# and density-0.25 initialization of the larger, and the extraction of
# a 300-point MBIST_5_20_20 front.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
	$(GO) test -bench='AnalyzeNamed|HardenServed' -benchmem -cpu 1 -run=^$$ ./internal/serve
	$(GO) test -bench='MutateBits|Randomize' -benchmem -cpu 1 -run=^$$ ./internal/moea
	$(GO) test -bench=ExtractFront -benchmem -cpu 1 -run=^$$ ./internal/core

# One-command perf smoke: every Table I row once at the reduced bench
# budget, to spot regressions before committing.
bench-smoke:
	$(GO) test -run=NONE -bench=Table1 -benchtime=1x .

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof
