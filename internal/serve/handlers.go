package serve

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/sptree"
	"rsnrobust/internal/telemetry"
)

// decodeBody reads the request body once under the configured size cap
// and decodes it into v, whose network reference is net. On failure it
// writes the error response (413 over the cap, 400 otherwise) and
// returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, net *NetworkRef) bool {
	body, status, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		WriteError(w, r, status, err.Error())
		return false
	}
	if err := decodeRequest(body, v, net); err != nil {
		WriteError(w, r, http.StatusBadRequest, "body: "+err.Error())
		return false
	}
	return true
}

// admit runs the common gatekeeping of the two compute endpoints:
// drain refusal and queue admission with backpressure. The returned
// release func must be called when the request is done; ok=false means
// the response has already been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.Draining() {
		w.Header().Set("Connection", "close")
		WriteError(w, r, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	if !s.queue.enter() {
		sec := s.queue.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		WriteError(w, r, http.StatusTooManyRequests,
			fmt.Sprintf("queue full (%d running + %d waiting); retry after ~%ds",
				s.cfg.Workers, s.cfg.QueueDepth, sec))
		return nil, false
	}
	if err := s.queue.acquire(r.Context()); err != nil {
		s.queue.leave()
		WriteError(w, r, http.StatusServiceUnavailable, "cancelled while queued: "+err.Error())
		return nil, false
	}
	return func() {
		s.queue.release()
		s.queue.leave()
	}, true
}

// jobErrorStatus maps a failed job to the status and message of the
// uniform error response.
func jobErrorStatus(err error) (int, string) {
	var ve *validationError
	var pe *moea.PanicError
	switch {
	case errors.As(err, &ve):
		return http.StatusBadRequest, ve.Error()
	case errors.As(err, &pe):
		return http.StatusInternalServerError, fmt.Sprintf("job panicked: %v", pe.Value)
	case errors.Is(err, moea.ErrInterrupted):
		return http.StatusServiceUnavailable, "job skipped: " + err.Error()
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// finishJobError maps a failed job to an HTTP response.
func finishJobError(w http.ResponseWriter, r *http.Request, err error) {
	status, msg := jobErrorStatus(err)
	WriteError(w, r, status, msg)
}

// handleAnalyze serves POST /v1/analyze: parse/generate → validate →
// SP-tree → exact criticality analysis, as a queued job.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.decodeBody(w, r, &req, &req.Network) {
		return
	}
	if err := req.validate(s.cfg); err != nil {
		WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	job := telemetry.FlightJob{Route: "analyze", Network: req.Network.Name}
	resp, dur, err := runJob(s, r, job, clampDeadline(req.DeadlineMS, s.cfg.MaxDeadline),
		func(_ context.Context, sp *telemetry.Span, _ func(int)) (*AnalyzeResponse, error) {
			return s.analyze(&req, sp)
		})
	if err != nil {
		finishJobError(w, r, err)
		return
	}
	resp.ElapsedMS = float64(dur) / float64(time.Millisecond)
	WriteJSON(w, http.StatusOK, resp)
}

// analyze is the body of one analyze job. Each stage runs under its own
// child of the job's span: load, validate, spec, sp-tree and
// criticality.
func (s *Server) analyze(req *AnalyzeRequest, span *telemetry.Span) (*AnalyzeResponse, error) {
	scope, err := parseScope(req.Scope)
	if err != nil {
		return nil, err
	}
	stage := span.Child("load")
	net, err := req.Network.load()
	if err != nil {
		return nil, failStage(stage, err)
	}
	stage.End()
	stage = span.Child("validate")
	if err := rsn.Validate(net); err != nil {
		return nil, failStage(stage, invalidf("network: %v", err))
	}
	stage.End()
	stage = span.Child("spec")
	sp, err := req.Spec.buildSpec(net, req.Network.Name != "")
	if err != nil {
		return nil, failStage(stage, invalidf("spec: %v", err))
	}
	stage.End()
	stage = span.Child("sp-tree")
	tree, err := sptree.Build(net)
	if err != nil {
		return nil, failStage(stage, invalidf("sp-tree: %v", err))
	}
	stage.End()
	stage = span.Child("criticality")
	opts := faults.DefaultOptions()
	opts.Scope = scope
	a, err := faults.Analyze(net, tree, sp, opts)
	if err != nil {
		return nil, failStage(stage, err)
	}
	stage.End()

	st := net.Stats()
	resp := &AnalyzeResponse{
		Network:     net.Name,
		Segments:    st.Segments,
		Muxes:       st.Muxes,
		Instruments: st.Instruments,
		Primitives:  len(a.Prims),
		Scope:       scope.String(),
		MaxCost:     a.MaxCost(),
		TotalDamage: a.TotalDamage,
		MustHarden:  a.MustHardenCount(),
	}
	if req.TopDamages > 0 {
		ranked := append([]rsn.NodeID(nil), a.Prims...)
		sort.SliceStable(ranked, func(i, j int) bool {
			return a.Damage[ranked[i]] > a.Damage[ranked[j]]
		})
		if len(ranked) > req.TopDamages {
			ranked = ranked[:req.TopDamages]
		}
		for _, id := range ranked {
			nd := net.Node(id)
			resp.TopDamages = append(resp.TopDamages, DamageEntry{
				Name:     nd.Name,
				Node:     int(id),
				Damage:   a.Damage[id],
				Cost:     a.Spec.Cost[id],
				Critical: a.CritHit[id],
			})
		}
	}
	return resp, nil
}

// failStage ends a job stage's span as failed and returns err.
func failStage(stage *telemetry.Span, err error) error {
	stage.SetStatus("error")
	stage.End()
	return err
}

// handleHarden serves POST /v1/harden: the full synthesis pipeline as
// a queued, deadline-bounded, cached job. With `Accept:
// text/event-stream` (or ?stream=1) the response is an SSE stream of
// per-generation progress events, terminated by a "result" event whose
// payload is byte-identical to the plain JSON response for the same
// request — live progress is a transport decoration, not a different
// computation, so the streaming knobs stay out of the cache key.
func (s *Server) handleHarden(w http.ResponseWriter, r *http.Request) {
	var req HardenRequest
	if !s.decodeBody(w, r, &req, &req.Network) {
		return
	}
	if err := req.validate(s.cfg); err != nil {
		WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	stream := WantStream(r)
	key := req.CacheKey()
	// Stamp the content address on every harden response — cached or
	// fresh, plain or streamed, even a later 4xx/5xx — so callers (and
	// the fleet coordinator in particular) can correlate responses with
	// cache entries without recomputing the hash.
	w.Header().Set(CacheKeyHeader, key)
	// A resumed request bypasses the cache in both directions: it exists
	// to continue a specific interrupted run, and a cached terminal
	// answer would skip the continuation the caller is orchestrating.
	useCache := !req.Options.NoCache && req.Options.Resume == ""
	if useCache {
		if data, ok := s.cache.Get(key); ok {
			var sse *SSEWriter
			if stream {
				sse, _ = StartSSE(w)
			}
			writeResult(w, sse, data)
			return
		}
	}
	// Admission before the SSE upgrade: a 429/503 rejection stays a
	// plain JSON response with Retry-After, whatever the client asked.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	var sse *SSEWriter
	if stream {
		sse, _ = StartSSE(w) // nil when the writer cannot flush: answer plain
	}

	throttle := newStreamThrottle(req.Options.StreamEvery)
	// streamProgress emits the generations the stream admits. The job
	// runs on this goroutine (the queue degrades its single-job RunSet to
	// a serial loop), so emitting SSE frames from the progress hook needs
	// no synchronization. Only a generation the stream emits is measured,
	// and so recorded in the server's collector.
	streamProgress := func(p core.Progress) {
		if sse == nil || sse.Err() != nil || !throttle.admit(p.Gen, time.Now()) {
			return
		}
		g := p.Record()
		sse.Event("generation", generationEvent{
			Gen:         g.Gen,
			Front:       g.Front,
			Hypervolume: g.Hypervolume,
			NormHV:      g.NormHV,
			Evaluations: g.Evaluations,
			ElapsedMS:   g.ElapsedMS,
		})
	}
	// Checkpoint streaming: every CheckpointEvery generations the full
	// encoded run state rides the stream as a "checkpoint" event, so the
	// caller (the fleet coordinator, typically) can resume the job
	// elsewhere if this worker dies. The blob is encoded inside the
	// callback — the *moea.Checkpoint aliases live engine buffers. A
	// write failure (client gone) is NOT a job error: the run keeps
	// going and the request context handles the disconnect.
	var onCheckpoint func(*moea.Checkpoint) error
	if sse != nil && req.Options.CheckpointEvery > 0 {
		ckpts := s.tel.Counter("serve.checkpoints.streamed")
		onCheckpoint = func(cp *moea.Checkpoint) error {
			blob := moea.EncodeCheckpoint(cp)
			sse.Event("checkpoint", checkpointEvent{
				Gen:  cp.Generation,
				Blob: base64.StdEncoding.EncodeToString(blob),
			})
			if sse.Err() == nil {
				ckpts.Inc()
			}
			return nil
		}
	}
	job := telemetry.FlightJob{Route: "harden", Network: req.Network.Name, CacheKey: key}
	resp, _, err := runJob(s, r, job, clampDeadline(req.Options.DeadlineMS, s.cfg.MaxDeadline),
		func(ctx context.Context, sp *telemetry.Span, progress func(int)) (*HardenResponse, error) {
			onProgress := func(p core.Progress) bool {
				progress(p.Gen + 1)
				streamProgress(p)
				return true
			}
			return s.harden(ctx, &req, sp, onProgress, onCheckpoint)
		})
	if err != nil {
		if sse != nil {
			status, msg := jobErrorStatus(err)
			sse.ErrorEvent(r, status, msg)
			return
		}
		finishJobError(w, r, err)
		return
	}
	payload := encodePayload(resp)
	if resp.Interrupted {
		s.tel.Counter("serve.jobs.interrupted").Inc()
	} else if useCache {
		s.cache.Put(key, payload)
	}
	writeResult(w, sse, payload)
}

// writeResult answers with an encoded harden result: the terminal
// "result" event when sse is non-nil, a plain 200 otherwise.
func writeResult(w http.ResponseWriter, sse *SSEWriter, payload []byte) {
	if sse != nil {
		sse.Raw("result", payload)
		return
	}
	WritePayload(w, http.StatusOK, payload)
}

// harden is the body of one harden job: a full, self-contained
// synthesis parented under the job's telemetry span. onProgress, if
// non-nil, receives the run's exact per-generation progress;
// onCheckpoint, if non-nil, receives the periodic run state for
// checkpoint streaming.
func (s *Server) harden(ctx context.Context, req *HardenRequest, span *telemetry.Span, onProgress func(core.Progress) bool, onCheckpoint func(*moea.Checkpoint) error) (*HardenResponse, error) {
	net, err := req.Network.load()
	if err != nil {
		return nil, err
	}
	sp, err := req.Spec.buildSpec(net, req.Network.Name != "")
	if err != nil {
		return nil, invalidf("spec: %v", err)
	}
	o := req.Options
	algo, err := parseAlgorithm(o.Algorithm)
	if err != nil {
		return nil, err
	}
	scope, err := parseScope(o.Scope)
	if err != nil {
		return nil, err
	}

	opt := core.DefaultOptions(o.Generations, o.Seed)
	opt.Algorithm = algo
	opt.Analysis.Scope = scope
	opt.Population = o.Population
	opt.ForceCritical = o.ForceCritical
	opt.Stagnation = o.Stagnation
	opt.Islands = o.Islands
	opt.Objectives = o.Objectives
	opt.Workers = s.cfg.EvalWorkers
	opt.Context = ctx
	opt.Telemetry = s.tel
	opt.ParentSpan = span
	opt.OnProgress = onProgress
	if onCheckpoint != nil {
		opt.CheckpointFn = onCheckpoint
		opt.CheckpointEvery = o.CheckpointEvery
	}
	if req.resumeCkpt != nil {
		opt.Resume = req.resumeCkpt
	}

	syn, err := core.Synthesize(net, sp, opt)
	if err != nil {
		return nil, invalidf("synthesize: %v", err)
	}

	resp := &HardenResponse{
		Network:     net.Name,
		Algorithm:   algo.String(),
		Seed:        o.Seed,
		MaxCost:     syn.MaxCost,
		MaxDamage:   syn.MaxDamage,
		Generations: syn.Generations,
		Evaluations: syn.Evaluations,
		Interrupted: syn.Interrupted,
		ElapsedMS:   float64(syn.Elapsed) / float64(time.Millisecond),
	}
	if syn.Islands > 1 {
		resp.Islands = syn.Islands
	}
	// Only a non-default objective set surfaces on the wire: the
	// historical damage/cost responses keep their exact shape, while a
	// K-objective run names its axes and labels every point's values.
	var names []string
	if len(o.Objectives) > 0 {
		names = syn.Objectives
		resp.Objectives = names
	}
	for _, sol := range syn.Front {
		resp.Front = append(resp.Front, frontPoint(sol, names))
	}
	if sol, ok := syn.MinCostWithDamageAtMost(0.10); ok {
		fp := frontPoint(sol, names)
		resp.Picks.Damage10 = &fp
	}
	if sol, ok := syn.MinDamageWithCostAtMost(0.10); ok {
		fp := frontPoint(sol, names)
		resp.Picks.Cost10 = &fp
	}
	return resp, nil
}

// frontPoint maps one solution to the wire; names, when non-nil, keys
// the solution's objective values (JSON object keys marshal sorted, so
// the encoding stays deterministic).
func frontPoint(sol core.Solution, names []string) FrontPoint {
	fp := FrontPoint{
		Cost:            sol.Cost,
		Damage:          sol.Damage,
		Hardened:        len(sol.Hardened),
		CriticalCovered: sol.CriticalCovered,
	}
	if len(names) > 0 && len(sol.Values) >= len(names) {
		fp.Values = make(map[string]float64, len(names))
		for i, n := range names {
			fp.Values[n] = sol.Values[i]
		}
	}
	return fp
}

// Readiness is the body of GET /readyz: "ready", or "draining" (503)
// once draining, so load balancers rotate this instance out while
// in-flight work completes. Running and Waiting are the admission
// queue's jobs, the load a fleet coordinator routes by.
type Readiness struct {
	Status  string  `json:"status"`
	Running float64 `json:"running"`
	Waiting float64 `json:"waiting"`
}

// handleReadyz serves GET /readyz: the server's Readiness.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := Readiness{Status: "ready", Running: s.queue.running.Value(), Waiting: s.queue.waiting.Value()}
	status := http.StatusOK
	if s.Draining() {
		ready.Status, status = "draining", http.StatusServiceUnavailable
	}
	WriteJSON(w, status, ready)
}

// handleJobs serves GET /v1/jobs: the flight recorder's running jobs
// with their live generation progress, and its finished ones, without
// span trees.
func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.flight.Jobs())
}

// handleFlight serves GET /debug/flight: the flight recorder's ring of
// completed jobs with their span trees — the black box a live (or
// misbehaving) process can always be asked about. ?trace_id= narrows
// the answer to one job.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	fr := s.Flight()
	if fr == nil {
		WriteError(w, r, http.StatusNotFound, "flight recorder disabled")
		return
	}
	if id := r.URL.Query().Get("trace_id"); id != "" {
		job, ok := fr.Find(id)
		if !ok {
			WriteError(w, r, http.StatusNotFound, fmt.Sprintf("no recorded job with trace_id %q", id))
			return
		}
		WriteJSON(w, http.StatusOK, job)
		return
	}
	WriteJSON(w, http.StatusOK, fr.Snapshot())
}
