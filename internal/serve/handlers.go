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

// jobStatus classifies a finished job for the registry and the flight
// recorder: "ok", "error", "panic" or "interrupted".
func jobStatus(err error, interrupted bool) string {
	var pe *moea.PanicError
	switch {
	case errors.As(err, &pe):
		return "panic"
	case err != nil:
		return "error"
	case interrupted:
		return "interrupted"
	default:
		return "ok"
	}
}

// completeFlight seals one finished job into the flight recorder,
// claiming the span tree that accumulated under the request's trace ID
// while the job ran. Call it after runQueued returns — by then every
// span of the job (the runset root included) has ended.
func (s *Server) completeFlight(r *http.Request, label, detail string, start time.Time, gens int, err error, interrupted bool) {
	if s.flight == nil {
		return
	}
	tc, ok := telemetry.TraceFrom(r.Context())
	if !ok {
		return
	}
	job := telemetry.FlightJob{
		TraceID:     tc.TraceID,
		Label:       label,
		Detail:      detail,
		Start:       start,
		DurMS:       float64(time.Since(start)) / float64(time.Millisecond),
		Status:      jobStatus(err, interrupted),
		Generations: gens,
	}
	if id, ok := telemetry.RequestIDFrom(r.Context()); ok {
		job.RequestID = id
	}
	if err != nil {
		job.Error = err.Error()
		var pe *moea.PanicError
		if errors.As(err, &pe) {
			job.PanicStack = string(pe.Stack)
		}
	}
	s.flight.Complete(job)
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

	ctx, cancel := s.jobContext(r.Context())
	defer cancel()
	deadline := clampDeadline(req.DeadlineMS, s.cfg.MaxDeadline)
	t0 := time.Now()
	jobID := s.jobs.begin(s.jobInfo(r, "analyze", req.Network))
	resp, err := runQueued(s, ctx, "analyze", deadline, func(jctx context.Context, sp *telemetry.Span) (*AnalyzeResponse, error) {
		return s.analyze(&req, sp)
	})
	s.jobs.finish(jobID, jobStatus(err, false), errString(err), time.Since(t0))
	s.completeFlight(r, "analyze", req.Network.Name, t0, 0, err, false)
	if err != nil {
		finishJobError(w, r, err)
		return
	}
	resp.ElapsedMS = float64(time.Since(t0)) / float64(time.Millisecond)
	WriteJSON(w, http.StatusOK, resp)
}

// jobInfo seeds a registry entry with the request's correlation IDs.
func (s *Server) jobInfo(r *http.Request, route string, net NetworkRef) JobInfo {
	info := JobInfo{Route: route, Network: net.Name, Started: time.Now()}
	if tc, ok := telemetry.TraceFrom(r.Context()); ok {
		info.TraceID = tc.TraceID
	}
	if id, ok := telemetry.RequestIDFrom(r.Context()); ok {
		info.RequestID = id
	}
	return info
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
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

	ctx, cancel := s.jobContext(r.Context())
	defer cancel()
	deadline := clampDeadline(req.Options.DeadlineMS, s.cfg.MaxDeadline)

	var sse *SSEWriter
	if stream {
		sse, _ = StartSSE(w) // nil when the writer cannot flush: answer plain
	}

	t0 := time.Now()
	info := s.jobInfo(r, "harden", req.Network)
	info.CacheKey = key
	jobID := s.jobs.begin(info)
	throttle := newStreamThrottle(req.Options.StreamEvery)
	// The job runs on this goroutine (the queue degrades its single-job
	// RunSet to a serial loop), so emitting SSE frames from the progress
	// hook needs no synchronization. Only a generation the stream emits
	// is measured, and so recorded in the server's collector; the jobs
	// registry reads the generation index alone.
	onProgress := func(p core.Progress) bool {
		s.jobs.progress(jobID, p.Gen)
		if sse != nil && sse.Err() == nil && throttle.admit(p.Gen, time.Now()) {
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
		return true
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
	resp, err := runQueued(s, ctx, "harden", deadline, func(jctx context.Context, sp *telemetry.Span) (*HardenResponse, error) {
		return s.harden(jctx, &req, sp, onProgress, onCheckpoint)
	})
	interrupted := err == nil && resp.Interrupted
	s.jobs.finish(jobID, jobStatus(err, interrupted), errString(err), time.Since(t0))
	gens := 0
	if resp != nil {
		gens = resp.Generations
	}
	s.completeFlight(r, "harden", req.Network.Name, t0, gens, err, interrupted)
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

// handleReadyz reports readiness: 503 once draining so load balancers
// rotate this instance out while in-flight work completes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleFlight serves GET /debug/flight: the flight recorder's ring of
// completed jobs with their span trees — the black box a live (or
// misbehaving) process can always be asked about. ?trace_id= narrows
// the answer to one job.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		WriteError(w, r, http.StatusNotFound, "flight recorder disabled")
		return
	}
	if id := r.URL.Query().Get("trace_id"); id != "" {
		job, ok := s.flight.Find(id)
		if !ok {
			WriteError(w, r, http.StatusNotFound, fmt.Sprintf("no recorded job with trace_id %q", id))
			return
		}
		WriteJSON(w, http.StatusOK, job)
		return
	}
	WriteJSON(w, http.StatusOK, s.flight.Snapshot())
}
