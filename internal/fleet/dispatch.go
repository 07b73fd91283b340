package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rsnrobust/internal/serve"
	"rsnrobust/internal/telemetry"
)

// hardenJob is one client harden request as the dispatcher carries it
// across attempts: the raw request document with its options decoded
// for patching, plus the freshest checkpoint captured from a worker
// stream — the job's migration state.
type hardenJob struct {
	top  map[string]json.RawMessage
	opts map[string]any

	// clientCkpt records that the client itself asked for checkpoint
	// events, which the coordinator then relays.
	clientCkpt bool

	// noCache records options.no_cache: the client opted out of the
	// result cache, so the coordinator must not consult or fill its L1.
	noCache bool

	resume    string // latest checkpoint blob (base64), "" before the first
	resumeGen int
	// haveCkpt marks that resume came from a worker stream during this
	// dispatch (as opposed to a client-supplied options.resume), so a
	// re-dispatch is a genuine migration.
	haveCkpt bool
}

// newHardenJob parses the client body and injects the coordinator's
// checkpoint cadence when the client did not choose one. The document
// is kept as raw JSON maps so unknown fields survive the round trip and
// the worker stays the single source of validation truth.
func newHardenJob(body []byte, ckptEvery int) (*hardenJob, error) {
	j := &hardenJob{}
	if err := json.Unmarshal(body, &j.top); err != nil {
		return nil, fmt.Errorf("request body is not a JSON object: %w", err)
	}
	j.opts = map[string]any{}
	if raw, ok := j.top["options"]; ok {
		if err := json.Unmarshal(raw, &j.opts); err != nil {
			return nil, fmt.Errorf("options is not a JSON object: %w", err)
		}
	}
	if v, ok := j.opts["checkpoint_every"].(float64); ok && v > 0 {
		j.clientCkpt = true
	} else if ckptEvery > 0 {
		j.opts["checkpoint_every"] = ckptEvery
	}
	if v, ok := j.opts["resume"].(string); ok && v != "" {
		j.resume = v
	}
	if v, ok := j.opts["no_cache"].(bool); ok && v {
		j.noCache = true
	}
	return j, nil
}

// setResume records a fresher checkpoint from a worker stream.
func (j *hardenJob) setResume(blob string, gen int) {
	if gen > j.resumeGen || j.resume == "" {
		j.resume, j.resumeGen, j.haveCkpt = blob, gen, true
	}
}

// encode renders the dispatch body for the next attempt, resume blob
// included.
func (j *hardenJob) encode() ([]byte, error) {
	opts := j.opts
	if j.resume != "" {
		opts = make(map[string]any, len(j.opts)+1)
		for k, v := range j.opts {
			opts[k] = v
		}
		opts["resume"] = j.resume
	}
	raw, err := json.Marshal(opts)
	if err != nil {
		return nil, err
	}
	top := make(map[string]json.RawMessage, len(j.top))
	for k, v := range j.top {
		top[k] = v
	}
	top["options"] = raw
	return json.Marshal(top)
}

// relay is the client-facing half of a dispatch: it opens the client's
// event stream on the first relayed event and filters relayed events
// so a migration never re-emits a generation the client already saw.
type relay struct {
	w           http.ResponseWriter
	r           *http.Request
	sse         *serve.SSEWriter // the client's stream; nil until opened
	streaming   bool             // client asked for SSE
	relayCkpt   bool
	lastGen     int
	lastCkptGen int
}

func newRelay(w http.ResponseWriter, r *http.Request, relayCkpt bool) *relay {
	// A writer that cannot flush gets the plain form, as on a worker.
	_, canFlush := w.(http.Flusher)
	return &relay{w: w, r: r, streaming: serve.WantStream(r) && canFlush,
		relayCkpt: relayCkpt, lastGen: -1, lastCkptGen: -1}
}

// stream returns the client's event stream, opening it on first use.
func (rl *relay) stream() *serve.SSEWriter {
	if rl.sse == nil {
		rl.sse, _ = serve.StartSSE(rl.w)
	}
	return rl.sse
}

// result relays the terminal result: the result event for a streaming
// client, or a plain 200 whose body is byte-identical to what the
// worker's plain endpoint would have answered.
func (rl *relay) result(data []byte) {
	if rl.streaming {
		rl.stream().Raw("result", data)
		return
	}
	serve.WritePayload(rl.w, http.StatusOK, data)
}

// fail reports a terminal failure: an error event if the stream has
// started (the status line is long gone), a plain error response
// otherwise.
func (rl *relay) fail(status int, msg string) {
	if rl.sse != nil {
		rl.sse.ErrorEvent(rl.r, status, msg)
		return
	}
	serve.WriteError(rl.w, rl.r, status, msg)
}

// plain relays a worker's non-streamed response (a validation 4xx,
// typically) verbatim — or as an error event when the client stream has
// already started.
func (rl *relay) plain(status int, contentType string, body []byte) {
	if rl.sse != nil {
		var m map[string]any
		if json.Unmarshal(body, &m) != nil {
			m = map[string]any{"error": strings.TrimSpace(string(body))}
		}
		m["status"] = status
		data, _ := json.Marshal(m)
		rl.sse.Raw("error", data)
		return
	}
	if contentType != "" {
		rl.w.Header().Set("Content-Type", contentType)
	}
	rl.w.WriteHeader(status)
	rl.w.Write(body)
}

// outcome is one dispatch attempt's verdict.
type outcome struct {
	terminal   bool          // a response reached the client; stop
	success    bool          // the worker did its job (feeds the breaker)
	result     []byte        // the terminal result payload, when one arrived
	retryAfter time.Duration // >0: the worker said 429 with this hint
	err        error         // retryable failure detail
}

// refusal classifies a worker response the coordinator must retry
// elsewhere: 429 backpressure, with the worker's Retry-After hint
// (default one second), or any 5xx. ok is false for every other status.
func refusal(resp *http.Response, wk *worker) (out outcome, ok bool) {
	if resp.StatusCode == http.StatusTooManyRequests {
		ra := time.Second
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
			ra = d
		}
		return outcome{retryAfter: ra}, true
	}
	if resp.StatusCode >= 500 {
		return outcome{err: fmt.Errorf("worker %s: status %d", wk.url, resp.StatusCode)}, true
	}
	return outcome{}, false
}

// discard drains (up to 1 MiB) and closes a worker response body, so
// the connection can be reused.
func discard(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// parseRetryAfter interprets a Retry-After header value in either form
// RFC 9110 allows: delta-seconds, or an HTTP-date resolved against now.
// ok is false for an absent or unparseable value (callers keep their
// default hint), and a date at-or-before now collapses to one second —
// the worker is still signalling backpressure, just with no wait left.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if sec, err := strconv.Atoi(v); err == nil {
		if sec <= 0 {
			return 0, false
		}
		return time.Duration(sec) * time.Second, true
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0, false
	}
	if d := t.Sub(now); d > time.Second {
		return d, true
	}
	return time.Second, true
}

// errStopStream stops readSSE once the terminal event has arrived.
var errStopStream = errors.New("fleet: stream complete")

// errNoHealthyWorkers is an attempt that found no eligible worker even
// after a fresh probe sweep; a budget spent on it answers 503.
var errNoHealthyWorkers = errors.New("no healthy workers")

// dispatch is the coordinator's one retry loop, shared by every
// dispatching handler. Each attempt picks the least-loaded eligible
// worker (the one the previous attempt failed on last, a health sweep
// when none is eligible) and hands it to try, which talks to the worker
// and relays whatever reaches the client. Between attempts it waits a
// jittered exponential backoff, or the worker's capped Retry-After hint
// after backpressure. Failures feed the worker's breaker; backpressure
// does not, being a healthy worker that is full. When the budget runs
// out the client gets 429 with a Retry-After of the coordinator's own
// after backpressure, 503 when no worker was eligible, 502 otherwise.
// A client that hangs up ends the loop with nothing written.
func (c *Coordinator) dispatch(ctx context.Context, rl *relay, try func(wk *worker, attempt int) outcome) {
	var avoid *worker
	var lastRetryAfter time.Duration
	var lastErr error
	for attempt := 0; attempt <= c.cfg.RetryBudget; attempt++ {
		if attempt > 0 {
			c.retriesC.Inc()
			delay := c.backoff(attempt - 1)
			if lastRetryAfter > 0 {
				// Honor the worker's own backpressure hint, capped.
				delay = min(lastRetryAfter, c.cfg.RetryAfterMax)
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(delay):
			}
		}
		wk := c.reg.pick(avoid)
		if wk == nil {
			// Nothing eligible — refresh health once (covers the
			// cold-start race before the first sweep and workers that
			// just came back) and retry the pick.
			c.reg.sweep()
			wk = c.reg.pick(avoid)
		}
		if wk == nil {
			lastErr, lastRetryAfter = errNoHealthyWorkers, 0
			continue
		}
		c.dispatchesC.Inc()
		c.reg.markDispatched(wk)
		out := try(wk, attempt)
		c.reg.markDone(wk)
		switch {
		case out.terminal:
			if out.success {
				c.reg.markSuccess(wk)
			}
			return
		case out.retryAfter > 0:
			lastRetryAfter, lastErr = out.retryAfter, fmt.Errorf("worker %s busy", wk.url)
		default:
			if ctx.Err() != nil {
				return // client hung up; nothing to answer
			}
			c.reg.markFailure(wk)
			lastRetryAfter, lastErr = 0, out.err
		}
		avoid = wk
	}
	msg := "dispatch failed: retry budget exhausted"
	if lastErr != nil {
		msg = fmt.Sprintf("%s: %v", msg, lastErr)
	}
	status := http.StatusBadGateway
	if lastRetryAfter > 0 {
		status = http.StatusTooManyRequests
		if rl.sse == nil {
			sec := int((min(lastRetryAfter, c.cfg.RetryAfterMax) + time.Second - 1) / time.Second)
			rl.w.Header().Set("Retry-After", strconv.Itoa(max(sec, 1)))
		}
	} else if errors.Is(lastErr, errNoHealthyWorkers) {
		status = http.StatusServiceUnavailable
	}
	rl.fail(status, msg)
}

// handleHarden accepts one harden job and keeps it alive across worker
// failures: repeats of completed jobs are answered straight from the
// coordinator's L1 cache with zero dispatches; everything else goes
// through the dispatch loop, and a worker dying mid-run hands the job
// to the next attempt with its last streamed checkpoint (a migration).
func (c *Coordinator) handleHarden(w http.ResponseWriter, r *http.Request) {
	body, status, err := serve.ReadBody(w, r, c.cfg.MaxBodyBytes)
	if err != nil {
		serve.WriteError(w, r, status, err.Error())
		return
	}
	job, err := newHardenJob(body, c.cfg.CheckpointEvery)
	if err != nil {
		serve.WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	rl := newRelay(w, r, job.clientCkpt)
	ctx := r.Context()

	// The fleet-wide cache identity: derived from the client body with
	// the worker's own canonicalization, so the coordinator's L1 and
	// every worker-local cache share one address space. NoCache and
	// client-driven resume opt out exactly as they do worker-side.
	var key string
	if !job.noCache && job.resume == "" {
		if k, ok := serve.HardenBodyCacheKey(body); ok {
			key = k
			w.Header().Set(serve.CacheKeyHeader, k)
		}
	}
	if key != "" {
		if data, ok := c.l1.Get(key); ok {
			rl.result(data)
			return
		}
	}

	c.dispatch(ctx, rl, func(wk *worker, attempt int) outcome {
		if job.haveCkpt && attempt > 0 {
			// Re-dispatching with a checkpoint captured from a dead
			// worker's stream: this attempt is a migration.
			c.migrationsC.Inc()
			c.log.InfoContext(ctx, "migrating job", "to", wk.url, "from_gen", job.resumeGen)
		}
		out := c.tryHarden(ctx, wk, job, rl)
		if key != "" && len(out.result) > 0 {
			var meta struct {
				Interrupted bool `json:"interrupted"`
			}
			// Mirror the worker rule: only completed results are
			// cacheable. This is the only cache that holds a migrated
			// job's result — workers never store resumed runs.
			if json.Unmarshal(out.result, &meta) == nil && !meta.Interrupted {
				c.l1.Put(key, out.result)
			}
		}
		return out
	})
}

// tryHarden runs one dispatch attempt against one worker, relaying the
// stream to the client as it goes and capturing checkpoints for a
// possible migration.
func (c *Coordinator) tryHarden(ctx context.Context, wk *worker, job *hardenJob, rl *relay) outcome {
	body, err := job.encode()
	if err != nil {
		rl.fail(http.StatusInternalServerError, err.Error())
		return outcome{terminal: true}
	}
	resp, err := c.send(ctx, wk, "/v1/harden?stream=1", body, true)
	if err != nil {
		return outcome{err: err}
	}
	defer discard(resp)
	if out, ok := refusal(resp, wk); ok {
		return out
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		// A plain response despite the stream request: a validation 4xx.
		// The worker answered definitively; relay verbatim.
		b, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			return outcome{err: rerr}
		}
		rl.plain(resp.StatusCode, resp.Header.Get("Content-Type"), b)
		return outcome{terminal: true, success: true}
	}

	var result []byte
	var jobErr []byte
	jobErrStatus := 0
	err = readSSE(resp.Body, func(ev sseEvent) error {
		switch ev.name {
		case "generation":
			var g struct {
				Gen int `json:"gen"`
			}
			if json.Unmarshal(ev.data, &g) != nil {
				return nil
			}
			// The monotonic filter: a resumed run replays nothing, but
			// its first events may overlap the failed worker's last —
			// the client must see each generation exactly once.
			if g.Gen > rl.lastGen {
				rl.lastGen = g.Gen
				if rl.streaming {
					rl.stream().Raw("generation", ev.data)
				}
			}
		case "checkpoint":
			var cp struct {
				Gen  int    `json:"gen"`
				Blob string `json:"blob"`
			}
			if json.Unmarshal(ev.data, &cp) != nil || cp.Blob == "" {
				return nil
			}
			job.setResume(cp.Blob, cp.Gen)
			if rl.relayCkpt && cp.Gen > rl.lastCkptGen {
				rl.lastCkptGen = cp.Gen
				if rl.streaming {
					rl.stream().Raw("checkpoint", ev.data)
				}
			}
		case "result":
			result = append([]byte(nil), ev.data...)
			return errStopStream
		case "error":
			var e struct {
				Status int `json:"status"`
			}
			_ = json.Unmarshal(ev.data, &e)
			jobErrStatus = e.Status
			jobErr = append([]byte(nil), ev.data...)
			return errStopStream
		}
		return nil
	})
	if result != nil {
		rl.result(result)
		return outcome{terminal: true, success: true, result: result}
	}
	if jobErr != nil {
		if jobErrStatus >= 500 {
			// The job failed inside the worker; treat like a 5xx.
			return outcome{err: fmt.Errorf("worker %s: job error status %d", wk.url, jobErrStatus)}
		}
		if rl.streaming {
			rl.stream().Raw("error", jobErr)
		} else {
			if jobErrStatus == 0 {
				jobErrStatus = http.StatusInternalServerError
			}
			serve.WritePayload(rl.w, jobErrStatus, jobErr)
		}
		return outcome{terminal: true, success: true}
	}
	// The stream ended without a terminal event: the worker died
	// mid-run. Whatever checkpoints were captured make the retry a
	// migration rather than a restart.
	if err == nil || errors.Is(err, errStopStream) {
		err = fmt.Errorf("worker %s: stream ended without result", wk.url)
	}
	return outcome{err: err}
}

// handleAnalyze dispatches an analyze request through the same loop;
// analyze is stateless, so a retry is simply a re-run.
func (c *Coordinator) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, status, err := serve.ReadBody(w, r, c.cfg.MaxBodyBytes)
	if err != nil {
		serve.WriteError(w, r, status, err.Error())
		return
	}
	rl := newRelay(w, r, false)
	c.dispatch(r.Context(), rl, func(wk *worker, _ int) outcome {
		resp, err := c.send(r.Context(), wk, "/v1/analyze", body, false)
		if err != nil {
			return outcome{err: err}
		}
		defer discard(resp)
		if out, ok := refusal(resp, wk); ok {
			return out
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return outcome{err: err}
		}
		rl.plain(resp.StatusCode, resp.Header.Get("Content-Type"), b)
		return outcome{terminal: true, success: true}
	})
}

// send issues one upstream request with the trace context propagated,
// so the worker's spans and logs join the client's trace.
func (c *Coordinator) send(ctx context.Context, wk *worker, path string, body []byte, stream bool) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if stream {
		req.Header.Set("Accept", "text/event-stream")
	}
	if tc, ok := telemetry.TraceFrom(ctx); ok {
		req.Header.Set("traceparent", tc.Traceparent())
	}
	if id, ok := telemetry.RequestIDFrom(ctx); ok {
		req.Header.Set("X-Request-Id", id)
	}
	return c.client.Do(req)
}
