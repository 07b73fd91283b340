package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"rsnrobust/internal/telemetry"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// parseSSE splits an event-stream body into events.
func parseSSE(t *testing.T, body []byte) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" || len(cur.data) > 0 {
				events = append(events, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = append(cur.data, []byte(strings.TrimPrefix(line, "data: "))...)
		}
	}
	if cur.name != "" || len(cur.data) > 0 {
		events = append(events, cur)
	}
	return events
}

// postStream POSTs body asking for the SSE form and returns the
// response (body fully read and closed) plus the raw stream bytes.
func postStream(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return resp, b
}

// The harden request used across the streaming tests: a real
// multi-generation job on a small benchmark, deterministic by seed,
// bypassing the cache so both transports compute fresh.
const streamHardenBody = `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
	`"options":{"generations":40,"population":30,"seed":7,"no_cache":true,"stream_every":1}}`

var elapsedRe = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// generationDigest hashes the deterministic fields of a stream's
// generation events in order (elapsed_ms is wall clock).
func generationDigest(gens []generationEvent) uint64 {
	h := fnv.New64a()
	for _, g := range gens {
		var b [40]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(g.Gen))
		binary.LittleEndian.PutUint64(b[8:], uint64(g.Front))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(g.Hypervolume))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(g.NormHV))
		binary.LittleEndian.PutUint64(b[32:], uint64(g.Evaluations))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestStreamedHardenEmitsGenerationsThenResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postStream(t, ts, "/v1/harden", streamHardenBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := parseSSE(t, body)
	if len(events) < 2 {
		t.Fatalf("got %d events, want generations + result:\n%s", len(events), body)
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("terminal event is %q, want result", last.name)
	}
	var gens []generationEvent
	prevGen := -1
	for _, ev := range events[:len(events)-1] {
		if ev.name != "generation" {
			t.Fatalf("unexpected pre-terminal event %q", ev.name)
		}
		var g generationEvent
		if err := json.Unmarshal(ev.data, &g); err != nil {
			t.Fatalf("generation event not JSON: %v\n%s", err, ev.data)
		}
		if g.Gen <= prevGen {
			t.Errorf("generation events out of order: %d after %d", g.Gen, prevGen)
		}
		prevGen = g.Gen
		if g.Front <= 0 {
			t.Errorf("gen %d: empty front", g.Gen)
		}
		gens = append(gens, g)
	}
	if len(gens) < 1 {
		t.Fatal("no per-generation events before the terminal result")
	}
	// stream_every=1 on a 40-generation run: every generation streams.
	if len(gens) != 40 {
		t.Errorf("got %d generation events, want 40 with stream_every=1", len(gens))
	}
	// The payloads are the convergence records the run has always
	// streamed, pinned by hash: measuring a generation only when the
	// stream emits it must not change what it emits.
	if got, want := generationDigest(gens), uint64(0xc5ccf1e517caeb00); got != want {
		t.Errorf("generation events digest %#016x, want %#016x", got, want)
	}
	var res HardenResponse
	if err := json.Unmarshal(last.data, &res); err != nil {
		t.Fatalf("result event not a HardenResponse: %v", err)
	}
	if res.Generations != 40 || len(res.Front) == 0 {
		t.Errorf("terminal result degenerate: generations=%d front=%d", res.Generations, len(res.Front))
	}
}

// TestMetricsHistoryHoldsStreamedGenerations: a served harden measures
// and records a generation only when its stream emits it, so the
// generation history of /metrics?format=json holds exactly the streamed
// records, and a plain harden adds none.
func TestMetricsHistoryHoldsStreamedGenerations(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	history := func() []telemetry.Generation {
		t.Helper()
		status, b := get(t, ts, "/metrics?format=json")
		if status != http.StatusOK {
			t.Fatalf("metrics status = %d", status)
		}
		return decode[telemetry.Snapshot](t, b).Generations
	}
	plain := `{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":40,"population":30,"seed":7,"no_cache":true}}`
	if status, _, b := post(t, ts, "/v1/harden", plain); status != http.StatusOK {
		t.Fatalf("plain harden: %d %s", status, b)
	}
	if h := history(); len(h) != 0 {
		t.Fatalf("a plain harden left %d generation records", len(h))
	}
	streamed := strings.Replace(plain, `"no_cache":true`, `"no_cache":true,"stream_every":5`, 1)
	_, body := postStream(t, ts, "/v1/harden", streamed)
	var events []generationEvent
	for _, ev := range parseSSE(t, body) {
		if ev.name != "generation" {
			continue
		}
		var g generationEvent
		if err := json.Unmarshal(ev.data, &g); err != nil {
			t.Fatal(err)
		}
		events = append(events, g)
	}
	if len(events) != 8 {
		t.Fatalf("stream_every=5 on 40 generations streamed %d events, want 8", len(events))
	}
	h := history()
	if len(h) != len(events) {
		t.Fatalf("metrics history holds %d records for %d streamed generations", len(h), len(events))
	}
	for i, g := range h {
		ev := events[i]
		if g.Gen != ev.Gen || g.Front != ev.Front || g.Hypervolume != ev.Hypervolume ||
			g.NormHV != ev.NormHV || g.Evaluations != ev.Evaluations || g.ElapsedMS != ev.ElapsedMS {
			t.Errorf("history record %d = %+v, streamed %+v", i, g, ev)
		}
	}
}

func TestStreamedTerminalResultMatchesPlainResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	_, streamBody := postStream(t, ts, "/v1/harden", streamHardenBody)
	events := parseSSE(t, streamBody)
	if len(events) == 0 || events[len(events)-1].name != "result" {
		t.Fatalf("no terminal result event:\n%s", streamBody)
	}
	terminal := append(events[len(events)-1].data, '\n')

	status, _, plainBody := post(t, ts, "/v1/harden", streamHardenBody)
	if status != http.StatusOK {
		t.Fatalf("plain status = %d, body %s", status, plainBody)
	}

	// elapsed_ms is wall clock and legitimately differs between the two
	// runs; everything else must match byte for byte.
	normStream := elapsedRe.ReplaceAll(terminal, []byte(`"elapsed_ms":0`))
	normPlain := elapsedRe.ReplaceAll(plainBody, []byte(`"elapsed_ms":0`))
	if !bytes.Equal(normStream, normPlain) {
		t.Errorf("streamed terminal result differs from plain response:\nstream: %s\nplain:  %s", normStream, normPlain)
	}
}

func TestStreamedHardenServesCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":10,"population":20,"seed":9}}`
	if status, _, b := post(t, ts, "/v1/harden", body); status != http.StatusOK {
		t.Fatalf("prime: %d %s", status, b)
	}
	resp, raw := postStream(t, ts, "/v1/harden", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	events := parseSSE(t, raw)
	if len(events) != 1 || events[0].name != "result" {
		t.Fatalf("cache hit should stream exactly one result event, got %d events", len(events))
	}
	var res HardenResponse
	if err := json.Unmarshal(events[0].data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("cache hit not marked cached")
	}
}

func TestStreamedHardenErrorEvent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Inline ICL passes the pre-admission checks (only name references
	// are validated up front) and fails inside the job when the source
	// does not parse — the failure must arrive as a terminal SSE error
	// event carrying the status the plain endpoint would have used.
	body := `{"network":{"icl":"network broken\n  sib unclosed {\nend"},"spec":{},"options":{"generations":5}}`
	resp, raw := postStream(t, ts, "/v1/harden", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE stream should commit 200 before the job runs, got %d: %s", resp.StatusCode, raw)
	}
	events := parseSSE(t, raw)
	if len(events) == 0 {
		t.Fatal("no events on failed streamed job")
	}
	last := events[len(events)-1]
	if last.name != "error" {
		t.Fatalf("terminal event %q, want error", last.name)
	}
	var ev errorEvent
	if err := json.Unmarshal(last.data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Status != http.StatusBadRequest || ev.Error == "" {
		t.Errorf("error event = %+v, want 400 with message", ev)
	}
	if ev.RequestID == "" {
		t.Error("error event carries no request_id")
	}
}

func TestFlightRecorderCapturesJobSpanTree(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Send a traced harden request.
	tc := telemetry.NewTraceContext()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/harden",
		strings.NewReader(`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":10,"population":20,"seed":5,"no_cache":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("harden status %d", resp.StatusCode)
	}
	// The response echoes a traceparent within the caller's trace.
	echoed, err := telemetry.ParseTraceparent(resp.Header.Get("traceparent"))
	if err != nil || echoed.TraceID != tc.TraceID {
		t.Errorf("response traceparent %q not in request trace %s", resp.Header.Get("traceparent"), tc.TraceID)
	}

	// The completed job is retrievable from the flight recorder by the
	// request's trace ID, span tree included.
	status, b := get(t, ts, "/debug/flight?trace_id="+tc.TraceID)
	if status != http.StatusOK {
		t.Fatalf("flight lookup: %d %s", status, b)
	}
	var job telemetry.FlightJob
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatal(err)
	}
	if job.Status != "ok" || job.Label != "harden" {
		t.Errorf("job = %s/%s, want harden/ok", job.Label, job.Status)
	}
	if job.Generations != 10 {
		t.Errorf("job generations = %d, want 10", job.Generations)
	}
	if len(job.Spans) == 0 {
		t.Fatal("job has no spans")
	}
	names := map[string]bool{}
	for _, sp := range job.Spans {
		if sp.TraceID != tc.TraceID {
			t.Errorf("span %q trace %q != request trace %q", sp.Name, sp.TraceID, tc.TraceID)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"runset", "job:harden", "synthesize"} {
		if !names[want] {
			t.Errorf("span %q missing from flight record (have %v)", want, names)
		}
	}

	// A traced analyze job records one child span per stage under its
	// job span.
	atc := telemetry.NewTraceContext()
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze",
		strings.NewReader(`{"network":{"name":"TreeFlat"},"spec":{"seed":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", atc.Traceparent())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}
	status, b = get(t, ts, "/debug/flight?trace_id="+atc.TraceID)
	if status != http.StatusOK {
		t.Fatalf("flight lookup: %d %s", status, b)
	}
	job = telemetry.FlightJob{}
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatal(err)
	}
	if job.Status != "ok" || job.Label != "analyze" {
		t.Errorf("job = %s/%s, want analyze/ok", job.Label, job.Status)
	}
	var jobSpan int64
	for _, sp := range job.Spans {
		if sp.Name == "job:analyze" {
			jobSpan = sp.ID
		}
	}
	if jobSpan == 0 {
		t.Fatalf("no job:analyze span in %+v", job.Spans)
	}
	stages := map[string]int{}
	for _, sp := range job.Spans {
		if sp.ParentID == jobSpan {
			stages[sp.Name]++
		}
	}
	for _, want := range []string{"load", "validate", "spec", "sp-tree", "criticality"} {
		if stages[want] != 1 {
			t.Errorf("%d %q spans under job:analyze, want 1 (have %v)", stages[want], want, stages)
		}
	}

	// The full snapshot lists both jobs.
	status, b = get(t, ts, "/debug/flight")
	if status != http.StatusOK {
		t.Fatal(status)
	}
	snap := decode[telemetry.FlightSnapshot](t, b)
	if snap.Recorded < 2 || len(snap.Jobs) < 2 {
		t.Errorf("flight snapshot lacks the two jobs: %+v", snap)
	}
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Absent: generated, echoed, and present in error bodies.
	status, hdr, b := post(t, ts, "/v1/harden", `{"network":{},"spec":{}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d", status)
	}
	id := hdr.Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id generated")
	}
	var eresp errorResponse
	if err := json.Unmarshal(b, &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.RequestID != id {
		t.Errorf("body request_id %q != header %q", eresp.RequestID, id)
	}

	// Present: echoed verbatim, with a traceparent alongside.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied-1" {
		t.Errorf("echoed id %q", got)
	}
	if _, err := telemetry.ParseTraceparent(resp.Header.Get("traceparent")); err != nil {
		t.Errorf("response traceparent invalid: %v", err)
	}
}

func TestRequestIDOn429(t *testing.T) {
	// Occupy the only admission slot directly, then overflow it.
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	dummy, _ := http.NewRequest(http.MethodPost, "/v1/harden", nil)
	release, ok := s.admit(httptest.NewRecorder(), dummy)
	if !ok {
		t.Fatal("could not occupy the queue")
	}
	defer release()
	status, hdr, b := post(t, ts, "/v1/harden",
		`{"network":{"name":"TreeFlat"},"spec":{"seed":1},"options":{"generations":5}}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %s", status, b)
	}
	if hdr.Get("X-Request-Id") == "" {
		t.Error("429 carries no X-Request-Id header")
	}
	var eresp errorResponse
	if err := json.Unmarshal(b, &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.RequestID != hdr.Get("X-Request-Id") {
		t.Errorf("429 body request_id %q != header %q", eresp.RequestID, hdr.Get("X-Request-Id"))
	}
}

func TestJobsEndpointListsRecentJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	status, _, b := post(t, ts, "/v1/harden",
		`{"network":{"name":"TreeFlat"},"spec":{"seed":2},"options":{"generations":8,"population":20,"seed":4,"no_cache":true}}`)
	if status != http.StatusOK {
		t.Fatalf("harden: %d %s", status, b)
	}
	status, b = get(t, ts, "/v1/jobs")
	if status != http.StatusOK {
		t.Fatal(status)
	}
	var snap jobsSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Recent) == 0 {
		t.Fatal("no recent jobs listed")
	}
	job := snap.Recent[0]
	if job.Route != "harden" || job.State != "done" || job.Status != "ok" {
		t.Errorf("job = %+v", job)
	}
	if job.Generation != 7 {
		t.Errorf("last reported generation = %d, want 7 (8 generations, 0-based)", job.Generation)
	}
	if job.TraceID == "" || job.RequestID == "" {
		t.Errorf("job missing correlation IDs: %+v", job)
	}
	if job.DurMS <= 0 {
		t.Errorf("job duration %v", job.DurMS)
	}
}

// safeWriter serializes concurrent log writes from handler goroutines.
type safeWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *safeWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *safeWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestAccessLogCorrelated(t *testing.T) {
	out := &safeWriter{}
	logger := telemetry.NewLogger(out, slog.LevelInfo, "json")
	_, ts := newTestServer(t, Config{Logger: logger})

	tc := telemetry.NewTraceContext()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", tc.Traceparent())
	req.Header.Set("X-Request-Id", "log-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	waitFor(t, "access log line", func() bool {
		return strings.Contains(out.String(), "log-test-1")
	})
	var line map[string]any
	found := false
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	for sc.Scan() {
		var l map[string]any
		if json.Unmarshal(sc.Bytes(), &l) == nil && l["request_id"] == "log-test-1" {
			line, found = l, true
		}
	}
	if !found {
		t.Fatalf("no access log line for the request: %s", out.String())
	}
	if line["trace_id"] != tc.TraceID {
		t.Errorf("log trace_id = %v, want %s", line["trace_id"], tc.TraceID)
	}
	if line["route"] != "healthz" || line["status"] != float64(200) {
		t.Errorf("log line = %v", line)
	}
}

func TestMetricsIncludesProcessStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, b := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatal(status)
	}
	out := string(b)
	for _, want := range []string{"rsn_proc_goroutines ", "rsn_proc_heap_bytes ", "rsn_proc_gc_pause_p99_ms "} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
