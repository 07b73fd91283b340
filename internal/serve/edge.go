package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"rsnrobust/internal/telemetry"
)

// Edge is the HTTP edge of a process: a mux whose every route runs
// through the request middleware, with GET /healthz and GET /metrics
// mounted. A worker (Server) and the fleet coordinator each serve
// through one, under their own metric prefix ("serve.http" and
// "fleet.http"), and answer through the same writers below, so their
// headers, error bodies and instruments are uniform by construction.
type Edge struct {
	mux      *http.ServeMux
	tel      *telemetry.Collector
	log      *slog.Logger
	prefix   string
	requests *telemetry.Counter
	panics   *telemetry.Counter
	inflight *telemetry.Gauge
	classes  [6]*telemetry.Counter
	active   atomic.Int64 // requests being handled, mirrored to inflight
}

// NewEdge builds an edge that reports into tel under the metric prefix
// and logs to log.
func NewEdge(tel *telemetry.Collector, log *slog.Logger, prefix string) *Edge {
	e := &Edge{
		mux:      http.NewServeMux(),
		tel:      tel,
		log:      log,
		prefix:   prefix,
		requests: tel.Counter(prefix + ".requests"),
		panics:   tel.Counter(prefix + ".panics"),
		inflight: tel.Gauge(prefix + ".inflight"),
	}
	for c := 2; c <= 5; c++ {
		e.classes[c] = tel.Counter(fmt.Sprintf("%s.status.%dxx", prefix, c))
	}
	e.Handle("GET /healthz", "healthz", e.healthz)
	e.Handle("GET /metrics", "metrics", e.metrics)
	return e
}

// ServeHTTP routes the request to its handler.
func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) { e.mux.ServeHTTP(w, r) }

// statusRecorder captures the status code a handler writes so the
// middleware can count response classes after the fact.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers can
// flush SSE frames through the middleware wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Handle mounts h at pattern behind the request middleware; route
// names the request's latency histogram and access-log field. The
// middleware counts requests, latency, in-flight requests and response
// classes, and gives every request the observability plumbing:
//
//   - the W3C traceparent header is honored (a new trace is minted when
//     absent or malformed) and the trace context rides the request
//     context, so job spans, log lines and the coordinator's dispatches
//     correlate to the caller's trace; the response echoes a
//     traceparent naming this process's span within the trace;
//   - X-Request-Id is honored or generated and echoed on every
//     response, including error responses;
//   - one structured access-log line per request, carrying both IDs;
//   - a panic backstop converts an escaped handler panic into a 500
//     instead of tearing down the server. (Synthesis jobs already
//     recover panics inside the RunSet; this guards the handlers
//     themselves.)
func (e *Edge) Handle(pattern, route string, h http.HandlerFunc) {
	latency := e.tel.Histogram(e.prefix + ".latency_ms." + route)
	e.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		e.requests.Inc()
		e.inflight.Set(float64(e.active.Add(1)))
		t0 := time.Now()

		// Trace context: adopt the caller's trace, or start one. Either
		// way this request's work is one span within it.
		tc, err := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
		if err != nil {
			tc = telemetry.NewTraceContext()
		} else {
			tc.SpanID = telemetry.NewSpanID()
		}
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = telemetry.NewRequestID()
		}
		ctx := telemetry.WithRequestID(telemetry.WithTrace(r.Context(), tc), reqID)
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-Id", reqID)
		w.Header().Set("traceparent", tc.Traceparent())

		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				e.panics.Inc()
				e.log.ErrorContext(ctx, "handler panic", "route", route, "panic", fmt.Sprint(v))
				if rec.status == 0 {
					WriteError(rec, r, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
				}
			}
			durMS := float64(time.Since(t0)) / float64(time.Millisecond)
			latency.Observe(durMS)
			e.inflight.Set(float64(e.active.Add(-1)))
			if c := rec.status / 100; c >= 2 && c <= 5 {
				e.classes[c].Inc()
			}
			e.log.InfoContext(ctx, "request",
				"route", route,
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"dur_ms", durMS,
				"remote", r.RemoteAddr,
			)
		}()
		h(rec, r)
	})
}

// healthz reports liveness: 200 while the process runs.
func (e *Edge) healthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metrics exposes the collector: the text exposition format by
// default, the full JSON snapshot (spans, generations included) with
// ?format=json. Each scrape also samples the Go runtime's own health
// (heap, goroutines, GC pauses, scheduler latency) into proc.* gauges.
func (e *Edge) metrics(w http.ResponseWriter, r *http.Request) {
	telemetry.SampleProcessMetrics(e.tel)
	snap := e.tel.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		WriteJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WriteMetricsText(w, snap); err != nil {
		WriteError(w, r, http.StatusInternalServerError, err.Error())
	}
}

// WantStream reports whether the client asked for the streaming form
// of the endpoint: either `Accept: text/event-stream` or `?stream=1`.
func WantStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// WriteJSON renders v as a JSON response: no HTML escaping, one
// trailing newline.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	WritePayload(w, status, encodePayload(v))
}

// WritePayload answers with an encoded JSON value that carries no
// trailing newline (a cached result, or the data line of a relayed
// event), byte-identical to WriteJSON of the value it encodes. The
// newline is appended in place when payload has spare capacity.
func WritePayload(w http.ResponseWriter, status int, payload []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(payload, '\n'))
}

// WriteError renders the uniform error body. The request ID rides along
// in the body (the X-Request-Id header is set by the middleware), so an
// error a client logs is joinable with the process's own records even
// when only the body survives. r may be nil when no request context is
// available.
func WriteError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	WriteJSON(w, status, errorBody(r, msg))
}

// errorBody is the uniform error body for msg, carrying r's request ID.
func errorBody(r *http.Request, msg string) errorResponse {
	body := errorResponse{Error: msg}
	if r != nil {
		if id, ok := telemetry.RequestIDFrom(r.Context()); ok {
			body.RequestID = id
		}
	}
	return body
}
