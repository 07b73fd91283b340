package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"time"
)

// encodePayload renders v as one line of JSON with no HTML escaping
// and no trailing newline: the form a plain response body, an SSE data
// line and a cache entry share. The newline the encoder wrote stays in
// the capacity, so WritePayload appends it back without copying.
func encodePayload(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	b := buf.Bytes()
	return b[:len(b)-1]
}

// SSEWriter emits server-sent events on one response. Writes happen on
// the handler goroutine only (the serve queue runs its single job on
// the calling goroutine; the coordinator relays from its dispatch
// loop), so no locking is needed.
type SSEWriter struct {
	w   http.ResponseWriter
	f   http.Flusher
	err error
}

// StartSSE upgrades the response to an event stream. ok=false means the
// underlying writer cannot flush incrementally and the caller must fall
// back to the plain response.
func StartSSE(w http.ResponseWriter) (*SSEWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &SSEWriter{w: w, f: f}, true
}

// Event writes one named event whose data line is the JSON encoding of
// v.
func (s *SSEWriter) Event(name string, v any) { s.Raw(name, encodePayload(v)) }

// Raw writes one named event whose data line is payload, an encoded
// JSON value with no newline: a cached result, or a frame relayed
// verbatim. The first write error latches: further events are dropped
// and Err reports the failure (a disconnected client, typically).
func (s *SSEWriter) Raw(name string, payload []byte) {
	if s.err != nil {
		return
	}
	buf := make([]byte, 0, len(payload)+len(name)+16)
	buf = append(buf, "event: "...)
	buf = append(buf, name...)
	buf = append(buf, "\ndata: "...)
	buf = append(buf, payload...)
	buf = append(buf, "\n\n"...)
	if _, err := s.w.Write(buf); err != nil {
		s.err = err
		return
	}
	s.f.Flush()
}

// ErrorEvent writes the terminal "error" event of a failed stream: the
// uniform error body plus the status the plain response would have
// carried.
func (s *SSEWriter) ErrorEvent(r *http.Request, status int, msg string) {
	s.Event("error", errorEvent{errorResponse: errorBody(r, msg), Status: status})
}

// Err returns the first write error, if any.
func (s *SSEWriter) Err() error { return s.err }

// generationEvent is the payload of one per-generation SSE event of a
// streamed harden: convergence quality plus the run's exact effort
// counters, all scoped to this job alone.
type generationEvent struct {
	Gen         int     `json:"gen"`
	Front       int     `json:"front"`
	Hypervolume float64 `json:"hypervolume"`
	NormHV      float64 `json:"norm_hv"`
	Evaluations int64   `json:"evaluations"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// checkpointEvent is the payload of one "checkpoint" SSE event of a
// streamed harden with checkpoint_every set: the generation the state
// was captured at and the full encoded checkpoint, base64'd. Feeding
// the blob back as options.resume on any replica continues the run
// bit-identically — the transport half of the fleet migration protocol.
type checkpointEvent struct {
	Gen  int    `json:"gen"`
	Blob string `json:"blob"`
}

// errorEvent is the terminal payload of a failed streamed job — the
// uniform error body plus the status the plain endpoint would have
// answered with.
type errorEvent struct {
	errorResponse
	Status int `json:"status"`
}

// streamThrottle decides which generations to emit. With an explicit
// every (stream_every), generation k is emitted iff k%every == 0; the
// default emits generation 0 and then at most one event per interval,
// so long runs do not flood the stream while short runs still show
// every step that matters.
type streamThrottle struct {
	every    int
	interval time.Duration
	lastEmit time.Time
}

func newStreamThrottle(every int) *streamThrottle {
	return &streamThrottle{every: every, interval: 100 * time.Millisecond}
}

func (t *streamThrottle) admit(gen int, now time.Time) bool {
	if t.every > 0 {
		return gen%t.every == 0
	}
	if gen == 0 || now.Sub(t.lastEmit) >= t.interval {
		t.lastEmit = now
		return true
	}
	return false
}
