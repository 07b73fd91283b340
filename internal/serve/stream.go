package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"time"
)

// wantStream reports whether the client asked for the streaming form of
// the endpoint: either `Accept: text/event-stream` or `?stream=1`.
func wantStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// encodeJSONBody renders v exactly like writeJSON does — same encoder
// settings, same trailing newline — so a streamed terminal event and a
// plain JSON response of the same value are byte-identical payloads.
func encodeJSONBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	return buf.Bytes()
}

// sseWriter emits server-sent events. Writes happen on the handler
// goroutine only (the serve queue runs its single job on the calling
// goroutine), so no locking is needed.
type sseWriter struct {
	w   http.ResponseWriter
	f   http.Flusher
	err error
}

// startSSE upgrades the response to an event stream. ok=false means the
// underlying writer cannot flush incrementally and the caller must fall
// back to the plain response.
func startSSE(w http.ResponseWriter) (*sseWriter, bool) {
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
	return &sseWriter{w: w, f: f}, true
}

// event writes one named event whose data line is the JSON encoding of
// v. The first write error latches: further events are dropped and Err
// reports the failure (a disconnected client, typically).
func (s *sseWriter) event(name string, v any) {
	if s.err != nil {
		return
	}
	body := encodeJSONBody(v) // ends with exactly one \n
	var buf bytes.Buffer
	buf.Grow(len(body) + len(name) + 16)
	buf.WriteString("event: ")
	buf.WriteString(name)
	buf.WriteString("\ndata: ")
	buf.Write(body) // the trailing \n ends the data line
	buf.WriteString("\n")
	if _, err := s.w.Write(buf.Bytes()); err != nil {
		s.err = err
		return
	}
	s.f.Flush()
}

// Err returns the first write error, if any.
func (s *sseWriter) Err() error { return s.err }

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
