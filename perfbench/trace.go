package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a boundary the benchmark owns: a client
// request, a handler wrapper, or a stage call. Handler spans also carry
// what their wrapper counted on the response.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	ReqID  string  `json:"request_id"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`

	Status    int    `json:"status,omitempty"`
	CType     string `json:"content_type,omitempty"`
	Bytes     int64  `json:"bytes,omitempty"`
	Events    int    `json:"events,omitempty"`
	Ckpts     int    `json:"checkpoints,omitempty"`
	CkptBytes int64  `json:"checkpoint_bytes,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// Span names. Request spans nest client → coordinator → worker by
// request id; stage spans nest under one replay span per input.
const (
	spanClient = "client"
	spanFleet  = "fleet.handler"
	spanServe  = "serve.handler"
	spanReplay = "replay"
)

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(ts time.Time) float64 { return ms(ts.Sub(t.t0)) }

// newID reserves a span id, for a parent recorded after its children.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span, assigning an id unless it has one.
func (t *tracer) add(s span) int64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// time runs fn as a span named name under parent.
func (t *tracer) time(name, reqID string, parent int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(span{Name: name, ReqID: reqID, Parent: parent, Start: t.at(start), End: t.at(end)})
	return end.Sub(start)
}

// byRequest groups the request spans by request id, parents linked:
// each worker span under the coordinator span of its request (when
// there is one), each coordinator span under the client span.
func (t *tracer) byRequest() map[string][]*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == spanClient || s.Name == spanFleet || s.Name == spanServe {
			out[s.ReqID] = append(out[s.ReqID], s)
		}
	}
	for _, ss := range out {
		var client, coord int64
		for _, s := range ss {
			switch s.Name {
			case spanClient:
				client = s.ID
			case spanFleet:
				coord = s.ID
			}
		}
		for _, s := range ss {
			switch {
			case s.Name == spanFleet:
				s.Parent = client
			case s.Name == spanServe && coord != 0:
				s.Parent = coord
			case s.Name == spanServe:
				s.Parent = client
			}
		}
	}
	return out
}

// write dumps every span as one JSON line, in start order.
func (t *tracer) write(path string) error {
	t.byRequest() // links parents
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrap returns h behind a recording wrapper: one span per POST, named
// name, keyed by the request's X-Request-Id, with the response's
// status, content type, bytes and SSE frames counted.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		s := span{Name: name, ReqID: r.Header.Get("X-Request-Id")}
		start := time.Now()
		h.ServeHTTP(&tapWriter{ResponseWriter: w, s: &s}, r)
		s.Start, s.End = t.at(start), t.at(time.Now())
		t.add(s)
	})
}

// tapWriter counts what a handler writes. It keeps http.Flusher and
// Unwrap, so the wrapped handler still streams SSE through it.
type tapWriter struct {
	http.ResponseWriter
	s *span
}

func (w *tapWriter) WriteHeader(code int) {
	if w.s.Status == 0 {
		w.s.Status = code
		w.s.CType = w.Header().Get("Content-Type")
	}
	w.ResponseWriter.WriteHeader(code)
}

var (
	eventPrefix = []byte("event: ")
	ckptPrefix  = []byte("event: checkpoint\n")
)

func (w *tapWriter) Write(p []byte) (int, error) {
	if w.s.Status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	w.s.Bytes += int64(len(p))
	// Both the worker and the coordinator write each SSE frame with a
	// single Write call.
	if bytes.HasPrefix(p, eventPrefix) {
		w.s.Events++
		if bytes.HasPrefix(p, ckptPrefix) {
			w.s.Ckpts++
			w.s.CkptBytes += int64(len(p))
		}
	}
	return w.ResponseWriter.Write(p)
}

func (w *tapWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *tapWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func isSSE(ctype string) bool { return strings.HasPrefix(ctype, "text/event-stream") }
