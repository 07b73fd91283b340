package telemetry

import (
	"context"
	"strings"
	"testing"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %q", tc.TraceID)
	}
	if tc.SpanID != "00f067aa0ba902b7" {
		t.Errorf("span id = %q", tc.SpanID)
	}
	if tc.Flags != 0x01 {
		t.Errorf("flags = %#x, want 0x01", tc.Flags)
	}
	if got := tc.Traceparent(); got != h {
		t.Errorf("round trip = %q, want %q", got, h)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // all-zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // all-zero span
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",  // bad flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing junk
	}
	for _, h := range bad {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
}

func TestNewTraceContextIsValidAndUnique(t *testing.T) {
	a, b := NewTraceContext(), NewTraceContext()
	if !a.Valid() || !b.Valid() {
		t.Fatalf("minted contexts invalid: %+v %+v", a, b)
	}
	if a.TraceID == b.TraceID {
		t.Error("two minted trace IDs collide")
	}
	if _, err := ParseTraceparent(a.Traceparent()); err != nil {
		t.Errorf("minted traceparent does not parse: %v", err)
	}
	if len(NewSpanID()) != 16 || len(NewRequestID()) != 16 {
		t.Error("span/request IDs not 16 hex chars")
	}
}

func TestTraceContextPlumbing(t *testing.T) {
	if _, ok := TraceFrom(context.Background()); ok {
		t.Error("empty context carries a trace")
	}
	if _, ok := TraceFrom(nil); ok { //nolint:staticcheck // nil-safety contract
		t.Error("nil context carries a trace")
	}
	tc := NewTraceContext()
	ctx := WithTrace(context.Background(), tc)
	ctx = WithRequestID(ctx, "req-1")
	got, ok := TraceFrom(ctx)
	if !ok || got != tc {
		t.Errorf("TraceFrom = %+v, %v", got, ok)
	}
	id, ok := RequestIDFrom(ctx)
	if !ok || id != "req-1" {
		t.Errorf("RequestIDFrom = %q, %v", id, ok)
	}
}

func TestSpanTraceInheritance(t *testing.T) {
	c := New()
	root := c.StartSpan("runset")
	root.SetTrace("4bf92f3577b34da6a3ce929d0e0e4736")
	child := root.Child("job:harden")
	grand := child.Child("synthesize")
	grand.End()
	child.End()
	root.End()
	s := c.Snapshot()
	if len(s.Spans) != 3 {
		t.Fatalf("got %d spans", len(s.Spans))
	}
	for _, sp := range s.Spans {
		if sp.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("span %q trace = %q, want inherited", sp.Name, sp.TraceID)
		}
	}
	// Nil span safety.
	var nilSpan *Span
	nilSpan.SetTrace("x")
	if nilSpan.Trace() != "" {
		t.Error("nil span has a trace")
	}
}

func TestSpanLimitBoundsRetention(t *testing.T) {
	c := New()
	c.SetSpanLimit(8)
	for i := 0; i < 100; i++ {
		c.StartSpan("s").End()
	}
	if n := len(c.Snapshot().Spans); n > 8 {
		t.Errorf("span history %d exceeds limit 8", n)
	}
	// The kept spans are the most recent ones (IDs strictly increasing,
	// ending at the last issued).
	spans := c.Snapshot().Spans
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Errorf("retained spans out of order: %d after %d", spans[i].ID, spans[i-1].ID)
		}
	}
	if last := spans[len(spans)-1].ID; last != 100 {
		t.Errorf("newest retained span = %d, want 100", last)
	}
}

func TestTraceparentLowercaseOnly(t *testing.T) {
	// The formatter must emit lowercase hex (the W3C requirement).
	tc := NewTraceContext()
	if h := tc.Traceparent(); h != strings.ToLower(h) {
		t.Errorf("traceparent not lowercase: %q", h)
	}
}
