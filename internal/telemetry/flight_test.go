package telemetry

import (
	"fmt"
	"testing"
	"time"
)

// run begins a job with the given trace and returns its ID.
func run(f *FlightRecorder, traceID string) int64 {
	return f.Begin(FlightJob{TraceID: traceID, Route: "harden", Started: time.Now()})
}

func TestFlightRecorderClaimsSpansByTrace(t *testing.T) {
	f := NewFlightRecorder(8)
	a, b := run(f, "aaaa"), run(f, "bbbb")
	f.ObserveSpan(SpanRecord{ID: 1, Name: "runset", TraceID: "aaaa"})
	f.ObserveSpan(SpanRecord{ID: 2, Name: "job:harden", TraceID: "aaaa"})
	f.ObserveSpan(SpanRecord{ID: 3, Name: "other", TraceID: "bbbb"})
	f.ObserveSpan(SpanRecord{ID: 4, Name: "untraced"})               // no trace: no job's
	f.ObserveSpan(SpanRecord{ID: 5, Name: "stray", TraceID: "cccc"}) // no running job: no job's
	f.Progress(b, 3)

	f.End(a, 20*time.Millisecond, "ok", "", "")

	job, ok := f.Find("aaaa")
	if !ok {
		t.Fatal("finished job not findable by trace")
	}
	if len(job.Spans) != 2 || job.Spans[0].Name != "runset" || job.Spans[1].Name != "job:harden" {
		t.Errorf("job claimed spans %+v, want runset and job:harden", job.Spans)
	}
	if job.State != "done" || job.Status != "ok" || job.DurMS != 20 {
		t.Errorf("finished job = %s/%s after %v ms", job.State, job.Status, job.DurMS)
	}
	if _, ok := f.Find("bbbb"); ok {
		t.Error("running job findable among the finished ones")
	}

	l := f.Jobs()
	if len(l.Active) != 1 || len(l.Recent) != 1 {
		t.Fatalf("jobs: %d active, %d recent, want 1 and 1", len(l.Active), len(l.Recent))
	}
	if r := l.Active[0]; r.ID != b || r.State != "running" || r.Generations != 3 || r.Spans != nil {
		t.Errorf("running job = %+v, want job %d running at 3 generations without spans", r, b)
	}
	if l.Recent[0].ID != a || l.Recent[0].Spans != nil {
		t.Errorf("recent job = %+v, want job %d without spans", l.Recent[0], a)
	}
	if s := f.Snapshot(); s.Recorded != 1 || len(s.Jobs) != 1 || len(s.Jobs[0].Spans) != 2 {
		t.Errorf("snapshot recorded=%d jobs=%d", s.Recorded, len(s.Jobs))
	}
}

func TestFlightRecorderRingEvictsOldest(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 0; i < 5; i++ {
		f.End(run(f, fmt.Sprintf("t%d", i)), time.Millisecond, "ok", "", "")
	}
	s := f.Snapshot()
	if s.Capacity != 3 || s.Recorded != 5 || len(s.Jobs) != 3 {
		t.Fatalf("capacity=%d recorded=%d held=%d", s.Capacity, s.Recorded, len(s.Jobs))
	}
	// Newest first: t4, t3, t2.
	for i, want := range []string{"t4", "t3", "t2"} {
		if s.Jobs[i].TraceID != want {
			t.Errorf("jobs[%d] = %s, want %s", i, s.Jobs[i].TraceID, want)
		}
	}
	if _, ok := f.Find("t0"); ok {
		t.Error("evicted job still findable")
	}
	if _, ok := f.Find("t4"); !ok {
		t.Error("newest job not findable")
	}
}

func TestFlightRecorderBoundsJobSpans(t *testing.T) {
	f := NewFlightRecorder(4)
	id := run(f, "big")
	for i := 0; i < maxSpansPerJob+10; i++ {
		f.ObserveSpan(SpanRecord{ID: int64(i + 1), Name: "s", TraceID: "big"})
	}
	f.End(id, time.Millisecond, "ok", "", "")
	s := f.Snapshot()
	if s.DroppedSpans != 10 {
		t.Errorf("overflow counted %d dropped spans, want 10", s.DroppedSpans)
	}
	if n := len(s.Jobs[0].Spans); n != maxSpansPerJob {
		t.Errorf("job kept %d spans, cap is %d", n, maxSpansPerJob)
	}
}

func TestFlightRecorderCollectorFeed(t *testing.T) {
	// End-to-end: spans ended on a collector flow into the running job
	// via OnSpanEnd and stay with it when it ends.
	c := New()
	f := NewFlightRecorder(4)
	c.OnSpanEnd(f.ObserveSpan)

	const trace = "feedfeedfeedfeedfeedfeedfeedfeed"
	id := run(f, trace)
	root := c.StartSpan("runset")
	root.SetTrace(trace)
	job := root.Child("job:harden")
	job.End()
	root.End()
	f.End(id, time.Millisecond, "ok", "", "")

	got, ok := f.Find(trace)
	if !ok || len(got.Spans) != 2 {
		t.Fatalf("found=%v spans=%d, want 2 spans", ok, len(got.Spans))
	}
	// Children end before parents, so the job span precedes the root.
	if got.Spans[0].Name != "job:harden" || got.Spans[1].Name != "runset" {
		t.Errorf("span order: %q, %q", got.Spans[0].Name, got.Spans[1].Name)
	}
	if got.Spans[0].ParentID != got.Spans[1].ID {
		t.Error("span tree lost parent linkage")
	}
}
