package moea

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rsnrobust/internal/telemetry"
)

// sweepOutcome is the observable behavior of one RunSet execution: the
// emission order and a fingerprint of every result.
type sweepOutcome struct {
	order  []int
	labels []string
	prints []string
}

// runSweep executes a fixed network×seed sweep of SPEA2 runs on a
// RunSet with the given worker count.
func runSweep(t *testing.T, workers int) sweepOutcome {
	t.Helper()
	rs := NewRunSet[*Result]()
	for _, job := range []struct {
		n    int
		seed int64
	}{{20, 1}, {36, 2}, {52, 3}, {28, 4}, {44, 5}, {60, 6}} {
		job := job
		rs.Add(fmt.Sprintf("knap%d-s%d", job.n, job.seed), func(context.Context, *telemetry.Span) (*Result, error) {
			return SPEA2(newKnapsack(int64(job.n), job.n), Params{
				Population: 30, Generations: 12, PCrossover: 0.95, PMutateBit: 0.02,
				Seed: job.seed,
			})
		})
	}
	var out sweepOutcome
	err := rs.Run(nil, RunOptions{Workers: workers}, func(i int, label string, res *Result, err error) {
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, label, err)
		}
		out.order = append(out.order, i)
		out.labels = append(out.labels, label)
		out.prints = append(out.prints, frontFingerprint(res.Front))
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunSetDeterminism pins the scheduler contract: at every worker
// count the jobs are emitted exactly once, in submission order, with
// bit-identical results — the pool size decides wall-clock only.
func TestRunSetDeterminism(t *testing.T) {
	ref := runSweep(t, 1)
	for i, idx := range ref.order {
		if idx != i {
			t.Fatalf("serial emission out of order: got %v", ref.order)
		}
	}
	for _, workers := range []int{2, 8} {
		got := runSweep(t, workers)
		for i := range ref.order {
			if got.order[i] != ref.order[i] || got.labels[i] != ref.labels[i] {
				t.Fatalf("workers=%d: emission order/labels differ at %d: (%d,%s) vs (%d,%s)",
					workers, i, got.order[i], got.labels[i], ref.order[i], ref.labels[i])
			}
			if got.prints[i] != ref.prints[i] {
				t.Errorf("workers=%d: job %d (%s) result differs from serial run",
					workers, i, got.labels[i])
			}
		}
	}
}

// TestRunSetErrors checks that every job runs despite failures and Run
// returns the error of the earliest-submitted failed job.
func TestRunSetErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rs := NewRunSet[int]()
		errA, errB := errors.New("a"), errors.New("b")
		for i := 0; i < 6; i++ {
			i := i
			rs.Add(fmt.Sprintf("j%d", i), func(context.Context, *telemetry.Span) (int, error) {
				switch i {
				case 2:
					return 0, errB
				case 1:
					return 0, errA
				default:
					return i * i, nil
				}
			})
		}
		var got []int
		err := rs.Run(nil, RunOptions{Workers: workers}, func(i int, label string, v int, jerr error) {
			got = append(got, i)
		})
		if !errors.Is(err, errA) {
			t.Errorf("workers=%d: Run error = %v, want first-submitted failure %v", workers, err, errA)
		}
		if len(got) != 6 {
			t.Errorf("workers=%d: emitted %d jobs, want 6", workers, len(got))
		}
	}
}

// TestRunSetTelemetry checks the per-job spans and scheduler gauges.
func TestRunSetTelemetry(t *testing.T) {
	tel := telemetry.New()
	rs := NewRunSet[int]()
	for i := 0; i < 3; i++ {
		rs.Add(fmt.Sprintf("job%d", i), func(_ context.Context, sp *telemetry.Span) (int, error) {
			child := sp.Child("work")
			child.End()
			return 0, nil
		})
	}
	if err := rs.Run(nil, RunOptions{Workers: 2, Telemetry: tel}, func(int, string, int, error) {}); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if got := snap.Gauges["runset.jobs"]; got != 3 {
		t.Errorf("runset.jobs = %v, want 3", got)
	}
	if got := snap.Gauges["runset.workers"]; got != 2 {
		t.Errorf("runset.workers = %v, want 2", got)
	}
	jobSpans, workSpans := 0, 0
	ids := map[int64]string{}
	for _, sp := range snap.Spans {
		ids[sp.ID] = sp.Name
	}
	for _, sp := range snap.Spans {
		switch {
		case len(sp.Name) > 4 && sp.Name[:4] == "job:":
			jobSpans++
			if ids[sp.ParentID] != "runset" {
				t.Errorf("span %q: parent id %d resolves to %q, want runset", sp.Name, sp.ParentID, ids[sp.ParentID])
			}
		case sp.Name == "work":
			workSpans++
			if pn := ids[sp.ParentID]; len(pn) < 4 || pn[:4] != "job:" {
				t.Errorf("work span parented to %q, want a job span", pn)
			}
		}
	}
	if jobSpans != 3 || workSpans != 3 {
		t.Errorf("got %d job spans, %d work spans, want 3 and 3", jobSpans, workSpans)
	}
}

// TestRunSetCancellation checks the cancelled-run contract: emit still
// fires exactly once per job in submission order, never-started jobs
// report an error wrapping both ErrInterrupted and the context error,
// and started jobs drain gracefully.
func TestRunSetCancellation(t *testing.T) {
	for _, workers := range []int{1, 3} {
		const n = 8
		ctx, cancel := context.WithCancel(context.Background())
		rs := NewRunSet[int]()
		for i := 0; i < n; i++ {
			i := i
			rs.Add(fmt.Sprintf("j%d", i), func(jctx context.Context, _ *telemetry.Span) (int, error) {
				if i == 0 {
					cancel() // the first job pulls the plug on the rest
					return i, nil
				}
				// Jobs claimed before the cancel drain gracefully when it
				// arrives; jobs not yet claimed must be skipped.
				<-jctx.Done()
				return i, nil
			})
		}
		emitted := make([]int, 0, n)
		skipped := 0
		err := rs.Run(ctx, RunOptions{Workers: workers}, func(i int, label string, v int, jerr error) {
			emitted = append(emitted, i)
			if jerr != nil {
				skipped++
				if !errors.Is(jerr, ErrInterrupted) {
					t.Errorf("workers=%d: job %d error %v does not wrap ErrInterrupted", workers, i, jerr)
				}
				if !errors.Is(jerr, context.Canceled) {
					t.Errorf("workers=%d: job %d error %v does not wrap context.Canceled", workers, i, jerr)
				}
			}
		})
		cancel()
		if len(emitted) != n {
			t.Fatalf("workers=%d: emitted %d jobs, want %d", workers, len(emitted), n)
		}
		for i, idx := range emitted {
			if idx != i {
				t.Fatalf("workers=%d: emission out of order: %v", workers, emitted)
			}
		}
		if skipped == 0 {
			t.Errorf("workers=%d: cancellation skipped no jobs", workers)
		}
		if !errors.Is(err, ErrInterrupted) {
			t.Errorf("workers=%d: Run error %v does not wrap ErrInterrupted", workers, err)
		}
	}
}

// TestRunSetPanicIsolation checks that a panicking job becomes a
// *PanicError with the job attached as evidence while its siblings
// complete, and that the panic is surfaced via telemetry.
func TestRunSetPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tel := telemetry.New()
		rs := NewRunSet[int]()
		for i := 0; i < 6; i++ {
			i := i
			rs.Add(fmt.Sprintf("j%d", i), func(context.Context, *telemetry.Span) (int, error) {
				if i == 2 {
					panic("poisoned job")
				}
				return i * i, nil
			})
		}
		var panicked *PanicError
		ok := 0
		err := rs.Run(nil, RunOptions{Workers: workers, Telemetry: tel}, func(i int, label string, v int, jerr error) {
			var pe *PanicError
			switch {
			case errors.As(jerr, &pe):
				panicked = pe
			case jerr == nil:
				ok++
			}
		})
		if panicked == nil {
			t.Fatalf("workers=%d: panic was not surfaced", workers)
		}
		if panicked.Op != "job" || panicked.Label != "j2" || panicked.Index != 2 {
			t.Errorf("workers=%d: panic evidence = op %q label %q index %d, want job/j2/2",
				workers, panicked.Op, panicked.Label, panicked.Index)
		}
		if len(panicked.Stack) == 0 {
			t.Errorf("workers=%d: panic error carries no stack", workers)
		}
		if ok != 5 {
			t.Errorf("workers=%d: %d sibling jobs succeeded, want 5", workers, ok)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Errorf("workers=%d: Run error %v is not a *PanicError", workers, err)
		}
		snap := tel.Snapshot()
		if got := snap.Counters["moea.panics"]; got != 1 {
			t.Errorf("workers=%d: moea.panics = %d, want 1", workers, got)
		}
		found := false
		for _, sp := range snap.Spans {
			if sp.Name == "job:j2" && sp.Status == "panic" {
				found = true
			}
		}
		if !found {
			t.Errorf("workers=%d: job:j2 span is not marked with status panic", workers)
		}
	}
}

// TestRunSetJobDeadline checks that a job observing its context sees
// the per-job deadline fire and can drain gracefully.
func TestRunSetJobDeadline(t *testing.T) {
	rs := NewRunSet[string]()
	rs.Add("hung", func(ctx context.Context, _ *telemetry.Span) (string, error) {
		select {
		case <-ctx.Done():
			return "drained", ctx.Err()
		case <-time.After(30 * time.Second):
			return "never", nil
		}
	})
	start := time.Now()
	var got string
	var jobErr error
	err := rs.Run(nil, RunOptions{Workers: 2, JobDeadline: 20 * time.Millisecond},
		func(_ int, _ string, v string, jerr error) { got, jobErr = v, jerr })
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline did not fire: run took %v", elapsed)
	}
	if got != "drained" {
		t.Errorf("job result = %q, want graceful drain", got)
	}
	if !errors.Is(jobErr, context.DeadlineExceeded) {
		t.Errorf("job error = %v, want context.DeadlineExceeded", jobErr)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run error = %v, want context.DeadlineExceeded", err)
	}
}
