package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"rsnrobust/internal/serve"
)

// runSelftest starts the server on a loopback port and drives a small
// load-generation battery through the real HTTP stack: the analysis
// and synthesis endpoints, result caching, deadline truncation, and a
// burst of concurrent jobs. It is the smoke gate `make serve-smoke`
// runs in CI.
func runSelftest(srv *serve.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	// lastTrace carries the streamed harden's trace ID forward to the
	// flight-recorder step, which looks the job up by it.
	var lastTrace string

	steps := []struct {
		name string
		fn   func() error
	}{
		{"healthz", func() error {
			return expectStatus(http.Get(base + "/healthz"))
		}},
		{"analyze", func() error {
			body, err := postJSON(base+"/v1/analyze",
				`{"network":{"name":"TreeFlat"},"spec":{"seed":1},"top_damages":3}`)
			if err != nil {
				return err
			}
			return expectFields(body, map[string]func(any) bool{
				"segments":     func(v any) bool { return v == float64(24) },
				"total_damage": func(v any) bool { d, ok := v.(float64); return ok && d > 0 },
			})
		}},
		{"harden", func() error {
			body, err := postJSON(base+"/v1/harden",
				`{"network":{"name":"TreeFlat"},"spec":{"seed":1},"options":{"generations":30,"seed":1}}`)
			if err != nil {
				return err
			}
			return expectFields(body, map[string]func(any) bool{
				"front":       func(v any) bool { f, ok := v.([]any); return ok && len(f) > 1 },
				"interrupted": func(v any) bool { return v == false },
				"cached":      func(v any) bool { return v == false },
			})
		}},
		{"cache hit", func() error {
			body, err := postJSON(base+"/v1/harden",
				`{"network":{"name":"TreeFlat"},"spec":{"seed":1},"options":{"generations":30,"seed":1}}`)
			if err != nil {
				return err
			}
			return expectFields(body, map[string]func(any) bool{
				"cached": func(v any) bool { return v == true },
			})
		}},
		{"deadline truncation", func() error {
			body, err := postJSON(base+"/v1/harden",
				`{"network":{"name":"TreeBalanced"},"spec":{"seed":2},
				  "options":{"generations":100000,"seed":2,"deadline_ms":200,"no_cache":true}}`)
			if err != nil {
				return err
			}
			return expectFields(body, map[string]func(any) bool{
				"interrupted": func(v any) bool { return v == true },
				"front":       func(v any) bool { f, ok := v.([]any); return ok && len(f) > 0 },
			})
		}},
		{"over-cap body", func() error {
			body := bytes.Repeat([]byte{' '}, int(serve.Config{}.Defaults().MaxBodyBytes)+1)
			resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				return fmt.Errorf("status %d, want 413: %s", resp.StatusCode, b)
			}
			return nil
		}},
		{"concurrent burst", func() error {
			const n = 8
			var wg sync.WaitGroup
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, err := postJSON(base+"/v1/harden", fmt.Sprintf(
						`{"network":{"name":"TreeFlat"},"spec":{"seed":%d},"options":{"generations":15,"seed":%d}}`, i, i))
					if err != nil {
						errs <- fmt.Errorf("job %d: %w", i, err)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				return err
			}
			return nil
		}},
		{"metrics", func() error {
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			for _, want := range []string{"rsn_serve_http_requests", "rsn_serve_cache_hits", "rsn_serve_job_ms_count", "rsn_proc_goroutines"} {
				if !strings.Contains(string(b), want) {
					return fmt.Errorf("exposition lacks %s:\n%s", want, b)
				}
			}
			return nil
		}},
		{"request id echo", func() error {
			req, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
			if err != nil {
				return err
			}
			req.Header.Set("X-Request-Id", "selftest-rid-1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if got := resp.Header.Get("X-Request-Id"); got != "selftest-rid-1" {
				return fmt.Errorf("X-Request-Id not echoed: got %q", got)
			}
			// And when absent, the server generates one.
			resp2, err := http.Get(base + "/healthz")
			if err != nil {
				return err
			}
			defer resp2.Body.Close()
			io.Copy(io.Discard, resp2.Body)
			if resp2.Header.Get("X-Request-Id") == "" {
				return fmt.Errorf("no generated X-Request-Id on response")
			}
			return nil
		}},
		{"streamed harden", func() error {
			req, err := http.NewRequest(http.MethodPost, base+"/v1/harden?stream=1", strings.NewReader(
				`{"network":{"name":"TreeFlat"},"spec":{"seed":3},
				  "options":{"generations":20,"seed":3,"no_cache":true,"stream_every":1}}`))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				return fmt.Errorf("status %d: %s", resp.StatusCode, b)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
				return fmt.Errorf("content type %q, want text/event-stream", ct)
			}
			lastTrace = traceID(resp.Header.Get("Traceparent"))
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			gens := strings.Count(string(b), "event: generation\n")
			results := strings.Count(string(b), "event: result\n")
			if gens < 1 || results != 1 {
				return fmt.Errorf("stream had %d generation and %d result events:\n%s", gens, results, b)
			}
			return nil
		}},
		{"jobs listing", func() error {
			resp, err := http.Get(base + "/v1/jobs")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			var jl struct {
				Recent []map[string]any `json:"recent"`
			}
			if err := json.Unmarshal(b, &jl); err != nil {
				return fmt.Errorf("bad JSON: %w (%s)", err, b)
			}
			if len(jl.Recent) == 0 {
				return fmt.Errorf("no recent jobs after the battery: %s", b)
			}
			return nil
		}},
		{"flight recorder", func() error {
			if lastTrace == "" {
				return fmt.Errorf("no trace ID captured from the streamed harden")
			}
			resp, err := http.Get(base + "/debug/flight?trace_id=" + lastTrace)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d: %s", resp.StatusCode, b)
			}
			var job struct {
				Spans []map[string]any `json:"spans"`
			}
			if err := json.Unmarshal(b, &job); err != nil {
				return fmt.Errorf("bad JSON: %w (%s)", err, b)
			}
			if len(job.Spans) == 0 {
				return fmt.Errorf("flight entry has no spans: %s", b)
			}
			return nil
		}},
	}
	for _, st := range steps {
		t0 := time.Now()
		if err := st.fn(); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		fmt.Printf("rsnserve: selftest %-20s ok (%v)\n", st.name, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// traceID extracts the trace-id field of a traceparent header value.
func traceID(tp string) string {
	parts := strings.Split(tp, "-")
	if len(parts) != 4 {
		return ""
	}
	return parts[1]
}

// postJSON posts body and returns the decoded 200 response.
func postJSON(url, body string) (map[string]any, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("bad JSON: %w (%s)", err, b)
	}
	return m, nil
}

func expectStatus(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func expectFields(m map[string]any, checks map[string]func(any) bool) error {
	for field, ok := range checks {
		if !ok(m[field]) {
			return fmt.Errorf("field %q has unexpected value %v", field, m[field])
		}
	}
	return nil
}
