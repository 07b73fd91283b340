package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"rsnrobust/internal/moea"
)

// ckptHardenBody is the request the checkpoint-streaming tests share: a
// deterministic multi-generation run that emits a checkpoint every 8
// generations.
const ckptHardenBody = `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
	`"options":{"generations":40,"population":30,"seed":7,"no_cache":true,"checkpoint_every":8}}`

// TestStreamedHardenEmitsCheckpoints checks the transport half of the
// migration protocol: a streamed harden with checkpoint_every emits
// "checkpoint" events whose blobs decode to valid checkpoints at the
// configured cadence.
func TestStreamedHardenEmitsCheckpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postStream(t, ts, "/v1/harden", ckptHardenBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var gens []int
	for _, ev := range parseSSE(t, body) {
		if ev.name != "checkpoint" {
			continue
		}
		var ce checkpointEvent
		if err := json.Unmarshal(ev.data, &ce); err != nil {
			t.Fatalf("checkpoint event not JSON: %v\n%s", err, ev.data)
		}
		blob, err := base64.StdEncoding.DecodeString(ce.Blob)
		if err != nil {
			t.Fatalf("checkpoint blob not base64: %v", err)
		}
		cp, err := moea.DecodeCheckpoint(blob)
		if err != nil {
			t.Fatalf("checkpoint blob does not decode: %v", err)
		}
		if cp.Generation != ce.Gen {
			t.Errorf("checkpoint event gen %d, blob says %d", ce.Gen, cp.Generation)
		}
		if cp.Seed != 7 || len(cp.Pop) == 0 {
			t.Errorf("checkpoint gen %d degenerate: seed=%d pop=%d", ce.Gen, cp.Seed, len(cp.Pop))
		}
		gens = append(gens, ce.Gen)
	}
	// 40 generations, every 8, generation 0 skipped: 8, 16, 24, 32.
	want := []int{8, 16, 24, 32}
	if fmt.Sprint(gens) != fmt.Sprint(want) {
		t.Errorf("checkpoint generations = %v, want %v", gens, want)
	}
}

// TestHTTPResumeEquivalence is the PR 4 TestResumeEquivalence property
// asserted end-to-end over HTTP — the correctness contract the fleet's
// checkpoint migration rides on. A run streamed with checkpoint_every
// yields blobs; feeding any of them back as options.resume to a FRESH
// server (no shared state whatsoever) must produce a terminal response
// byte-identical (mod wall clock) to the uninterrupted run: same front,
// same picks, same exact evaluation accounting.
func TestHTTPResumeEquivalence(t *testing.T) {
	_, tsA := newTestServer(t, Config{Workers: 1})

	// The uninterrupted reference, plain transport.
	plainBody := `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
		`"options":{"generations":40,"population":30,"seed":7,"no_cache":true}}`
	status, _, ref := post(t, tsA, "/v1/harden", plainBody)
	if status != http.StatusOK {
		t.Fatalf("reference run status = %d: %s", status, ref)
	}

	// The checkpointed run on the same server.
	resp, body := postStream(t, tsA, "/v1/harden", ckptHardenBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpointed run status = %d", resp.StatusCode)
	}
	var blobs []string
	for _, ev := range parseSSE(t, body) {
		if ev.name == "checkpoint" {
			var ce checkpointEvent
			if err := json.Unmarshal(ev.data, &ce); err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, ce.Blob)
		}
	}
	if len(blobs) < 2 {
		t.Fatalf("got %d checkpoint events, want at least 2", len(blobs))
	}

	// Resume from the first and the last blob on a fresh server — the
	// "another worker" of a migration. Both must converge to the
	// reference bytes.
	for _, pick := range []int{0, len(blobs) - 1} {
		_, tsB := newTestServer(t, Config{Workers: 1})
		resumeBody := fmt.Sprintf(`{"network":{"name":"TreeFlat"},"spec":{"seed":3},`+
			`"options":{"generations":40,"population":30,"seed":7,"no_cache":true,"resume":%q}}`, blobs[pick])
		status, _, got := post(t, tsB, "/v1/harden", resumeBody)
		if status != http.StatusOK {
			t.Fatalf("resume from blob %d: status = %d: %s", pick, status, got)
		}
		normRef := elapsedRe.ReplaceAll(ref, []byte(`"elapsed_ms":0`))
		normGot := elapsedRe.ReplaceAll(got, []byte(`"elapsed_ms":0`))
		if !bytes.Equal(normRef, normGot) {
			t.Errorf("resume from blob %d differs from uninterrupted run\n got %s\nwant %s", pick, normGot, normRef)
		}
	}
}

// TestResumeRejectsMismatch checks that a resume blob that does not
// match the request (different seed) is a 400, and that a garbage blob
// is a 400 — never a 500, never silent acceptance.
func TestResumeRejectsMismatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postStream(t, ts, "/v1/harden", ckptHardenBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var blob string
	for _, ev := range parseSSE(t, body) {
		if ev.name == "checkpoint" {
			var ce checkpointEvent
			if err := json.Unmarshal(ev.data, &ce); err != nil {
				t.Fatal(err)
			}
			blob = ce.Blob
			break
		}
	}
	if blob == "" {
		t.Fatal("no checkpoint event")
	}
	cases := []struct{ name, body string }{
		{"seed mismatch", fmt.Sprintf(`{"network":{"name":"TreeFlat"},"spec":{"seed":3},`+
			`"options":{"generations":40,"population":30,"seed":8,"no_cache":true,"resume":%q}}`, blob)},
		{"garbage blob", `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
			`"options":{"generations":40,"seed":7,"resume":"bm90IGEgY2hlY2twb2ludA=="}}`},
		{"bad base64", `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
			`"options":{"generations":40,"seed":7,"resume":"!!!"}}`},
		{"resume with stagnation", fmt.Sprintf(`{"network":{"name":"TreeFlat"},"spec":{"seed":3},`+
			`"options":{"generations":40,"population":30,"seed":7,"stagnation":5,"resume":%q}}`, blob)},
	}
	for _, tc := range cases {
		status, _, got := post(t, ts, "/v1/harden", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, status, got)
		}
	}
}

// TestResumeRejectsStrayBits checks that a resume blob whose genomes
// set bits at or beyond the run's genome length — re-encoded with a
// valid checksum — is rejected as a corrupt checkpoint, a 400 before
// any synthesis starts: resuming it would index past the network's
// primitives.
func TestResumeRejectsStrayBits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postStream(t, ts, "/v1/harden", ckptHardenBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var blob []byte
	for _, ev := range parseSSE(t, body) {
		if ev.name == "checkpoint" {
			var ce checkpointEvent
			if err := json.Unmarshal(ev.data, &ce); err != nil {
				t.Fatal(err)
			}
			var err error
			if blob, err = base64.StdEncoding.DecodeString(ce.Blob); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	cp, err := moea.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NumBits%64 == 0 {
		t.Fatalf("TreeFlat genome is %d bits, a whole number of words: no bit lies beyond it", cp.NumBits)
	}
	for i := range cp.Pop {
		cp.Pop[i].Genome[len(cp.Pop[i].Genome)-1] |= 1 << 63
	}
	resumeBody := fmt.Sprintf(`{"network":{"name":"TreeFlat"},"spec":{"seed":3},`+
		`"options":{"generations":40,"population":30,"seed":7,"no_cache":true,"resume":%q}}`,
		base64.StdEncoding.EncodeToString(moea.EncodeCheckpoint(cp)))
	// The body must name the corrupt checkpoint: a stray bit that got
	// past the decoder would end in a 400 too, from the resumed run's
	// evaluation panic.
	status, _, got := post(t, ts, "/v1/harden", resumeBody)
	if status != http.StatusBadRequest || !bytes.Contains(got, []byte("checkpoint corrupt")) {
		t.Errorf("stray-bit resume: status = %d, body %s; want a 400 naming the corrupt checkpoint", status, got)
	}
}
