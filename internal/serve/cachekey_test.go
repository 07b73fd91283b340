package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"rsnrobust/internal/telemetry"
)

// TestHardenBodyCacheKeyCanonical: the coordinator-facing key function
// must land every spelling of the same request on the same address —
// and that address must be bit-for-bit what the worker stamps on its
// response. Each group lists bodies that are one request in different
// clothes; keys must agree within a group and differ across groups.
func TestHardenBodyCacheKeyCanonical(t *testing.T) {
	groups := [][]string{
		{
			// generations absent vs the explicit default, islands 1 vs
			// absent, default objectives spelled out (in either order) vs
			// omitted, effort/cache knobs excluded from the key.
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"population":24,"seed":7}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":500,"population":24,"seed":7}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":500,"population":24,"seed":7,"islands":1}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":500,"population":24,"seed":7,"objectives":["damage","cost"]}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":500,"population":24,"seed":7,"objectives":["cost","damage"]}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":500,"population":24,"seed":7,"deadline_ms":60000}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":500,"population":24,"seed":7,"no_cache":true}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":500,"population":24,"seed":7,"stream_every":2,"checkpoint_every":5}}`,
		},
		{
			// A different generation count is a different result.
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":30,"population":24,"seed":7}}`,
		},
		{
			// Permuted non-default objectives agree with each other but not
			// with the default set.
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"population":24,"seed":7,"objectives":["damage","cost","test_time"]}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"population":24,"seed":7,"objectives":["test_time","cost","damage"]}}`,
		},
		{
			// Two real islands are not a single population.
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"population":24,"seed":7,"islands":2}}`,
		},
	}
	checkKeyGroups(t, groups)
	// Non-harden bodies key to nothing.
	if _, ok := HardenBodyCacheKey([]byte(`"just a string"`)); ok {
		t.Error("non-object body produced a key")
	}
	if _, ok := HardenBodyCacheKey([]byte(`{"options":{"objectives":["no_such_objective","cost"]}}`)); ok {
		t.Error("uncanonicalizable objectives produced a key")
	}
}

// TestHardenCacheKeyCanonical: spellings the run reads alike share one
// key, on the worker and through HardenBodyCacheKey; spellings it reads
// differently do not.
func TestHardenCacheKeyCanonical(t *testing.T) {
	iclNet, err := json.Marshal(inlineICL)
	if err != nil {
		t.Fatal(err)
	}
	inline := `{"network":{"icl":` + string(iclNet) + `},`
	groups := [][]string{
		{
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":20,"seed":7}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":20,"seed":7,"algorithm":"spea2"}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":20,"seed":7,"scope":"all"}}`,
			// A named network always generates its spec.
			`{"network":{"name":"TreeFlat"},"spec":{"generate":true,"seed":3},"options":{"generations":20,"seed":7}}`,
			`{"network":{"name":"TreeFlat"},"spec":{"generate":true,"seed":3},` +
				`"options":{"generations":20,"seed":7,"algorithm":"spea2","scope":"all"}}`,
		},
		{`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":20,"seed":7,"algorithm":"nsga2"}}`},
		{`{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":20,"seed":7,"scope":"control"}}`},
		{`{"network":{"name":"TreeFlat"},"spec":{"seed":4},"options":{"generations":20,"seed":7}}`},
		{
			// An annotated spec reads no seed.
			inline + `"options":{"generations":20,"seed":7}}`,
			inline + `"spec":{"seed":9},"options":{"generations":20,"seed":7}}`,
			inline + `"spec":{"generate":false,"seed":9},"options":{"generations":20,"seed":7}}`,
		},
		{inline + `"spec":{"generate":true,"seed":9},"options":{"generations":20,"seed":7}}`},
		{inline + `"spec":{"generate":true,"seed":10},"options":{"generations":20,"seed":7}}`},
	}
	checkKeyGroups(t, groups)
}

// checkKeyGroups: each group lists spellings of one request. Every body
// gets the same key on the worker (decoded and validated as the handler
// does) and through HardenBodyCacheKey; keys agree within a group and
// differ across groups.
func checkKeyGroups(t *testing.T, groups [][]string) {
	t.Helper()
	cfg := Config{}.Defaults()
	keys := make([]string, len(groups))
	for gi, group := range groups {
		for bi, body := range group {
			var req HardenRequest
			if err := decodeRequest([]byte(body), &req, &req.Network); err != nil {
				t.Fatalf("group %d body %d: decode: %v", gi, bi, err)
			}
			if err := req.validate(cfg); err != nil {
				t.Fatalf("group %d body %d: validate: %v", gi, bi, err)
			}
			key := req.CacheKey()
			if len(key) != 16 {
				t.Fatalf("group %d body %d: key %q not 16 hex digits", gi, bi, key)
			}
			if fleet, ok := HardenBodyCacheKey([]byte(body)); !ok || fleet != key {
				t.Errorf("group %d body %d: worker key %s, HardenBodyCacheKey %s (ok %v) — the fleet would route on the wrong address",
					gi, bi, key, fleet, ok)
			}
			if bi == 0 {
				keys[gi] = key
			} else if key != keys[gi] {
				t.Errorf("group %d: body %d keyed %s, body 0 keyed %s — same request, different address",
					gi, bi, key, keys[gi])
			}
		}
	}
	for a := 0; a < len(keys); a++ {
		for b := a + 1; b < len(keys); b++ {
			if keys[a] == keys[b] {
				t.Errorf("groups %d and %d collide on %s — different requests, same address", a, b, keys[a])
			}
		}
	}
}

// TestCacheKeyHeaderAndJobs: a worker stamps X-RSN-Cache-Key on its
// harden responses, the differently-spelled repeat carries the same key
// and hits the cache, and /v1/jobs records the key on the finished job.
func TestCacheKeyHeaderAndJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"network":{"name":"TreeFlat"},"spec":{"seed":3},"options":{"generations":20,"population":16,"seed":7}}`

	status, hdr, b := post(t, ts, "/v1/harden", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, b)
	}
	key := hdr.Get(CacheKeyHeader)
	if len(key) != 16 {
		t.Fatalf("%s = %q, want 16 hex digits", CacheKeyHeader, key)
	}
	if want, ok := HardenBodyCacheKey([]byte(body)); !ok || key != want {
		t.Errorf("worker stamped %s, HardenBodyCacheKey derives %s — the fleet would route on the wrong address", key, want)
	}

	// Same request, islands spelled 1 and objectives spelled out: the
	// canonicalized key matches and the cache answers.
	respelled := `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
		`"options":{"generations":20,"population":16,"seed":7,"islands":1,"objectives":["cost","damage"]}}`
	status, hdr2, b2 := post(t, ts, "/v1/harden", respelled)
	if status != http.StatusOK {
		t.Fatalf("respelled status = %d: %s", status, b2)
	}
	if hdr2.Get(CacheKeyHeader) != key {
		t.Errorf("respelled request keyed %s, want %s", hdr2.Get(CacheKeyHeader), key)
	}
	if resp := decode[HardenResponse](t, b2); !resp.Cached {
		t.Error("respelled repeat was not served from the result cache")
	}

	// The computed run's job record carries the key; the cache hit
	// answered before job registration, so it adds no second record.
	status, jb := get(t, ts, "/v1/jobs")
	if status != http.StatusOK {
		t.Fatalf("/v1/jobs status = %d", status)
	}
	jobs := decode[telemetry.JobList](t, jb)
	if n := len(jobs.Recent); n != 1 {
		t.Fatalf("%d recent jobs after one compute and one cache hit, want 1: %+v", n, jobs.Recent)
	}
	if j := jobs.Recent[0]; j.Route != "harden" || j.CacheKey != key {
		t.Errorf("finished job carries route %q cache key %q, want harden/%s", j.Route, j.CacheKey, key)
	}
}
