package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// Regressions for the objectives knob of /v1/harden: unknown names are
// a 400 that lists the known objectives, permuted spellings of one
// objective set share a cache entry, and a K-objective run returns a
// deterministic front with named per-point values.

func TestHardenUnknownObjective400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, b := post(t, ts, "/v1/harden",
		`{"network":{"name":"TreeFlat"},
		  "options":{"generations":10,"objectives":["damage","warp_drive"]}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", status, b)
	}
	eresp := decode[errorResponse](t, b)
	if !strings.Contains(eresp.Error, `"warp_drive"`) {
		t.Errorf("error %q does not quote the offending name", eresp.Error)
	}
	// The 400 must tell the client what the server actually provides.
	for _, name := range []string{"damage", "cost", "test_time", "yield_loss"} {
		if !strings.Contains(eresp.Error, name) {
			t.Errorf("error %q does not list registered objective %q", eresp.Error, name)
		}
	}
}

func TestHardenObjectivesCacheCanonicalization(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := func(objs string) string {
		return fmt.Sprintf(`{"network":{"name":"TreeFlat"},"spec":{"seed":4},
		  "options":{"generations":25,"seed":4,"objectives":[%s]}}`, objs)
	}
	status, _, b := post(t, ts, "/v1/harden", body(`"test_time","cost","damage"`))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, b)
	}
	first := decode[HardenResponse](t, b)
	if first.Cached {
		t.Fatal("first request claims cached")
	}
	want := []string{"damage", "cost", "test_time"}
	if fmt.Sprint(first.Objectives) != fmt.Sprint(want) {
		t.Errorf("objectives = %v, want canonical %v", first.Objectives, want)
	}

	// A permuted, duplicated spelling of the same set is the same
	// request: it must hit the cache, not recompute.
	status, _, b = post(t, ts, "/v1/harden", body(`"damage","cost","test_time","cost"`))
	if status != http.StatusOK {
		t.Fatalf("permuted status = %d, body %s", status, b)
	}
	if second := decode[HardenResponse](t, b); !second.Cached {
		t.Error("permuted objective spelling missed the cache")
	}

	// An explicit spelling of the default pair collapses to the empty
	// form: both land on one cache entry with the historical wire shape.
	plain := `{"network":{"name":"TreeFlat"},"spec":{"seed":4},
	  "options":{"generations":25,"seed":4}}`
	status, _, b = post(t, ts, "/v1/harden", plain)
	if status != http.StatusOK {
		t.Fatalf("default status = %d, body %s", status, b)
	}
	def := decode[HardenResponse](t, b)
	if len(def.Objectives) != 0 {
		t.Errorf("default run names objectives on the wire: %v", def.Objectives)
	}
	for _, fp := range def.Front {
		if fp.Values != nil {
			t.Errorf("default run labels point values: %+v", fp)
		}
	}
	status, _, b = post(t, ts, "/v1/harden", body(`"cost","damage"`))
	if status != http.StatusOK {
		t.Fatalf("explicit-default status = %d, body %s", status, b)
	}
	if resp := decode[HardenResponse](t, b); !resp.Cached {
		t.Error("explicit default pair missed the empty spelling's cache entry")
	}

	if hits := s.Telemetry().Snapshot().Counters["serve.cache.hits"]; hits < 2 {
		t.Errorf("cache.hits = %d, want >= 2", hits)
	}
}

func TestHardenThreeObjectivesDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"network":{"name":"TreeFlat"},"spec":{"seed":9},
	  "options":{"generations":40,"seed":9,"no_cache":true,
	    "objectives":["damage","cost","test_time"]}}`
	status, _, b1 := post(t, ts, "/v1/harden", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, b1)
	}
	r1 := decode[HardenResponse](t, b1)
	if len(r1.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, fp := range r1.Front {
		if len(fp.Values) != 3 {
			t.Fatalf("point lacks named values: %+v", fp)
		}
		// The named values and the historical fields describe the same
		// solution.
		if fp.Values["damage"] != float64(fp.Damage) || fp.Values["cost"] != float64(fp.Cost) {
			t.Errorf("values disagree with damage/cost fields: %+v", fp)
		}
		if fp.Values["test_time"] < 0 {
			t.Errorf("negative test time: %+v", fp)
		}
	}
	if r1.Picks.Damage10 != nil && len(r1.Picks.Damage10.Values) != 3 {
		t.Errorf("damage10 pick lacks named values: %+v", r1.Picks.Damage10)
	}
	if r1.Picks.Cost10 != nil && len(r1.Picks.Cost10.Values) != 3 {
		t.Errorf("cost10 pick lacks named values: %+v", r1.Picks.Cost10)
	}
	status, _, b2 := post(t, ts, "/v1/harden", body)
	if status != http.StatusOK {
		t.Fatalf("rerun status = %d, body %s", status, b2)
	}
	// elapsed_ms differs between runs; compare the semantic payload.
	r2 := decode[HardenResponse](t, b2)
	sameFP := func(a, b *FrontPoint) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		return a == nil || fmt.Sprint(*a) == fmt.Sprint(*b)
	}
	if fmt.Sprint(r1.Front) != fmt.Sprint(r2.Front) ||
		!sameFP(r1.Picks.Damage10, r2.Picks.Damage10) ||
		!sameFP(r1.Picks.Cost10, r2.Picks.Cost10) ||
		fmt.Sprint(r1.Objectives) != fmt.Sprint(r2.Objectives) {
		t.Errorf("same seed produced different 3-objective results:\n%+v\n%+v", r1, r2)
	}
}
