package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"rsnrobust/internal/fleet"
	"rsnrobust/internal/serve"
)

// Round templates. Each client sends its own fixed list of rounds,
// cycling through its workload's rounds in order; a repeat names the
// slot of its original in the same round, which that client completes
// first, so every repeat can be answered from a cache.
type slot struct {
	class string
	input string // analyze slots: the network
	orig  int    // repeat slots: the original's slot
}

const (
	analyzeICL   = "analyze_icl"
	analyzeNamed = "analyze_named"
	harden       = "harden"
	hardenStream = "harden_stream"
	hardenRepeat = "harden_repeat"
)

// Harden slots name their network, or take the next of smallNets when
// they leave it empty.
const (
	big1 = "p34392"
	big2 = "p93791"
)

// serveRounds: half analyze — inline uploads of MBIST_5_20_20 (1.9 MB)
// and MBIST_20_20_20 (7.7 MB), plus MBIST_5_100_20 by name, whose 9.7 MB
// ICL would exceed the 8 MiB body cap — 30 % harden misses of which a
// third stream, 20 % repeats. Of a cycle's 16 non-repeats, 5 are the
// fast cluster (MBIST_5_20_20 and small hardens), 6 the by-name analyze
// cluster and 5 the slow one (MBIST_20_20_20, p34392, p93791), so
// latency_ms.p50 falls mid-way into the by-name cluster and p90 inside
// the MBIST_20_20_20/p34392 one, away from the steps between clusters.
var serveRounds = [][]slot{{
	{class: analyzeNamed, input: "MBIST_5_100_20"},
	{class: harden},
	{class: analyzeICL, input: "MBIST_20_20_20"},
	{class: hardenStream},
	{class: analyzeNamed, input: "MBIST_5_100_20"},
	{class: hardenRepeat, orig: 3},
	{class: harden, input: big1},
	{class: analyzeNamed, input: "MBIST_5_100_20"},
	{class: hardenRepeat, orig: 1},
	{class: analyzeICL, input: "MBIST_20_20_20"},
}, {
	{class: analyzeNamed, input: "MBIST_5_100_20"},
	{class: harden},
	{class: analyzeICL, input: "MBIST_5_20_20"},
	{class: hardenStream},
	{class: analyzeNamed, input: "MBIST_5_100_20"},
	{class: hardenRepeat, orig: 3},
	{class: harden, input: big2},
	{class: analyzeICL, input: "MBIST_20_20_20"},
	{class: hardenRepeat, orig: 6},
	{class: analyzeNamed, input: "MBIST_5_100_20"},
}}

// fleetRounds: 60 % harden misses (a third streamed), 30 % repeats,
// 10 % analyze by name. Of a cycle's 14 non-repeats, 12 are the fast
// cluster (small hardens and the by-name analyze), then one p34392 and
// one p93791, so latency_ms.p90 lands inside the p34392 cluster.
var fleetRounds = [][]slot{fleetRound(big1), fleetRound(big2)}

func fleetRound(big string) []slot {
	return []slot{
		{class: harden},
		{class: hardenStream},
		{class: harden},
		{class: hardenRepeat, orig: 1},
		{class: analyzeNamed, input: "MBIST_5_100_20"},
		{class: harden, input: big},
		{class: hardenStream},
		{class: hardenRepeat, orig: 6},
		{class: harden},
		{class: hardenRepeat, orig: 5},
	}
}

// smallNets rotate through the harden slots that name no network. With
// big1 and big2 they are the inline-ICL SoC and Tree networks from
// q12710 to p93791, the harden shapes both HTTP workloads share, so the
// coordinator hop can be read against the direct path shape by shape.
var smallNets = []string{"q12710", "TreeUnbalanced", "a586710", "TreeBalanced", "TreeFlat_Ex"}

// hardenGenerations is the harden budget of both HTTP workloads.
const hardenGenerations = 150

// minNonRepeats is the fewest non-repeat requests a run sends, so
// latency_ms.p90 has ten samples beyond it.
const minNonRepeats = 100

// Nominal seconds per round (both clients in parallel) at HEAD on a
// 2-vCPU box: a run sends --seconds worth of rounds in whole cycles,
// and never fewer than minNonRepeats non-repeats.
const (
	serveRoundSeconds = 1.8
	fleetRoundSeconds = 4.4
)

// httpOp is one request of a client's list, built before timing.
type httpOp struct {
	id     string // X-Request-Id; joins client, coordinator and worker spans
	class  string
	in     *input
	path   string
	body   []byte
	stream bool
	orig   int // repeats: index of the original in the same list; -1 otherwise
	gens   int
}

// httpRes is what the client saw.
type httpRes struct {
	status     int
	ctype      string
	body       []byte // the plain body, or the SSE terminal result payload
	events     int
	start, end time.Time
	err        error
}

// mixPlan is the fixed op list of every client plus the distinct
// inputs behind it.
type mixPlan struct {
	clients  [][]httpOp
	inputs   map[string]*input // by inputKey
	specSeed int64
	gens     int // harden budget
	// tamper, when set, alters responses before they are checked; the
	// self-tests use it to inject faults.
	tamper func(*httpOp, *httpRes)
}

func inputKey(name string, byName bool) string {
	if byName {
		return "name:" + name
	}
	return "icl:" + name
}

// planMix builds every request body and reference of the run from the
// seed. A second seed changes the spec seed and every options.seed,
// not the class counts.
func planMix(o options, fleetMode bool) (*mixPlan, error) {
	cycle, perRound := serveRounds, serveRoundSeconds
	if fleetMode {
		cycle, perRound = fleetRounds, fleetRoundSeconds
	}
	nets := smallNets
	gens := hardenGenerations
	rounds := roundCount(cycle, o.seconds, perRound)
	if o.short {
		nets, gens, rounds = []string{"TreeFlat", "q12710"}, 10, len(cycle)
	}
	p := &mixPlan{inputs: map[string]*input{}, specSeed: mix(o.seed, 1), gens: gens}
	load := func(name string, byName bool) (*input, error) {
		k := inputKey(name, byName)
		if in, ok := p.inputs[k]; ok {
			return in, nil
		}
		in, err := loadInput(name, p.specSeed, byName)
		if err != nil {
			return nil, err
		}
		p.inputs[k] = in
		return in, nil
	}
	analyzeBodies := map[string][]byte{}
	for c := 0; c < 2; c++ {
		var ops []httpOp
		k := c * len(nets) / 2 // clients start half a rotation apart
		for r := 0; r < rounds; r++ {
			base := len(ops)
			// The second client runs the cycle's rounds in the other order.
			for s, sl := range cycle[(r+c)%len(cycle)] {
				op := httpOp{id: fmt.Sprintf("pb-%d-%d-%d", o.seed, c, len(ops)), class: sl.class, orig: -1}
				switch sl.class {
				case analyzeICL, analyzeNamed:
					byName := sl.class == analyzeNamed
					name := sl.input
					if o.short {
						name = "MBIST_1_5_5" // a tiny stand-in for every analyze input
					}
					in, err := load(name, byName)
					if err != nil {
						return nil, err
					}
					op.in, op.path = in, "/v1/analyze"
					key := inputKey(name, byName)
					if analyzeBodies[key] == nil {
						req := serve.AnalyzeRequest{Spec: serve.SpecRef{Generate: !byName, Seed: p.specSeed}}
						if byName {
							req.Network.Name = name
						} else {
							req.Network.ICL = in.icl
						}
						b, err := json.Marshal(req)
						if err != nil {
							return nil, err
						}
						analyzeBodies[key] = b
					}
					op.body = analyzeBodies[key]
				case harden, hardenStream:
					name := sl.input
					if name == "" || o.short {
						name = nets[k%len(nets)]
						k++
					}
					in, err := load(name, false)
					if err != nil {
						return nil, err
					}
					req := serve.HardenRequest{
						Network: serve.NetworkRef{ICL: in.icl},
						Spec:    serve.SpecRef{Generate: true, Seed: p.specSeed},
						Options: serve.HardenOptions{Generations: gens, Seed: mix(o.seed, 3, uint64(c), uint64(len(ops)))},
					}
					b, err := json.Marshal(req)
					if err != nil {
						return nil, err
					}
					op.in, op.path, op.body, op.gens = in, "/v1/harden", b, gens
					op.stream = sl.class == hardenStream
				case hardenRepeat:
					orig := ops[base+sl.orig]
					if orig.class != harden && orig.class != hardenStream {
						return nil, fmt.Errorf("round slot %d repeats a %s", s, orig.class)
					}
					op.in, op.path, op.body, op.gens = orig.in, orig.path, orig.body, orig.gens
					op.orig = base + sl.orig
				}
				ops = append(ops, op)
			}
		}
		p.clients = append(p.clients, ops)
	}
	return p, nil
}

// roundCount is the number of rounds each client sends: --seconds
// worth at the nominal round time, at least minNonRepeats non-repeats
// over both clients, in whole cycles.
func roundCount(cycle [][]slot, seconds int, perRound float64) int {
	nonRepeats := 0
	for _, r := range cycle {
		for _, sl := range r {
			if sl.class != hardenRepeat {
				nonRepeats++
			}
		}
	}
	cycles := int(math.Round(float64(seconds) / perRound / float64(len(cycle))))
	cycles = max(cycles, (minNonRepeats+2*nonRepeats-1)/(2*nonRepeats))
	return cycles * len(cycle)
}

// mixEnv is one set of servers on loopback listeners: one serve.Server
// (serve_mix), or a fleet.Coordinator in front of two (fleet_mix).
type mixEnv struct {
	url        string   // where clients send requests
	workerURLs []string // every serve.Server
	coordURL   string   // "" without a coordinator
	servers    []*http.Server
	done       sync.WaitGroup
}

// startEnv builds the servers with their default configuration. With
// a tracer, every handler is wrapped to record spans.
func startEnv(fleetMode bool, tr *tracer) (*mixEnv, error) {
	e := &mixEnv{}
	workers := 1
	if fleetMode {
		workers = 2
	}
	for i := 0; i < workers; i++ {
		var h http.Handler = serve.New(serve.Config{}).Handler()
		if tr != nil {
			h = tr.wrap(spanServe, h)
		}
		u, err := e.listen(h)
		if err != nil {
			e.close()
			return nil, err
		}
		e.workerURLs = append(e.workerURLs, u)
	}
	e.url = e.workerURLs[0]
	if fleetMode {
		c, err := fleet.New(fleet.Config{Workers: e.workerURLs})
		if err != nil {
			e.close()
			return nil, err
		}
		var h http.Handler = c.Handler()
		if tr != nil {
			h = tr.wrap(spanFleet, h)
		}
		if e.coordURL, err = e.listen(h); err != nil {
			e.close()
			return nil, err
		}
		e.url = e.coordURL
		c.ProbeNow()
	}
	return e, nil
}

func (e *mixEnv) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	e.servers = append(e.servers, srv)
	e.done.Add(1)
	go func() {
		defer e.done.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server and waits for them.
func (e *mixEnv) close() {
	for _, s := range e.servers {
		s.Close()
	}
	e.done.Wait()
}

// client sends one op list in a closed loop over its own connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{
		DisableCompression:  true,
		MaxIdleConnsPerHost: 2,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response; for SSE it reads
// up to and including the terminal result (or error) event.
func (c *client) do(op *httpOp) httpRes {
	var r httpRes
	req, err := http.NewRequest(http.MethodPost, c.url+op.path, bytes.NewReader(op.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", op.id)
	if op.stream {
		req.Header.Set("Accept", "text/event-stream")
	}
	r.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err, r.end = err, time.Now()
		return r
	}
	defer resp.Body.Close()
	r.status, r.ctype = resp.StatusCode, resp.Header.Get("Content-Type")
	if isSSE(r.ctype) {
		r.body, r.events, r.err = readResult(resp.Body)
		r.end = time.Now()
		_, _ = io.Copy(io.Discard, resp.Body)
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	r.end = time.Now()
	return r
}

// readResult reads SSE frames until the terminal event and returns the
// result payload and the number of events seen.
func readResult(body io.Reader) ([]byte, int, error) {
	br := bufio.NewReaderSize(body, 64<<10)
	var name string
	events := 0
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, events, fmt.Errorf("stream ended without a result: %w", err)
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			name = string(line[len("event: "):])
			events++
		case bytes.HasPrefix(line, []byte("data: ")):
			data := line[len("data: "):]
			switch name {
			case "result":
				return data, events, nil
			case "error":
				return nil, events, fmt.Errorf("error event: %s", data)
			}
		}
	}
}

// mixPass is one set-up plus timed pass of an HTTP workload.
type mixPass struct {
	pass    *pass
	setups  []time.Duration
	res     [][]httpRes
	digest  string
	harden  map[string]*serve.HardenResponse // decoded harden results by op id
	before  counters
	after   counters
	env     *mixEnv
	failIDs map[string]bool
}

// runMixPass sets up (setupRepeats times, keeping the last; once when
// traced), runs the plan's clients in two timed phases, and checks
// every response. With a tracer the servers are wrapped, client spans
// are recorded, and the counters are read before and after.
func runMixPass(plan *mixPlan, fleetMode bool, tr *tracer, rep *report) (*mixPass, error) {
	mp := &mixPass{pass: &pass{}, harden: map[string]*serve.HardenResponse{}, failIDs: map[string]bool{}}
	var env *mixEnv
	for k := 0; k < setupCount(tr); k++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		if env, err = startEnv(fleetMode, tr); err != nil {
			return nil, err
		}
		if err := warmUp(env.url, plan.specSeed+1, plan.gens); err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		mp.setups = append(mp.setups, time.Since(t0))
	}
	defer env.close()
	mp.env = env
	if tr != nil {
		mp.before = readCounters(env)
	}

	clients := make([]*client, len(plan.clients))
	for i := range clients {
		clients[i] = newClient(env.url)
		defer clients[i].close()
	}
	mp.res = make([][]httpRes, len(plan.clients))
	for i, ops := range plan.clients {
		mp.res[i] = make([]httpRes, len(ops))
	}
	// Two timed phases, each from a forced GC: both clients' misses,
	// then the repeats, one client at a time. A repeat overlapping other
	// work waits for a core on a 2-vCPU box (0.3–1 ms or 4–75 ms at
	// random), or pays for the GC of the misses' garbage, so the repeat
	// phase measures the cache path on an otherwise idle server.
	for _, repeats := range []bool{false, true} {
		reg := startRegion()
		var wg sync.WaitGroup
		for i, ops := range plan.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range ops {
					if (ops[j].orig >= 0) == repeats {
						mp.res[i][j] = clients[i].do(&ops[j])
					}
				}
			}()
			if repeats {
				wg.Wait() // one client at a time: nothing else in flight
			}
		}
		wg.Wait()
		mp.pass.rr.add(reg.end())
	}

	if tr != nil {
		mp.after = readCounters(env)
		for i, ops := range plan.clients {
			for j := range ops {
				r := mp.res[i][j]
				tr.add(span{Name: spanClient, ReqID: ops[j].id, Start: tr.at(r.start), End: tr.at(r.end), Status: r.status, CType: r.ctype, Events: r.events})
			}
		}
	}

	d := newDigest()
	for i, ops := range plan.clients {
		for j := range ops {
			if plan.tamper != nil {
				plan.tamper(&ops[j], &mp.res[i][j])
			}
			op, r := &ops[j], mp.res[i][j]
			rep.attempted++
			mp.pass.ops++
			lat := r.end.Sub(r.start)
			mp.pass.observe(op.class, op.in.entry.Name, lat)
			if op.orig >= 0 {
				mp.pass.hit = append(mp.pass.hit, ms(lat))
			} else {
				mp.pass.lat = append(mp.pass.lat, ms(lat))
			}
			if err := mp.check(op, r, mp.res[i], ops, d); err != nil {
				rep.fail(op.id, err)
				mp.failIDs[op.id] = true
			}
		}
	}
	mp.digest = d.sum()
	return mp, nil
}

// check verifies one response; fronts of non-repeat hardens feed the
// digest and the hypervolume ratios.
func (mp *mixPass) check(op *httpOp, r httpRes, res []httpRes, ops []httpOp, d *digest) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if op.stream && !isSSE(r.ctype) {
		return fmt.Errorf("asked for SSE, got %q", r.ctype)
	}
	ref := op.in.ref
	switch op.class {
	case analyzeICL, analyzeNamed:
		var a serve.AnalyzeResponse
		if err := json.Unmarshal(r.body, &a); err != nil {
			return err
		}
		if a.TotalDamage != ref.totalDamage || a.MaxCost != ref.maxCost || a.MustHarden != ref.mustHarden {
			return fmt.Errorf("analyze totals %d/%d/%d, reference %d/%d/%d",
				a.TotalDamage, a.MaxCost, a.MustHarden, ref.totalDamage, ref.maxCost, ref.mustHarden)
		}
		return nil
	case hardenRepeat:
		orig := res[op.orig]
		if orig.err != nil || orig.status != http.StatusOK {
			return errors.New("original failed")
		}
		return sameResult(orig.body, r.body)
	}
	var h serve.HardenResponse
	if err := json.Unmarshal(r.body, &h); err != nil {
		return err
	}
	if h.Interrupted {
		return errors.New("interrupted")
	}
	if h.MaxCost != ref.maxCost || h.MaxDamage != ref.totalDamage {
		return fmt.Errorf("max cost/damage %d/%d, reference %d/%d", h.MaxCost, h.MaxDamage, ref.maxCost, ref.totalDamage)
	}
	front := make([]point, len(h.Front))
	for i, fp := range h.Front {
		front[i] = point{Cost: fp.Cost, Damage: fp.Damage, Hardened: fp.Hardened, CriticalCovered: fp.CriticalCovered}
	}
	if err := checkFront(front, h.MaxCost, h.MaxDamage); err != nil {
		return err
	}
	var d10, c10 *point
	if p := h.Picks.Damage10; p != nil {
		d10 = &point{Cost: p.Cost, Damage: p.Damage, Hardened: p.Hardened, CriticalCovered: p.CriticalCovered}
	}
	if p := h.Picks.Cost10; p != nil {
		c10 = &point{Cost: p.Cost, Damage: p.Damage, Hardened: p.Hardened, CriticalCovered: p.CriticalCovered}
	}
	if err := checkPicks(front, d10, c10, h.MaxCost, h.MaxDamage); err != nil {
		return err
	}
	if hv, ok := ref.hvRatio(front); ok {
		mp.pass.hv = append(mp.pass.hv, hv)
	}
	d.add(op.id, front)
	mp.harden[op.id] = &h
	return nil
}

// warmUp sends one analyze and one plain and one streamed harden on
// an input outside the measured set: TreeFlat under another spec seed.
func warmUp(url string, seed int64, gens int) error {
	c := newClient(url)
	defer c.close()
	text, err := iclText(entry("TreeFlat"))
	if err != nil {
		return err
	}
	ab, err := json.Marshal(serve.AnalyzeRequest{Network: serve.NetworkRef{ICL: text}, Spec: serve.SpecRef{Generate: true, Seed: seed}})
	if err != nil {
		return err
	}
	hb, err := json.Marshal(serve.HardenRequest{Network: serve.NetworkRef{ICL: text}, Spec: serve.SpecRef{Generate: true, Seed: seed}, Options: serve.HardenOptions{Generations: gens, Seed: seed}})
	if err != nil {
		return err
	}
	for _, op := range []httpOp{
		{id: "warm-analyze", path: "/v1/analyze", body: ab},
		{id: "warm-harden", path: "/v1/harden", body: hb},
		{id: "warm-stream", path: "/v1/harden", body: hb, stream: true},
	} {
		r := c.do(&op)
		if r.err != nil {
			return r.err
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("%s: status %d", op.id, r.status)
		}
	}
	return nil
}

// counters are the program's own counters, read by name from every
// /metrics?format=json and the coordinator's /v1/fleet.
type counters struct {
	worker    map[string]int64 // summed over workers
	coord     map[string]int64
	dispatch  int64 // /v1/fleet: dispatched, summed over workers
	affinity  int64 // /v1/fleet: affinity_dispatches, summed
	haveFleet bool
}

func readCounters(e *mixEnv) counters {
	c := counters{worker: map[string]int64{}, coord: map[string]int64{}}
	get := func(url string, v any) bool {
		resp, err := http.Get(url)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(v) == nil
	}
	for _, u := range e.workerURLs {
		var snap struct{ Counters map[string]int64 }
		if get(u+"/metrics?format=json", &snap) {
			for k, v := range snap.Counters {
				c.worker[k] += v
			}
		}
	}
	if e.coordURL == "" {
		return c
	}
	var snap struct{ Counters map[string]int64 }
	if get(e.coordURL+"/metrics?format=json", &snap) {
		c.coord = snap.Counters
	}
	var fl struct {
		Workers []struct {
			Dispatched int64  `json:"dispatched"`
			Affinity   *int64 `json:"affinity_dispatches"`
		}
	}
	if get(e.coordURL+"/v1/fleet", &fl) {
		for _, w := range fl.Workers {
			c.dispatch += w.Dispatched
			if w.Affinity != nil {
				c.affinity += *w.Affinity
				c.haveFleet = true
			}
		}
	}
	return c
}

// delta returns after−before for a counter, ok=false when the program
// does not export it.
func delta(before, after map[string]int64, name string) (int64, bool) {
	a, ok := after[name]
	if !ok {
		return 0, false
	}
	return a - before[name], true
}

// runHTTPMix runs serve_mix or fleet_mix.
func runHTTPMix(o options, fleetMode bool) (*report, error) {
	name := "serve_mix"
	if fleetMode {
		name = "fleet_mix"
	}
	plan, err := planMix(o, fleetMode)
	if err != nil {
		return nil, err
	}
	plan.tamper = o.tamper
	rep := &report{workload: name, seed: o.seed}
	untraced, err := runMixPass(plan, fleetMode, nil, rep)
	if err != nil {
		return nil, err
	}
	rep.digest = untraced.digest
	rep.lines = classLines(untraced.pass)
	if !o.trace {
		rep.metrics = endToEnd(untraced.setups, untraced.pass)
		return rep, nil
	}
	tr := newTracer()
	traced, err := runMixPass(plan, fleetMode, tr, rep)
	if err != nil {
		return nil, err
	}
	if traced.digest != untraced.digest {
		rep.fail("traced pass", fmt.Errorf("digest %s differs from untraced %s", traced.digest, untraced.digest))
	}
	ls, err := mixLayers(plan, traced, tr, rep)
	if err != nil {
		return nil, err
	}
	ls.setAll(runtimeMetrics(untraced.pass))
	ls.setAll(overheadMetrics(untraced.pass, traced.pass))
	rep.metrics = ls.list()
	return rep, tr.write(o.spans)
}

// mixLayers derives the per-layer metrics of an HTTP workload from the
// traced pass's spans, its counters and the stage replays.
func mixLayers(plan *mixPlan, mp *mixPass, tr *tracer, rep *report) (layerSet, error) {
	ls := layerSet{}
	stages := map[*input]stageTimes{}
	for k, in := range plan.inputs {
		st, err := replayStages(tr, in, plan.specSeed, strings.HasPrefix(k, "name:"))
		if err != nil {
			return nil, err
		}
		stages[in] = st
	}
	spans := tr.byRequest()
	fleetMode := mp.env.coordURL != ""

	var parse, gen, specT, tree, analyze, problem, search, perGen []float64
	handler := map[string][]float64{}
	job := map[string][]float64{}
	edge := map[string][]float64{}
	hop := map[string][]float64{}
	kb := map[string][]float64{}
	var sseEvents, streamMB, ckptEvents, ckptMB []float64
	jobs := 0
	for ci, ops := range plan.clients {
		for j := range ops {
			op := &ops[j]
			if mp.failIDs[op.id] {
				continue
			}
			st := stages[op.in]
			var client *span
			var workers []*span
			for _, s := range spans[op.id] {
				switch s.Name {
				case spanClient:
					client = s
				case spanServe:
					workers = append(workers, s)
				}
			}
			if op.stream {
				for _, s := range spans[op.id] {
					if s.Name != spanClient && !isSSE(s.CType) {
						rep.fail(op.id, fmt.Errorf("%s answered %q to a stream request", s.Name, s.CType))
					}
				}
			}
			repeat := op.orig >= 0
			if !repeat {
				if op.class == analyzeNamed {
					gen = append(gen, st[stageGenerate])
				} else {
					parse = append(parse, st[stageParse])
				}
				specT = append(specT, st[stageSpec])
				tree = append(tree, st[stageTree])
				analyze = append(analyze, st[stageAnalyze])
			}
			var jobMS, loadMS float64
			if h := mp.harden[op.id]; h != nil && !h.Cached {
				jobs++
				problem = append(problem, st[stageProblem])
				jobMS = h.ElapsedMS
				loadMS = st[stageParse] + st[stageSpec]
				s := h.ElapsedMS - st[stageTree] - st[stageAnalyze] - st[stageProblem]
				search = append(search, s)
				perGen = append(perGen, s/float64(op.gens))
			} else if op.class == analyzeICL || op.class == analyzeNamed {
				var a serve.AnalyzeResponse
				if json.Unmarshal(mp.res[ci][j].body, &a) == nil {
					jobMS = a.ElapsedMS // covers load, spec, tree and analysis
				}
			}
			var workerMS float64
			for _, w := range workers {
				workerMS += w.dur()
				kb[op.class] = append(kb[op.class], float64(w.Bytes)/1e3)
				if isSSE(w.CType) {
					sseEvents = append(sseEvents, float64(w.Events))
				}
				if fleetMode && (op.class == harden || op.class == hardenStream) {
					streamMB = append(streamMB, float64(w.Bytes)/1e6)
					ckptEvents = append(ckptEvents, float64(w.Ckpts))
					ckptMB = append(ckptMB, float64(w.CkptBytes)/1e6)
				}
			}
			if len(workers) > 0 {
				handler[op.class] = append(handler[op.class], workerMS)
				job[op.class] = append(job[op.class], jobMS)
				edge[op.class] = append(edge[op.class], workerMS-jobMS-loadMS)
			}
			if fleetMode && client != nil {
				hop[op.class] = append(hop[op.class], client.dur()-workerMS)
			}
		}
	}
	setMean := func(name string, xs []float64) {
		if len(xs) > 0 {
			ls.set(name, mean(xs), len(xs))
		}
	}
	setP50 := func(name string, xs []float64) {
		if len(xs) > 0 {
			ls.set(name, quantile(xs, 0.5), len(xs))
		}
	}
	setMean("icl.parse_ms", parse)
	setMean("benchnets.generate_ms", gen)
	setMean("spec.generate_ms", specT)
	setMean("sptree.build_ms", tree)
	setMean("faults.analyze_ms", analyze)
	setMean("core.problem_ms", problem)
	setMean("moea.search_ms", search)
	setMean("moea.ms_per_gen", perGen)
	wc := map[string]int64{}
	for _, n := range []string{"moea.evaluations", "moea.delta.evaluations", "moea.memo.hits", "moea.memo.misses"} {
		if v, ok := delta(mp.before.worker, mp.after.worker, n); ok {
			wc[n] = v
		}
	}
	setMoeaCounters(ls, wc, jobs)
	for _, c := range classes {
		setP50("serve.handler_ms."+c+".p50", handler[c])
		setP50("serve.job_ms."+c+".p50", job[c])
		setP50("serve.edge_ms."+c+".p50", edge[c])
		setMean("serve.response_kb."+c, kb[c])
		if fleetMode {
			setP50("fleet.hop_ms."+c+".p50", hop[c])
		}
	}
	hits, ok1 := delta(mp.before.worker, mp.after.worker, "serve.cache.hits")
	misses, ok2 := delta(mp.before.worker, mp.after.worker, "serve.cache.misses")
	if ok1 && ok2 && hits+misses > 0 {
		ls.set("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	setMean("serve.sse_events_per_stream", sseEvents)
	if !fleetMode {
		return ls, nil
	}
	setMean("fleet.stream_mb_per_job", streamMB)
	setMean("fleet.ckpt_events_per_job", ckptEvents)
	setMean("fleet.ckpt_mb_per_job", ckptMB)
	b, a := mp.before.coord, mp.after.coord
	l1h, ok1 := delta(b, a, "fleet.cache.hits")
	l1m, ok2 := delta(b, a, "fleet.cache.misses")
	if ok1 && ok2 && l1h+l1m > 0 {
		ls.set("fleet.l1_hit_ratio", float64(l1h)/float64(l1h+l1m), int(l1h+l1m))
	}
	if mp.after.haveFleet {
		d := mp.after.dispatch - mp.before.dispatch
		ls.set("fleet.affinity_share", ratio(float64(mp.after.affinity-mp.before.affinity), float64(d)), int(d))
	}
	if d, ok := delta(b, a, "fleet.dispatches"); ok {
		ls.set("fleet.dispatches_per_miss", ratio(float64(d), float64(mp.pass.ops)-float64(l1h)), mp.pass.ops)
	}
	for _, n := range []string{"retries", "migrations"} {
		if v, ok := delta(b, a, "fleet."+n); ok {
			ls.set("fleet."+n, float64(v), 1)
		}
	}
	return ls, nil
}
